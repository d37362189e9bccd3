"""Committee consensus tests: score arithmetic against a brute-force oracle,
admission-control ordering, quorum bounds, and byzantine-resilience
properties over seeded rounds."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enfnet import poenf_consensus
from enfnet import (
    ColludingClone,
    CommitteeConfig,
    EnfTransaction,
    GridConfig,
    Honest,
    InvalidArgumentError,
    OffsetVector,
    QuorumError,
    RandomVector,
    RejectReason,
    Silent,
    TransactionPool,
    compute_scores,
    consensus_round,
    gen_enf_truth,
    parse_behavior,
    play_round,
    run_round,
    select_ground_truth,
    simulate_rounds,
    validate_transaction,
)
from enfnet.poenf_consensus import make_transaction

CFG = CommitteeConfig(K=5, f=1, d=4, round_duration_s=60.0)


def pool_from(vectors, round_no=0):
    pool = TransactionPool(round=round_no)
    for vid, vec in enumerate(vectors):
        pool.insert(EnfTransaction(vid, round_no, np.asarray(vec, float)))
    return pool


def tx(vid=0, rnd=0, vec=None, d=4):
    if vec is None:
        vec = np.full(d, 60.0)
    return EnfTransaction(vid, rnd, np.asarray(vec, float))


# ---------------------------------------------------------------------------
# admission control


@pytest.mark.parametrize(
    "vid, reason",
    [(0, None), (CFG.K - 1, None), (-1, RejectReason.NotMember), (CFG.K, RejectReason.NotMember),
     (CFG.K + 3, RejectReason.NotMember)],
)
def test_validate_membership_boundary(vid, reason):
    """The committee is exactly the ids 0..K-1."""
    res = validate_transaction(tx(vid=vid), TransactionPool(round=0), CFG)
    assert (res.accepted, res.reason) == (reason is None, reason)


def test_validate_rejection_order():
    """A transaction violating several rules reports the first failed check."""
    pool = pool_from([np.full(4, 60.0)])  # validator 0 already submitted
    bad_vec = np.full(4, 99.0)  # also malformed

    # non-member beats everything else
    r = validate_transaction(tx(vid=7, rnd=3, vec=bad_vec), pool, CFG)
    assert (r.accepted, r.reason) == (False, RejectReason.NotMember)
    # member, wrong round
    r = validate_transaction(tx(vid=0, rnd=3, vec=bad_vec), pool, CFG)
    assert r.reason is RejectReason.StaleRound
    # member, current round, already in pool
    r = validate_transaction(tx(vid=0, rnd=0, vec=bad_vec), pool, CFG)
    assert r.reason is RejectReason.Duplicate
    # member, current, fresh -> only now is the payload inspected
    r = validate_transaction(tx(vid=1, rnd=0, vec=bad_vec), pool, CFG)
    assert r.reason is RejectReason.Malformed
    # the pool itself refuses a stale round and a second entry, whatever validation said
    with pytest.raises(InvalidArgumentError, match="round"):
        pool.insert(tx(vid=1, rnd=3))
    with pytest.raises(InvalidArgumentError, match="duplicate"):
        pool.insert(tx(vid=0, rnd=0))
    assert len(pool) == 1


@pytest.mark.parametrize(
    "vec",
    [
        np.full(3, 60.0),  # wrong length
        np.full(5, 60.0),
        np.array([60.0, np.nan, 60.0, 60.0]),
        np.array([60.0, np.inf, 60.0, 60.0]),
        np.array([60.0, -np.inf, 60.0, 60.0]),
        np.array([np.nan, 60.0, 60.0, 60.0]),  # a NaN first and last: min() and max()
        np.array([60.0, 60.0, 60.0, np.nan]),
        np.full(4, 61.5),  # outside nominal +- 1
        np.full(4, 58.9),
        np.full((2, 4), 60.0),  # not 1-D
        np.array(60.0),
    ],
)
def test_validate_malformed_vectors(vec):
    pool = TransactionPool(round=0)
    r = validate_transaction(tx(vec=vec), pool, CFG)
    assert r.reason is RejectReason.Malformed


def test_validate_accepts_vectors_on_the_bounds():
    """The well-formed range is closed: nominal - 1 and nominal + 1 are in it."""
    for vec in (np.full(4, CFG.vector_lo), np.full(4, CFG.vector_hi),
                [CFG.vector_lo, 60.0, 60.0, CFG.vector_hi]):
        assert validate_transaction(tx(vec=vec), TransactionPool(round=0), CFG).accepted


# ---------------------------------------------------------------------------
# scoring


def test_scores_identical_vectors_are_zero():
    pool = pool_from([np.full(4, 60.0)] * 5)
    table = compute_scores(pool, CFG)
    assert set(table) == set(range(5))
    assert all(s == 0.0 for s in table.values())


def test_scores_match_bruteforce_oracle():
    """Independent O(n^2) recomputation with explicit loops."""
    rng = np.random.default_rng(5)
    vecs = 60.0 + rng.normal(0.0, 0.2, size=(5, 4)).clip(-1, 1)
    pool = pool_from(vecs)
    table = compute_scores(pool, CFG)
    m = 5 - CFG.f - 2
    for i in range(5):
        dists = sorted(
            float(np.sum((vecs[i] - vecs[j]) ** 2)) for j in range(5) if j != i
        )
        assert table[i] == pytest.approx(sum(dists[:m]), abs=1e-12)


def test_scores_quorum_bound():
    pool = pool_from([np.full(4, 60.0)] * 4)  # one short of 2f+3
    with pytest.raises(QuorumError):
        compute_scores(pool, CFG)


def test_select_tie_breaks_to_lowest_id():
    a = np.full(4, 60.0)
    b = np.full(4, 60.1)
    pool = pool_from([a, a, b, b, np.full(4, 60.9)])
    table = compute_scores(pool, CFG)
    winner, vec = select_ground_truth(table, pool)
    assert winner == 0
    np.testing.assert_array_equal(vec, a)
    with pytest.raises(InvalidArgumentError, match="empty score table"):
        select_ground_truth({}, pool)


def test_outlier_scores_grow_with_offset():
    rng = np.random.default_rng(9)
    honest = 60.0 + rng.normal(0.0, 0.01, size=(4, 4))
    near = compute_scores(pool_from(list(honest) + [np.full(4, 60.3)]), CFG)
    far = compute_scores(pool_from(list(honest) + [np.full(4, 60.6)]), CFG)
    assert far[4] > near[4] > max(near[i] for i in range(4))


@settings(max_examples=40, deadline=None)
@given(perm=st.permutations(list(range(5))))
def test_scores_permutation_invariance(perm):
    """Scores depend on the vector, not on the validator label."""
    rng = np.random.default_rng(31)
    vecs = 60.0 + rng.normal(0.0, 0.1, size=(5, 4))
    base = compute_scores(pool_from(vecs), CFG)
    pool = TransactionPool(round=0)
    for vid, src in enumerate(perm):
        pool.insert(EnfTransaction(vid, 0, vecs[src]))
    table = compute_scores(pool, CFG)
    for vid, src in enumerate(perm):
        assert table[vid] == pytest.approx(base[src], abs=1e-9)


@pytest.mark.parametrize("d", [8, 60, 720])
def test_scores_match_cdist_within_ulps_of_the_norms(d):
    """Against scipy's cdist, imported only here: random proofs over +-1 Hz, honest
    ones around +0.5 Hz, copies of the honest proofs' mean and colluding clones. Each
    distance may move by d ulps of n_i + n_j (the squared norms about nominal),
    the rounding scale of a d-term sum, so a score moves by at most m of those
    plus the rounding of its own m-term sum. The copies of the honest mean are
    the most central proofs, score alike and tie to the lowest of their ids."""
    from scipy.spatial.distance import cdist

    cfg = CommitteeConfig(K=30, f=13, d=d)  # m = 15: the 17 central proofs
    rng = np.random.default_rng(d)
    truth = 60.5 + rng.normal(0.0, 0.01, d)
    normal, uniform = rng.standard_normal((22, d)), rng.random((22, d))

    def proof(behavior, v):
        return make_transaction(behavior, truth, v, 0, normal[v], uniform[v], cfg).enf_vector

    honest = [proof(Honest(), v) for v in range(13)]
    random = [proof(RandomVector(), v) for v in range(13, 21)]
    clone = proof(ColludingClone(60.2), 21)
    mean = np.mean(honest, axis=0)
    copy_ids = [3, 11, 20, 27]
    rest = iter(honest + random + [clone] * 5)
    vecs = np.array([mean if v in copy_ids else next(rest) for v in range(cfg.K)])
    pool = pool_from(vecs)
    table = compute_scores(pool, cfg)

    m = cfg.K - cfg.f - 2
    dist = cdist(vecs, vecs, "sqeuclidean")
    np.fill_diagonal(dist, np.inf)
    want = np.sort(dist, axis=1)[:, :m].sum(axis=1)
    norms = np.sum((vecs - cfg.nominal_hz) ** 2, axis=1)
    pair = norms[:, None] + norms[None, :]
    np.fill_diagonal(pair, 0.0)
    eps = np.finfo(float).eps
    tol = m * d * eps * pair.max(axis=1) + 2 * m * eps * want
    got = np.array([table[v] for v in range(cfg.K)])
    assert np.all(np.abs(got - want) <= tol)
    for group in (copy_ids, [v for v in range(cfg.K) if vecs[v].tobytes() == clone.tobytes()]):
        assert len({table[v] for v in group}) == 1
    assert select_ground_truth(table, pool)[0] == copy_ids[0]


def test_score_bytes_do_not_depend_on_blas_threads():
    script = (
        "import hashlib, numpy as np\n"
        "from enfnet import CommitteeConfig\n"
        "from enfnet.poenf_consensus import EnfTransaction, TransactionPool, compute_scores\n"
        "rng = np.random.default_rng(3)\n"
        "pool = TransactionPool(round=0)\n"
        "for v in range(200):\n"
        "    pool.insert(EnfTransaction(v, 0, rng.uniform(59.0, 61.0, 1440)))\n"
        "scores = compute_scores(pool, CommitteeConfig(K=200, f=60, d=1440))\n"
        "print(hashlib.sha256(np.array(list(scores.values())).tobytes()).hexdigest())\n"
    )
    src = str(Path(poenf_consensus.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0].split()) == 1
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# behaviors and rounds


def test_round_zero_noise_unanimous():
    grid = GridConfig(seed=0)
    rr = run_round(grid, [Honest(0.0)] * 5, CFG, seed=42)
    assert rr.ground_truth_id == 0  # all scores tie at exactly zero
    assert rr.honest_agreement
    assert all(s == 0.0 for s in rr.scores.values())
    assert np.all(np.abs(rr.ground_truth_enf.values_hz - 60.0) <= 0.05)


@pytest.mark.parametrize(
    "grid, cfg",
    [
        (GridConfig(), CFG),
        (
            GridConfig(nominal_hz=50.0, drift_std_hz=0.02, max_dev_hz=0.5),
            CommitteeConfig(K=5, f=1, d=37, round_duration_s=90.0, nominal_hz=50.0),
        ),
    ],
)
@pytest.mark.parametrize("seed, round_no", [(42, 0), (7, 3), (0, 10**6)])
def test_round_truth_is_the_grid_walk(grid, cfg, seed, round_no):
    """A noiseless committee's E* is gen_enf_truth reseeded with [seed, round_no]."""
    rr = run_round(grid, [Honest(noise_std=0.0)] * cfg.K, cfg, seed=seed, round_no=round_no)
    round_grid = dataclasses.replace(grid, seed=[seed, round_no])
    truth = gen_enf_truth(round_grid, cfg.round_duration_s, cfg.round_duration_s / cfg.d)
    assert rr.ground_truth_enf.values_hz.tobytes() == truth.values_hz.tobytes()
    assert rr.ground_truth_enf.step_s == truth.step_s


def test_play_round_selects_the_central_view():
    """Each validator proves its own base; with zero noise the Krum-central base is E*."""
    offsets = [0.04, -0.01, 0.01, -0.04, 0.0]  # validator 4 sits in the middle
    bases = [np.full(CFG.d, 60.0 + o) for o in offsets]
    rr = play_round([Honest(0.0)] * CFG.K, bases, CFG, round_no=2, seed=[9, 2])
    assert rr.ground_truth_id == 4
    assert rr.ground_truth_enf.values_hz.tobytes() == bases[4].tobytes()
    assert rr.ground_truth_enf.start_time_s == 2 * CFG.round_duration_s
    assert rr.honest_agreement
    others = [s for v, s in rr.scores.items() if v != 4]
    assert rr.scores[4] < min(others)  # a strict winner, not a tie broken by id


def _submitted(monkeypatch):
    """The transactions play_round hands consensus_round, in a list filled as rounds run."""
    submitted = []
    kernel = poenf_consensus.consensus_round

    def capture(txs, *args):
        submitted.extend(txs)
        return kernel(txs, *args)

    monkeypatch.setattr(poenf_consensus, "consensus_round", capture)
    return submitted


@pytest.mark.parametrize("seed", [[9, 2], [0, 0], [2**32 - 1, 7], [2**32 + 5, 3],
                                  [2**70 + 12345, 1]])
def test_play_round_draws_row_v_of_one_generator(monkeypatch, seed):
    """Every proof play_round builds is, byte for byte, validator v's rule on row v of
    default_rng(seed)'s (K, d) standard-normal block and then its (K, d) uniform block:
    seeds of one word, of two and of three, and all five behaviours. Changing one
    validator's behaviour leaves every other validator's proof bytes as they were."""
    cfg = CommitteeConfig(K=12, f=4, d=6, round_duration_s=60.0)  # 11 proofs: a quorum
    lo, hi = cfg.vector_lo, cfg.vector_hi
    observers = [Honest()] * 7 + [Honest(0.02), OffsetVector(0.3), RandomVector(),
                                  ColludingClone(), Silent()]
    bases = [np.linspace(59.9, 60.1, cfg.d) + 0.001 * v for v in range(cfg.K)]
    submitted = _submitted(monkeypatch)
    play_round(observers, bases, cfg, round_no=3, seed=seed)

    rng = np.random.default_rng(seed)
    normal = rng.standard_normal((cfg.K, cfg.d))
    uniform = rng.uniform(lo, hi, (cfg.K, cfg.d))  # the uniform block, through Generator.uniform
    expected = [normal[v] * 0.005 + bases[v] for v in range(7)]
    expected += [normal[7] * 0.02 + bases[7], normal[8] * 0.005 + bases[8] + 0.3,
                 uniform[9], np.full(cfg.d, 60.9)]
    assert [t.validator_id for t in submitted] == list(range(11))
    for got, want in zip(submitted, expected):
        assert got.round == 3
        assert got.enf_vector.tobytes() == np.clip(want, lo, hi).tobytes()

    changed = observers[:8] + [RandomVector()] + observers[9:]  # validator 8: offset -> random
    first = {t.validator_id: t.enf_vector.tobytes() for t in submitted}
    submitted.clear()
    play_round(changed, bases, cfg, round_no=3, seed=seed)
    again = {t.validator_id: t.enf_vector.tobytes() for t in submitted}
    assert again.keys() == first.keys()
    assert [v for v in first if again[v] != first[v]] == [8]


@pytest.mark.parametrize("seed, round_no", [(7, 0), (7, 3), (123, 1)])
def test_round_proof_noise_does_not_follow_the_truth(monkeypatch, seed, round_no):
    """No honest proof's noise (proof - truth) correlates with the truth's own
    increments, the first normal(size=d) draw of default_rng([seed, round_no])."""
    cfg = CommitteeConfig(K=5, f=1, d=360, round_duration_s=360.0)
    grid = GridConfig()
    submitted = _submitted(monkeypatch)
    run_round(grid, [Honest(0.005)] * cfg.K, cfg, seed=seed, round_no=round_no)
    truth = gen_enf_truth(dataclasses.replace(grid, seed=[seed, round_no]),
                          cfg.round_duration_s, cfg.round_duration_s / cfg.d)
    increments = np.random.default_rng([seed, round_no]).normal(size=cfg.d)
    assert len(submitted) == cfg.K
    for t in submitted:
        r = np.corrcoef(t.enf_vector - truth.values_hz, increments)[0, 1]
        assert abs(r) <= 0.3, (t.validator_id, r)


def test_play_round_takes_an_int_seed_as_a_one_entry_list():
    cfg = CommitteeConfig(K=5, f=1, d=4)
    observers, bases = [Honest()] * 5, [np.full(4, 60.0)] * 5
    got = play_round(observers, bases, cfg, 0, 5)
    want = play_round(observers, bases, cfg, 0, [5])
    assert got.scores == want.scores
    assert got.ground_truth_id == want.ground_truth_id
    assert got.ground_truth_enf.values_hz.tobytes() == want.ground_truth_enf.values_hz.tobytes()


def _no_draws(*args):
    raise AssertionError("a generator was made before the inputs were checked")


@pytest.mark.parametrize(
    "bases, seed, match",
    [
        ([np.full(1, 60.0)] * CFG.K, [9, 2], r"bases\[0\] must be 1-D of length d=4"),
        ([np.full(CFG.d, 60.0)] * (CFG.K - 1), [9, 2], "need exactly K=5 bases, got 4"),
        ([np.full(CFG.d, 60.0)] * CFG.K, [9, -2], "seed must be >= 0"),
        ([np.full(CFG.d, 60.0)] * CFG.K, -5, "seed must be >= 0"),
    ],
    ids=["length-1 base", "K-1 bases", "negative seed entry", "negative int seed"],
)
def test_play_round_rejects_bad_inputs_before_any_draw(monkeypatch, bases, seed, match):
    """A base numpy would broadcast, a missing base and a seed numpy rejects all
    raise InvalidArgumentError before the round's generator is made."""
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(InvalidArgumentError, match=match):
        play_round([Honest()] * CFG.K, bases, CFG, round_no=0, seed=seed)


def test_round_is_deterministic():
    grid = GridConfig(seed=0)
    obs = [Honest(), Honest(), Honest(), Honest(), OffsetVector(0.8)]
    r1 = run_round(grid, obs, CFG, seed=7)
    r2 = run_round(grid, obs, CFG, seed=7)
    assert r1.ground_truth_id == r2.ground_truth_id
    np.testing.assert_array_equal(r1.ground_truth_enf.values_hz, r2.ground_truth_enf.values_hz)
    assert r1.scores == r2.scores


def test_round_silent_validator_shrinks_pool():
    cfg6 = CommitteeConfig(K=6, f=1, d=4, round_duration_s=60.0)
    rr = run_round(GridConfig(seed=1), [Honest()] * 5 + [Silent()], cfg6, seed=3)
    assert set(rr.scores) == set(range(5))
    assert rr.honest_agreement


def test_round_silent_below_quorum_raises():
    with pytest.raises(QuorumError):
        run_round(GridConfig(seed=1), [Honest()] * 4 + [Silent()], CFG, seed=3)


def test_round_rejects_too_many_byzantines():
    obs = [Honest(), Honest(), Honest(), OffsetVector(), OffsetVector()]
    with pytest.raises(InvalidArgumentError):
        run_round(GridConfig(seed=1), obs, CFG, seed=3)
    with pytest.raises(InvalidArgumentError):
        run_round(GridConfig(seed=1), [Honest()] * 4, CFG, seed=3)  # wrong K


def test_round_rejects_a_seed_or_round_that_is_not_whole():
    for kw in (dict(seed=1.5), dict(seed=-1), dict(seed=1, round_no=0.5)):
        with pytest.raises(InvalidArgumentError, match="must be >= 0 and an integer"):
            run_round(GridConfig(), [Honest()] * 5, CFG, **kw)


def test_round_rejects_a_grid_of_another_nominal():
    # a 50 Hz grid voted on in the 60 +- 1 Hz window clips every proof to 59 Hz
    with pytest.raises(InvalidArgumentError, match="nominal_hz"):
        run_round(GridConfig(nominal_hz=50.0), [Honest()] * 5, CommitteeConfig(K=5, f=1, d=10),
                  seed=0)


def test_random_vector_is_clamped_and_never_wins():
    cfg = CommitteeConfig(K=5, f=1, d=16, round_duration_s=60.0)
    rng = np.random.default_rng(2)
    t = make_transaction(RandomVector(), np.full(16, 60.0), 4, 0, rng.standard_normal(16),
                         rng.random(16), cfg)
    assert np.all(t.enf_vector >= cfg.vector_lo) and np.all(t.enf_vector <= cfg.vector_hi)
    wins = 0
    for seed in range(200):
        rr = run_round(GridConfig(seed=0), [Honest()] * 4 + [RandomVector()], cfg, seed=seed)
        wins += rr.ground_truth_id == 4
    assert wins == 0


def test_colluding_clone_never_selected():
    cfg = CommitteeConfig(K=5, f=1, d=16, round_duration_s=60.0)
    obs = [Honest()] * 4 + [ColludingClone(60.9)]
    for seed in range(1000):
        rr = run_round(GridConfig(seed=0), obs, cfg, seed=seed)
        assert rr.ground_truth_id != 4
        assert rr.honest_agreement


def test_offset_transaction_is_clamped_not_rejected():
    cfg = CommitteeConfig(K=5, f=1, d=8, round_duration_s=60.0)
    rng = np.random.default_rng(0)
    t = make_transaction(OffsetVector(1.0), np.full(8, 60.02), 1, 0, rng.standard_normal(8),
                         rng.random(8), cfg)
    assert np.all(t.enf_vector <= cfg.vector_hi)
    res = validate_transaction(t, TransactionPool(round=0), cfg)
    assert res.accepted


CFG6 = CommitteeConfig(K=6, f=1, d=4, round_duration_s=60.0)


def spread_txs(round_no=0):
    """Six proofs at distinct distances from 60 Hz, so no two scores tie."""
    return [tx(vid=v, rnd=round_no, vec=np.full(4, 60.0 + 0.01 * v * v)) for v in range(6)]


def test_kernel_full_delivery_matches_manual_round():
    rr = consensus_round(spread_txs(), CFG6, 0, honest_ids=range(6))
    pool = pool_from([t.enf_vector for t in spread_txs()])
    table = compute_scores(pool, CFG6)
    winner, vec = select_ground_truth(table, pool)
    assert rr.scores == table
    assert rr.ground_truth_id == winner
    np.testing.assert_array_equal(rr.ground_truth_enf.values_hz, vec)
    assert rr.ground_truth_enf.step_s == CFG6.round_duration_s / CFG6.d
    assert rr.honest_agreement


def test_kernel_admits_in_validator_order_and_rejects():
    txs = spread_txs(round_no=2)[::-1]
    txs.append(tx(vid=9, rnd=2))  # not a committee member
    txs.append(tx(vid=3, rnd=2, vec=np.full(4, 60.5)))  # duplicate of validator 3
    rr = consensus_round(txs, CFG6, 2, honest_ids=range(6))
    assert set(rr.scores) == set(range(6))
    ref = consensus_round(spread_txs(round_no=2), CFG6, 2, honest_ids=range(6))
    assert rr.scores == ref.scores


def test_kernel_agreement_fails_when_views_differ():
    """An honest validator that never received the winner's proof picks another."""
    full = consensus_round(spread_txs(), CFG6, 0, honest_ids=range(6))
    assert full.honest_agreement
    missing = TransactionPool(round=0)
    for t in spread_txs():
        if t.validator_id != full.ground_truth_id:
            missing.insert(t)
    rr = consensus_round(spread_txs(), CFG6, 0, honest_ids=range(6), views={5: missing})
    assert rr.ground_truth_id == full.ground_truth_id
    assert rr.scores == full.scores
    assert rr.honest_agreement is False


def test_kernel_agreement_fails_on_equivocated_winner():
    """Same winner id, different E* vector in one view: no agreement."""
    full = consensus_round(spread_txs(), CFG6, 0, honest_ids=range(6))
    winner = full.ground_truth_id
    forked = pool_from([t.enf_vector for t in spread_txs()])
    forked.entries[winner].enf_vector = forked.entries[winner].enf_vector + 1e-6
    assert select_ground_truth(compute_scores(forked, CFG6), forked)[0] == winner
    rr = consensus_round(spread_txs(), CFG6, 0, honest_ids=range(6), views={2: forked})
    assert rr.ground_truth_id == winner
    assert rr.honest_agreement is False


def counting_compute_scores(monkeypatch):
    calls = []
    real = poenf_consensus.compute_scores

    def counted(pool, cfg):
        calls.append(len(pool))
        return real(pool, cfg)

    monkeypatch.setattr(poenf_consensus, "compute_scores", counted)
    return calls


def test_kernel_scores_each_distinct_view_once(monkeypatch):
    calls = counting_compute_scores(monkeypatch)
    copy = pool_from([t.enf_vector for t in spread_txs()])  # equal content, own object
    views = {1: copy, 2: copy, 4: copy}
    rr = consensus_round(spread_txs(), CFG6, 0, honest_ids=range(6), views=views)
    assert rr.honest_agreement
    assert calls == [6, 6]  # the shared pool, then the one distinct copy


def test_run_round_scores_once_under_full_delivery(monkeypatch):
    """Regression guard: agreement must not rescore the shared pool per validator."""
    calls = counting_compute_scores(monkeypatch)
    cfg = CommitteeConfig(K=11, f=3, d=16, round_duration_s=60.0)
    obs = [Honest()] * 8 + [OffsetVector(1.0), RandomVector(), Silent()]
    for r in range(3):
        calls.clear()
        rr = run_round(GridConfig(seed=0), obs, cfg, seed=5, round_no=r)
        assert rr.honest_agreement
        assert calls == [10]


def test_simulate_rounds_summary():
    grid = GridConfig(seed=4)
    obs = [Honest()] * 4 + [OffsetVector(1.0)]
    results, summary = simulate_rounds(grid, obs, CFG, rounds=20, seed=99)
    assert len(results) == 20
    assert [r.round for r in results] == list(range(20))
    assert summary["agreement_rate"] == 1.0
    assert summary["honest_win_rate"] == 1.0
    with pytest.raises(InvalidArgumentError, match="rounds must be >= 1"):
        simulate_rounds(grid, obs, CFG, rounds=0, seed=99)
    with pytest.raises(InvalidArgumentError, match="and an integer"):
        simulate_rounds(grid, obs, CFG, rounds=2.0, seed=99)


def test_parse_behavior_specs():
    assert parse_behavior("honest") == Honest(0.005)
    assert parse_behavior("honest:0.01") == Honest(0.01)
    assert parse_behavior("offset:0.5") == OffsetVector(0.5)
    assert isinstance(parse_behavior("random"), RandomVector)
    assert isinstance(parse_behavior("silent"), Silent)
    assert parse_behavior("clone:60.9") == ColludingClone(60.9)
    assert parse_behavior("clone") == ColludingClone()
    with pytest.raises(InvalidArgumentError):
        parse_behavior("mystery")
    for spec in ("random:5", "silent:x", "honest:-1", "honest:nan", "offset:nan", "offset:inf",
                 "offset:-inf", "clone:inf", "clone:nan"):
        with pytest.raises(InvalidArgumentError):
            parse_behavior(spec)


def test_clone_scalar_target_broadcasts():
    cfg = CommitteeConfig(K=5, f=1, d=8, round_duration_s=60.0)
    rng = np.random.default_rng(0)
    normal, uniform = rng.standard_normal(8), rng.random(8)
    t = make_transaction(parse_behavior("clone:60.9"), np.zeros(8), 3, 0, normal, uniform, cfg)
    np.testing.assert_array_equal(t.enf_vector, np.full(8, 60.9))
    with pytest.raises(InvalidArgumentError, match="unknown behavior"):
        make_transaction("clone", np.zeros(8), 3, 0, normal, uniform, cfg)


def test_committee_and_behaviors_reject_numbers_of_the_wrong_kind():
    for kw in (dict(nominal_hz=np.nan), dict(nominal_hz="60"), dict(nominal_hz=0.0),
               dict(round_duration_s="60")):
        with pytest.raises(InvalidArgumentError, match=f"{next(iter(kw))} must be finite"):
            CommitteeConfig(K=5, f=1, d=4, **kw)
    for behavior in (lambda: OffsetVector("1"), lambda: OffsetVector(np.inf),
                     lambda: ColludingClone(np.nan), lambda: ColludingClone("60.9"),
                     lambda: Honest(None)):
        with pytest.raises(InvalidArgumentError, match="must be (finite|a finite number)"):
            behavior()
    assert ColludingClone().target_hz is None and OffsetVector(-2).delta_hz == -2


def test_committee_config_quorum_arithmetic():
    CommitteeConfig(K=9, f=3, d=4)  # exactly 2f+3
    with pytest.raises(InvalidArgumentError):
        CommitteeConfig(K=8, f=3, d=4)
    with pytest.raises(InvalidArgumentError):
        CommitteeConfig(K=5, f=-1, d=4)
    with pytest.raises(InvalidArgumentError):
        CommitteeConfig(K=5, f=1, d=1)
    for kw in (dict(K=5.0), dict(f=1.0), dict(d=4.5)):
        with pytest.raises(InvalidArgumentError, match="and an integer"):
            CommitteeConfig(**{"K": 5, "f": 1, "d": 4, **kw})
