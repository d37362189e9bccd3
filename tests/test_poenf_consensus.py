"""Committee consensus tests: score arithmetic against a brute-force oracle,
admission-control ordering, quorum bounds, and byzantine-resilience
properties over seeded rounds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enfnet import poenf_consensus
from enfnet import (
    ColludingClone,
    CommitteeConfig,
    ConfigurationError,
    EnfTransaction,
    GridConfig,
    Honest,
    OffsetVector,
    QuorumError,
    RandomVector,
    RejectReason,
    Silent,
    TransactionPool,
    compute_scores,
    consensus_round,
    gen_enf_truth,
    make_transaction,
    parse_behavior,
    play_round,
    run_round,
    select_ground_truth,
    simulate_rounds,
    validate_transaction,
)

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


@pytest.mark.parametrize(
    "vec",
    [
        np.full(3, 60.0),  # wrong length
        np.full(5, 60.0),
        np.array([60.0, np.nan, 60.0, 60.0]),
        np.array([60.0, np.inf, 60.0, 60.0]),
        np.full(4, 61.5),  # outside nominal +- 1
        np.full(4, 58.9),
    ],
)
def test_validate_malformed_vectors(vec):
    pool = TransactionPool(round=0)
    r = validate_transaction(tx(vec=vec), pool, CFG)
    assert r.reason is RejectReason.Malformed


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
    with pytest.raises(ConfigurationError):
        run_round(GridConfig(seed=1), obs, CFG, seed=3)
    with pytest.raises(ConfigurationError):
        run_round(GridConfig(seed=1), [Honest()] * 4, CFG, seed=3)  # wrong K


def test_random_vector_is_clamped_and_never_wins():
    cfg = CommitteeConfig(K=5, f=1, d=16, round_duration_s=60.0)
    rng = np.random.default_rng(2)
    t = make_transaction(RandomVector(), np.full(16, 60.0), 4, 0, rng, cfg)
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
    t = make_transaction(OffsetVector(1.0), np.full(8, 60.02), 1, 0, rng, cfg)
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


def test_parse_behavior_specs():
    assert parse_behavior("honest") == Honest(0.005)
    assert parse_behavior("honest:0.01") == Honest(0.01)
    assert parse_behavior("offset:0.5") == OffsetVector(0.5)
    assert isinstance(parse_behavior("random"), RandomVector)
    assert isinstance(parse_behavior("silent"), Silent)
    assert parse_behavior("clone:60.9") == ColludingClone(60.9)
    assert parse_behavior("clone") == ColludingClone()
    with pytest.raises(ConfigurationError):
        parse_behavior("mystery")
    for spec in ("random:5", "silent:x", "honest:-1", "honest:nan", "offset:nan", "offset:inf",
                 "offset:-inf", "clone:inf", "clone:nan"):
        with pytest.raises(ConfigurationError):
            parse_behavior(spec)


def test_clone_scalar_target_broadcasts():
    cfg = CommitteeConfig(K=5, f=1, d=8, round_duration_s=60.0)
    rng = np.random.default_rng(0)
    t = make_transaction(parse_behavior("clone:60.9"), np.zeros(8), 3, 0, rng, cfg)
    np.testing.assert_array_equal(t.enf_vector, np.full(8, 60.9))


def test_committee_config_quorum_arithmetic():
    CommitteeConfig(K=9, f=3, d=4)  # exactly 2f+3
    with pytest.raises(ConfigurationError):
        CommitteeConfig(K=8, f=3, d=4)
    with pytest.raises(ConfigurationError):
        CommitteeConfig(K=5, f=-1, d=4)
    with pytest.raises(ConfigurationError):
        CommitteeConfig(K=5, f=1, d=1)
