"""End-to-end scenario and evaluation-harness tests. Sizes are kept small;
the full-scale corpus numbers live in the acceptance suite."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from enfnet import harness
from enfnet import (
    CommitteeConfig,
    CorpusConfig,
    DetectorConfig,
    EstimatorConfig,
    GridConfig,
    InvalidArgumentError,
    ScenarioConfig,
    Verdict,
    bench_consensus,
    bench_d_ratio,
    embed_audio,
    estimate_enf,
    gen_enf_truth,
    localization_accuracy,
    make_detection_corpus,
    roc_sweep,
    run_scenario,
    stream_score,
)


def small_scenario(seed=0, **kw):
    base = dict(
        participants=5,
        byzantine=0,
        deepfaked_participants={4},
        # wide clamp: a railed (constant) truth carries no fingerprint and
        # degrades Pearson windows, which is a physics limit, not a detector bug
        grid=GridConfig(drift_std_hz=0.005, max_dev_hz=0.5),
        estimator=EstimatorConfig(stft_window_s=8.0, stft_overlap_frac=0.875),
        detector=DetectorConfig(window_s=16.0, shift_s=5.0),
        committee=CommitteeConfig(K=5, f=1, d=60, round_duration_s=60.0),
        rounds=2,
        seed=seed,
        snr_db=30.0,
        forgery_len_s=30.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_scenario_flags_the_deepfaked_participant():
    out = run_scenario(small_scenario(seed=3))
    s = out["summary"]
    assert (s["tp"], s["fp"], s["fn"]) == (1, 0, 0)
    assert s["agreement_rate"] == 1.0
    assert s["honest_win_rate"] == 1.0
    assert out["reports"][4].overall_verdict is Verdict.Fake
    assert "4" in s["forged_intervals_truth"]


def test_scenario_no_false_positives_across_seeds():
    for seed in range(10):
        s = run_scenario(small_scenario(seed=seed))["summary"]
        assert s["fp"] == 0, f"seed {seed} produced false positives"
        assert s["tp"] + s["fp"] + s["tn"] + s["fn"] == s["participants"]


def test_scenario_two_deepfaked_among_ten():
    cfg = small_scenario(
        seed=5,
        participants=10,
        deepfaked_participants={7, 9},
        committee=CommitteeConfig(K=5, f=1, d=60, round_duration_s=60.0),
    )
    s = run_scenario(cfg)["summary"]
    assert s["tp"] == 2 and s["fn"] == 0
    assert s["fp"] == 0


def test_scenario_quorum_of_fakes_warning():
    # deepfaked + byzantine inside a K=5 committee leaves 3 honest < 2f+3
    cfg = small_scenario(seed=1, byzantine=1, deepfaked_participants={0})
    s = run_scenario(cfg)["summary"]
    assert s["quorum_of_fakes_warning"] is True
    s2 = run_scenario(small_scenario(seed=1, deepfaked_participants=set()))["summary"]
    assert s2["quorum_of_fakes_warning"] is False


def test_scenario_is_deterministic():
    a = run_scenario(small_scenario(seed=11))
    b = run_scenario(small_scenario(seed=11))
    assert a["summary"] == b["summary"]
    for p in a["reports"]:
        ca = [w.corr for w in a["reports"][p].windows]
        cb = [w.corr for w in b["reports"][p].windows]
        assert ca == cb


def test_scenario_config_invariants():
    with pytest.raises(InvalidArgumentError):
        small_scenario(byzantine=2)  # exceeds committee f
    with pytest.raises(InvalidArgumentError):
        small_scenario(participants=4)  # committee K exceeds participants
    with pytest.raises(InvalidArgumentError):
        small_scenario(deepfaked_participants={9})
    with pytest.raises(InvalidArgumentError):
        small_scenario(rounds=0)
    # a forgery keeps 5 s clear of both ends, so a 60 s conference fits at most 50 s
    for flen in (56.0, -5.0, 0.0):
        with pytest.raises(InvalidArgumentError, match="forgery length"):
            small_scenario(rounds=1, forgery_len_s=flen)
        small_scenario(rounds=1, forgery_len_s=flen, deepfaked_participants=set())
    small_scenario(rounds=1, forgery_len_s=50.0)
    # unset, the forgery lasts a quarter of the conference, up to 45 s
    assert small_scenario(rounds=1, forgery_len_s=None).forgery_span_s == 15.0
    assert small_scenario(rounds=4, forgery_len_s=None).forgery_span_s == 45.0


def test_scenario_estar_is_the_winners_estimate_on_its_own_clock():
    """Proof i of round r is the ENF at r*D + i*D/d, the times E* reports: a
    noiseless honest committee's E* is the winner's estimate read there, bit for bit."""
    cfg = small_scenario(seed=3, deepfaked_participants=set())
    grid = dataclasses.replace(cfg.grid, seed=[cfg.seed, 0])
    truth = gen_enf_truth(grid, cfg.rounds * cfg.committee.round_duration_s, step_s=1.0)
    for rr in run_scenario(cfg)["rounds"]:
        stream = embed_audio(
            truth, cfg.sample_rate_hz, cfg.harmonics, cfg.snr_db,
            seed=[cfg.seed, 1, rr.ground_truth_id], grid=grid,
        )
        est = estimate_enf(stream, cfg.estimator)
        estar = rr.ground_truth_enf
        assert estar.values_hz.tobytes() == est.at(estar.times()).tobytes()


def test_scenario_rejects_disagreeing_nominal_hz():
    # a 50 Hz grid estimated and voted on around 60 Hz flags every participant
    with pytest.raises(InvalidArgumentError, match="nominal_hz"):
        small_scenario(grid=GridConfig(nominal_hz=50.0, max_dev_hz=0.5))
    with pytest.raises(InvalidArgumentError, match="nominal_hz"):
        small_scenario(committee=CommitteeConfig(K=5, f=1, d=60, nominal_hz=50.0))
    with pytest.raises(InvalidArgumentError, match="nominal_hz"):
        small_scenario(estimator=EstimatorConfig(nominal_hz=50.0))


def test_scenario_at_50_hz_flags_only_the_deepfaked_participant():
    cfg = small_scenario(
        seed=3,
        grid=GridConfig(nominal_hz=50.0, drift_std_hz=0.005, max_dev_hz=0.5),
        estimator=EstimatorConfig(nominal_hz=50.0, stft_window_s=8.0, stft_overlap_frac=0.875),
        committee=CommitteeConfig(K=5, f=1, d=60, round_duration_s=60.0, nominal_hz=50.0),
    )
    out = run_scenario(cfg)
    s = out["summary"]
    assert (s["tp"], s["fp"], s["fn"]) == (1, 0, 0)
    assert out["reports"][4].overall_verdict is Verdict.Fake
    for rr in out["rounds"]:
        assert np.all(np.abs(rr.ground_truth_enf.values_hz - 50.0) <= 0.5)


# ---------------------------------------------------------------------------
# benchmarks


def test_bench_latency_grows_with_committee():
    res = bench_consensus([8, 64], d=64, trials=3, seed=0)
    assert res.k_list == [8, 64]
    assert res.latencies_s[1] > res.latencies_s[0]
    assert res.slope > 0.5


def test_bench_d_scaling_is_roughly_linear():
    ratio = bench_d_ratio(K=50, d=512, trials=5, seed=0)
    assert 1.2 < ratio < 3.5


def test_bench_argument_validation():
    with pytest.raises(InvalidArgumentError):
        bench_consensus([10], d=64, trials=3, seed=0)
    # one distinct size leaves the log-log fit a single x
    with pytest.raises(InvalidArgumentError, match="distinct"):
        bench_consensus([10, 10], d=64, trials=3, seed=0)
    with pytest.raises(InvalidArgumentError):
        bench_consensus([10, 20], d=64, trials=1, seed=0)
    with pytest.raises(InvalidArgumentError, match="trials"):
        bench_d_ratio(K=10, d=64, trials=2, seed=0)
    with pytest.raises(InvalidArgumentError, match="trials must be >= 3 and an integer"):
        bench_d_ratio(K=10, d=64, trials=3.5, seed=0)


def test_timing_rule_samples_warmed_pools_in_turn(monkeypatch):
    """Under a fake clock, each pass visits the pools in order; a visit is one
    warm-up call, then one sample that stops at the first call that reaches
    _MIN_SAMPLE_S, valued at its mean time per call. A committee size's
    latency is its best sample, and the d-doubling ratio the median over
    passes of the ratio within a pass."""
    span = harness._MIN_SAMPLE_S
    # per-call cost of each pool in each pass, in units of 2**-12 s so that the
    # fake clock sums exactly; odd calls of a visit cost double, the warm-up 1 s
    units = {(8, 16): (3, 1, 2), (16, 16): (4, 6, 5), (32, 16): (48, 40, 44),
             (8, 32): (7, 1, 5)}
    now, log, passes = [0.0], [], {}  # log: (pool, call of its visit, cost)

    def fake_scores(pool, cfg):
        key = (cfg.K, cfg.d)
        j = log[-1][1] + 1 if log and log[-1][0] == key else 0
        passes[key] = passes.get(key, -1) + (j == 0)
        cost = 1.0 if j == 0 else units[key][passes[key]] * 2.0**-12 * (1 + j % 2)
        now[0] += cost
        log.append((key, j, cost))
        return {0: 0.0}

    monkeypatch.setattr(harness, "compute_scores", fake_scores)
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def sample_means(pools):
        """Each visit's sample mean as the log shows it, one row per pass."""
        visits = [(key, [c for _, _, c in calls])
                  for key, calls in itertools.groupby(log, key=lambda e: e[0])]
        assert [key for key, _ in visits] == pools * 3
        means = []
        for _, (warm, *sample) in visits:
            assert warm == 1.0 and sample
            assert sum(sample[:-1]) < span <= sum(sample)
            means.append(sum(sample) / len(sample))
        log.clear()
        passes.clear()
        return np.reshape(means, (3, len(pools)))

    res = bench_consensus([8, 16, 32], d=16, trials=3, seed=0)
    assert res.latencies_s == sample_means([(8, 16), (16, 16), (32, 16)]).min(axis=0).tolist()
    ratio = bench_d_ratio(K=8, d=16, trials=3, seed=0)
    per_pass = sample_means([(8, 16), (8, 32)])
    assert ratio == float(np.median(per_pass[:, 1] / per_pass[:, 0]))
    assert ratio != per_pass[:, 1].min() / per_pass[:, 0].min()  # not the ratio of the bests


# ---------------------------------------------------------------------------
# corpus / ROC / localization


def corpus_cfg(**kw):
    base = dict(
        n_streams=8,
        duration_s=120.0,
        snr_db=20.0,
        estimator=EstimatorConfig(stft_window_s=8.0, stft_overlap_frac=0.875),
        seed=42,
    )
    base.update(kw)
    return CorpusConfig(**base)


@pytest.mark.parametrize(
    "kw",
    [
        dict(duration_s=85.0),  # forgeries up to 45 s need 86 s
    ],
)
def test_corpus_rejects_forgery_bounds_it_cannot_place(kw):
    with pytest.raises(InvalidArgumentError):
        corpus_cfg(**kw)
    corpus_cfg(duration_s=86.0)


@pytest.mark.parametrize(
    "kw, message",
    [(dict(duration_s=np.nan), "duration_s, for forgeries up to 45.0 s, must be finite"),
     (dict(duration_s="120"), "duration_s, for forgeries up to 45.0 s, must be finite"),
     (dict(snr_db="10"), r"snr_db, unless \+inf, must be a finite number"),
     (dict(snr_db=np.nan), r"snr_db, unless \+inf, must be a finite number"),
     (dict(sample_rate_hz=None), "sample_rate_hz must be finite and > 0"),
     (dict(harmonics=[(1, "x")]), "harmonic amplitudes must be a finite number"),
     (dict(harmonics=[(1, 1.0), (1, 0.5)]), "harmonics must be one or more distinct")],
)
def test_corpus_and_scenario_check_their_hum_fields_when_built(kw, message):
    """Checked where the config is built, before any stream is synthesized. The
    corpus's sample_rate_hz and harmonics are constants, so only the scenario sets them."""
    if kw.keys() <= {f.name for f in dataclasses.fields(CorpusConfig)}:
        with pytest.raises(InvalidArgumentError, match=message):
            corpus_cfg(**kw)
    if "duration_s" not in kw:
        with pytest.raises(InvalidArgumentError, match=message):
            small_scenario(**kw)


@pytest.mark.parametrize("name", ["sample_rate_hz", "harmonics", "shift_s"])
def test_corpus_refuses_its_constants_as_keywords(name):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        corpus_cfg(**{name: getattr(CorpusConfig, name)})
    assert CorpusConfig.shift_s == DetectorConfig().shift_s


def test_an_snr_of_plus_inf_is_noiseless_not_rejected():
    assert corpus_cfg(snr_db=np.inf).snr_db == np.inf
    assert small_scenario(snr_db=np.inf).snr_db == np.inf


@pytest.mark.parametrize(
    "kw, field",
    [(dict(n_streams=4.0), "n_streams"), (dict(n_streams=-1), "n_streams"),
     (dict(seed=-1), "seed"), (dict(seed=1.5), "seed")],
)
def test_corpus_rejects_whole_number_fields_that_are_not(kw, field):
    with pytest.raises(InvalidArgumentError, match=f"{field} must be >= 0 and an integer"):
        corpus_cfg(**kw)


def test_corpus_labels_and_alignment():
    entries = make_detection_corpus(corpus_cfg())
    assert len(entries) == 8
    assert [e.forged for e in entries] == [False, True] * 4
    for e in entries:
        assert len(e.local) == len(e.reference)
        assert e.local.start_time_s == e.reference.start_time_s
        if e.forged:
            a, b = e.injected
            assert 0 < a < b < 120.0
        else:
            assert e.injected is None


def test_stream_scores_separate_classes():
    entries = make_detection_corpus(corpus_cfg())
    det = DetectorConfig(window_s=16.0, shift_s=5.0)
    genuine = [stream_score(e, det) for e in entries if not e.forged]
    fake = [stream_score(e, det) for e in entries if e.forged]
    assert min(genuine) > max(fake)


def test_roc_sweep_structure_and_quality():
    out = roc_sweep([8.0, 16.0], corpus_cfg(n_streams=12, snr_db=10.0))
    assert [r["window_s"] for r in out] == [8.0, 16.0]
    for r in out:
        assert 0.7 <= r["auc"] <= 1.0
        assert len(r["points"]) >= 3


def test_corpus_rejects_disagreeing_nominal_hz():
    # a 50 Hz corpus estimated around 60 Hz reads every stream 10 Hz off its reference
    with pytest.raises(InvalidArgumentError, match="nominal_hz"):
        corpus_cfg(grid=GridConfig(nominal_hz=50.0, max_dev_hz=0.5))
    corpus_cfg(
        grid=GridConfig(nominal_hz=50.0, max_dev_hz=0.5),
        estimator=EstimatorConfig(nominal_hz=50.0, stft_window_s=8.0, stft_overlap_frac=0.875),
    )


@pytest.mark.parametrize("n_streams", [0, 1])
def test_roc_sweep_refuses_a_single_class_corpus_before_building_it(n_streams, monkeypatch):
    def build(cc):
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(harness, "make_detection_corpus", build)
    with pytest.raises(InvalidArgumentError, match="single-class"):
        roc_sweep([16.0], corpus_cfg(n_streams=n_streams))


@pytest.mark.parametrize("windows", [[3.0], [8.0, float("nan")]], ids=["3", "8,nan"])
def test_roc_sweep_checks_every_window_before_building_the_corpus(windows, monkeypatch):
    def build(cc):
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(harness, "make_detection_corpus", build)
    with pytest.raises(InvalidArgumentError, match="window_s > shift_s"):
        roc_sweep(windows, corpus_cfg())


def test_roc_sweep_argument_validation():
    with pytest.raises(InvalidArgumentError):
        roc_sweep([], corpus_cfg())
    with pytest.raises(InvalidArgumentError):
        roc_sweep([200.0], corpus_cfg())  # window outlives the streams
    with pytest.raises(InvalidArgumentError):
        roc_sweep([16.0], corpus_cfg(n_streams=1))  # single-class corpus


def test_localization_accuracy_smoke():
    cc = corpus_cfg(
        duration_s=150.0,
        grid=GridConfig(drift_std_hz=0.005, max_dev_hz=0.5),
        estimator=EstimatorConfig(stft_window_s=4.0, stft_overlap_frac=0.75),
    )
    entries = make_detection_corpus(cc)
    det = DetectorConfig(window_s=16.0, shift_s=5.0)
    hits, total, errors = localization_accuracy(entries, det)
    assert total == 4
    assert len(errors) == total
    assert hits >= 3
    for ds, de in errors:
        if np.isfinite(ds):
            assert abs(ds) < 20 and abs(de) < 20
    # a forged entry whose estimate matches its reference flags nothing: a
    # miss with NaN boundary errors
    forged = next(e for e in entries if e.forged)
    clean = dataclasses.replace(forged, local=forged.reference)
    hits, total, errors = localization_accuracy([clean], det)
    assert (hits, total) == (0, 1) and np.all(np.isnan(errors))


def test_corpus_is_deterministic():
    a = make_detection_corpus(corpus_cfg())
    b = make_detection_corpus(corpus_cfg())
    for ea, eb in zip(a, b):
        np.testing.assert_array_equal(ea.local.values_hz, eb.local.values_hz)
        assert ea.injected == eb.injected


def _entry_bytes(e):
    return (e.local.values_hz.tobytes(), e.reference.values_hz.tobytes(),
            e.local.start_time_s, e.local.step_s, e.reference.start_time_s,
            e.reference.step_s, e.injected)


def test_corpus_entry_depends_only_on_the_seed_and_its_index():
    """A shorter corpus is a prefix of a longer one, and entry i can be built alone."""
    short = make_detection_corpus(corpus_cfg(n_streams=3))
    long = make_detection_corpus(corpus_cfg(n_streams=5))
    assert [_entry_bytes(e) for e in short] == [_entry_bytes(e) for e in long[:3]]
    alone = harness._corpus_entry(corpus_cfg(n_streams=5), 3, forged=True)
    assert _entry_bytes(alone) == _entry_bytes(long[3])
    assert long[3].forged
