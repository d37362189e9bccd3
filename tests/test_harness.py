"""End-to-end scenario and evaluation-harness tests. Sizes are kept small;
the full-scale corpus numbers live in the acceptance suite."""

import dataclasses

import numpy as np
import pytest

from enfnet import (
    CommitteeConfig,
    ConfigurationError,
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
    with pytest.raises(ConfigurationError):
        small_scenario(byzantine=2)  # exceeds committee f
    with pytest.raises(ConfigurationError):
        small_scenario(participants=4)  # committee K exceeds participants
    with pytest.raises(ConfigurationError):
        small_scenario(deepfaked_participants={9})
    with pytest.raises(ConfigurationError):
        small_scenario(rounds=0)
    # a forgery keeps 5 s clear of both ends, so a 60 s conference fits at most 50 s
    for flen in (56.0, -5.0, 0.0):
        with pytest.raises(ConfigurationError, match="forgery length"):
            small_scenario(rounds=1, forgery_len_s=flen)
        small_scenario(rounds=1, forgery_len_s=flen, deepfaked_participants=set())
    small_scenario(rounds=1, forgery_len_s=50.0)


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
    with pytest.raises(ConfigurationError, match="nominal_hz"):
        small_scenario(grid=GridConfig(nominal_hz=50.0, max_dev_hz=0.5))
    with pytest.raises(ConfigurationError, match="nominal_hz"):
        small_scenario(committee=CommitteeConfig(K=5, f=1, d=60, nominal_hz=50.0))
    with pytest.raises(ConfigurationError, match="nominal_hz"):
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
    with pytest.raises(InvalidArgumentError):
        bench_consensus([10, 20], d=64, trials=1, seed=0)


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
    with pytest.raises(ConfigurationError):
        corpus_cfg(**kw)
    corpus_cfg(duration_s=86.0)


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


def test_corpus_is_deterministic():
    a = make_detection_corpus(corpus_cfg())
    b = make_detection_corpus(corpus_cfg())
    for ea, eb in zip(a, b):
        np.testing.assert_array_equal(ea.local.values_hz, eb.local.values_hz)
        assert ea.injected == eb.injected
