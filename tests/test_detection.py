"""Detector tests: exact correlation identities, window bookkeeping, interval
merging, and ROC arithmetic against hand-computable score sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enfnet import (
    DetectionReport,
    DetectorConfig,
    EnfSeries,
    ForgeryMode,
    GridConfig,
    InvalidArgumentError,
    Verdict,
    correlation,
    embed_audio,
    estimate_enf,
    forge_segments,
    gen_enf_truth,
    merge_fake_windows,
    roc_curve,
    sliding_window_detect,
)
from enfnet.enf_estimation import EstimatorConfig
from enfnet.harness import DEFAULT_HARMONICS


# ---------------------------------------------------------------------------
# correlation identities


def test_correlation_identities():
    x = np.array([60.01, 60.0, 59.98, 60.02, 60.0])
    assert correlation(x, x) == pytest.approx(1.0, abs=1e-9)
    assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-9)
    assert correlation(x, 2.5 * x + 7.0) == pytest.approx(1.0, abs=1e-9)
    assert correlation(x, -0.3 * x + 1.0) == pytest.approx(-1.0, abs=1e-9)


def test_correlation_degenerate_and_errors():
    x = np.array([1.0, 2.0, 3.0])
    assert correlation(np.ones(5), np.arange(5.0)) == 0.0
    assert correlation(np.arange(5.0), np.ones(5)) == 0.0
    assert correlation(np.ones(5), np.ones(5)) == 0.0
    with pytest.raises(InvalidArgumentError):
        correlation(x, np.ones(4))
    with pytest.raises(InvalidArgumentError):
        correlation(x[:2], x[:2])
    with pytest.raises(InvalidArgumentError):
        correlation(np.ones((2, 3)), np.ones((2, 3)))


@settings(max_examples=80, deadline=None)
@given(
    vals=st.lists(st.floats(-100, 100), min_size=3, max_size=40),
    alpha=st.floats(-5, 5).filter(lambda a: abs(a) > 1e-3),
    beta=st.floats(-50, 50),
)
def test_correlation_affine_property(vals, alpha, beta):
    x = np.asarray(vals)
    if np.std(x) < 1e-6:
        return
    c = correlation(x, alpha * x + beta)
    assert c == pytest.approx(np.sign(alpha), abs=1e-6)


# ---------------------------------------------------------------------------
# sliding window mechanics


def series(vals, step=1.0, start=0.0):
    return EnfSeries(start, step, np.asarray(vals, float))


def test_detect_genuine_stream_has_no_intervals():
    rng = np.random.default_rng(0)
    truth = 60.0 + np.cumsum(rng.normal(0, 0.005, 120))
    local = truth + rng.normal(0, 0.0005, 120)
    rep = sliding_window_detect(series(local), series(truth), DetectorConfig())
    assert rep.overall_verdict is Verdict.Genuine
    assert rep.forged_intervals == []
    assert all(w.verdict is Verdict.Genuine for w in rep.windows)


def test_detect_window_layout():
    truth = series(np.linspace(59.9, 60.1, 100))
    rep = sliding_window_detect(truth, truth, DetectorConfig(window_s=16.0, shift_s=5.0))
    starts = [w.start_s for w in rep.windows]
    assert starts == [5.0 * m for m in range(len(starts))]
    assert all(w.end_s - w.start_s == pytest.approx(16.0) for w in rep.windows)
    assert starts[-1] + 16.0 <= 100.0 < starts[-1] + 5.0 + 16.0


def test_detect_window_times_match_their_samples():
    """Estimate step 4 s (the default estimator) against the default 5 s
    shift: each window reports the time of the first sample it reads."""
    rng = np.random.default_rng(2)
    local = series(60.0 + np.cumsum(rng.normal(0, 0.01, 60)), step=4.0, start=4.0)
    cfg = DetectorConfig()
    rep = sliding_window_detect(local, local, cfg)
    assert len(rep.windows) > 3
    for m, w in enumerate(rep.windows):
        si = int(round(m * cfg.shift_s / local.step_s))
        assert w.start_s == local.times()[si]
        assert w.end_s == w.start_s + 4 * local.step_s  # 16 s window = 4 samples


def test_detect_threshold_floor_never_flags():
    rng = np.random.default_rng(1)
    a = series(rng.normal(60, 0.01, 100))
    b = series(rng.normal(60, 0.01, 100))
    cfg = DetectorConfig(window_s=16.0, shift_s=5.0, threshold=-1.0)
    rep = sliding_window_detect(a, b, cfg)
    assert rep.overall_verdict is Verdict.Genuine


def test_detect_rejects_misaligned_series():
    a = series(np.ones(50), step=1.0)
    b = series(np.ones(50), step=2.0)
    with pytest.raises(InvalidArgumentError):
        sliding_window_detect(a, b, DetectorConfig())
    c = series(np.ones(50), start=0.5)
    with pytest.raises(InvalidArgumentError):
        sliding_window_detect(a, c, DetectorConfig())
    with pytest.raises(InvalidArgumentError):
        sliding_window_detect(series(np.ones(10)), series(np.ones(10)), DetectorConfig())


def test_detect_intervals_rederivable_from_windows():
    rng = np.random.default_rng(3)
    truth = 60.0 + np.cumsum(rng.normal(0, 0.01, 200))
    local = truth.copy()
    local[80:120] = 60.0 + np.cumsum(rng.normal(0, 0.01, 40))  # splice
    cfg = DetectorConfig(window_s=16.0, shift_s=5.0)
    rep = sliding_window_detect(series(local), series(truth), cfg)
    assert rep.overall_verdict is Verdict.Fake
    assert rep.forged_intervals == merge_fake_windows(rep.windows, cfg, 1.0)


def test_merge_trims_a_long_run():
    cfg = DetectorConfig(window_s=16.0, shift_s=5.0)
    from enfnet.detection import WindowVerdict

    wins = [
        WindowVerdict(5.0 * m, 5.0 * m + 16.0, 0.0, Verdict.Fake if 3 <= m <= 10 else Verdict.Genuine)
        for m in range(16)
    ]
    out = merge_fake_windows(wins, cfg, 1.0)
    # first fake start 15, last fake start 50: trimmed by the vouching rule
    assert out == [(15.0 + 11.0, 50.0 + 4.0)]


def test_merge_short_run_falls_back_to_centered_interval():
    cfg = DetectorConfig(window_s=16.0, shift_s=5.0)
    from enfnet.detection import WindowVerdict

    wins = [
        WindowVerdict(0.0, 16.0, 0.9, Verdict.Genuine),
        WindowVerdict(5.0, 21.0, 0.1, Verdict.Fake),
        WindowVerdict(10.0, 26.0, 0.9, Verdict.Genuine),
    ]
    out = merge_fake_windows(wins, cfg, 1.0)
    assert len(out) == 1
    a, b = out[0]
    assert b - a == pytest.approx(cfg.shift_s)
    assert (a + b) / 2 == pytest.approx(5.0 + 16.0 / 2)  # centered on the lone window


def test_detector_config_validation():
    with pytest.raises(InvalidArgumentError):
        DetectorConfig(window_s=5.0, shift_s=5.0)
    with pytest.raises(InvalidArgumentError):
        DetectorConfig(window_s=16.0, shift_s=5.0, threshold=1.5)


# ---------------------------------------------------------------------------
# end-to-end localization on one synthesized stream


def test_localize_replace_enf_within_one_shift():
    grid = GridConfig(seed=1234)
    truth = gen_enf_truth(grid, 300.0, 1.0)
    stream = embed_audio(truth, 1000.0, DEFAULT_HARMONICS, 20.0, seed=1234, grid=grid)
    stream = forge_segments(stream, [(60.0, 90.0)], ForgeryMode.ReplaceEnf, seed=77)
    est_cfg = EstimatorConfig(stft_window_s=4.0, stft_overlap_frac=0.75)
    est = estimate_enf(stream, est_cfg)
    ref = EnfSeries(est.start_time_s, est.step_s, truth.at(est.times()))
    rep = sliding_window_detect(est, ref, DetectorConfig(window_s=16.0, shift_s=5.0))
    assert rep.overall_verdict is Verdict.Fake
    cands = [(s, t) for s, t in rep.forged_intervals if t > 55.0 and s < 95.0]
    assert cands
    start = min(c[0] for c in cands)
    end = max(c[1] for c in cands)
    assert abs(start - 60.0) <= 5.0
    assert abs(end - 90.0) <= 5.0


# ---------------------------------------------------------------------------
# ROC


def test_roc_perfectly_separated():
    points, auc = roc_curve([0.9, 0.95, 0.99], [0.1, 0.2, 0.3])
    assert auc == pytest.approx(1.0)
    ts = [p[0] for p in points]
    assert ts == sorted(ts)


def test_roc_identical_distributions_near_half():
    rng = np.random.default_rng(8)
    g = rng.normal(0.5, 0.1, 1000)
    f = rng.normal(0.5, 0.1, 1000)
    _, auc = roc_curve(g, f)
    assert abs(auc - 0.5) < 0.05


def test_roc_curves_are_monotone():
    rng = np.random.default_rng(9)
    points, auc = roc_curve(rng.normal(0.8, 0.2, 50), rng.normal(0.3, 0.2, 50))
    tpr = [p[1] for p in points]
    fpr = [p[2] for p in points]
    assert all(b >= a for a, b in zip(tpr, tpr[1:]))
    assert all(b >= a for a, b in zip(fpr, fpr[1:]))
    assert tpr[-1] == 1.0 and fpr[-1] == 1.0
    assert 0.9 <= auc <= 1.0


def test_roc_rejects_empty_classes():
    with pytest.raises(InvalidArgumentError):
        roc_curve([], [0.1])
    with pytest.raises(InvalidArgumentError):
        roc_curve([0.9], [])


def test_report_verdict_is_fake_iff_an_interval_was_flagged():
    assert DetectionReport([], []).overall_verdict is Verdict.Genuine
    assert DetectionReport([], [(10.0, 20.0)]).overall_verdict is Verdict.Fake
