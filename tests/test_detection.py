"""Detector tests: exact correlation identities, window bookkeeping, the array
pass against a per-window loop, interval merging, and ROC arithmetic against
hand-computable score sets."""

import warnings

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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError, match="finite"):
            correlation(x, np.array([1.0, bad, 3.0]))
        with pytest.raises(InvalidArgumentError, match="finite"):
            correlation(np.array([bad, 2.0, 3.0]), x)


def test_correlation_of_a_constant_segment_is_exactly_zero():
    """The mean of a constant need not equal it in floating point, so a
    variance test done in floating point lets a constant through (np.std of
    53 copies of 60.05 is 2e-14); constancy is tested exactly."""
    rng = np.random.default_rng(0)
    for n, level in ((53, 60.05), (3, 59.95), (12, 60.05)):
        flat = np.full(n, level)
        for _ in range(5):
            b = 60.0 + rng.normal(0, 0.01, n)
            assert correlation(b, flat) == 0.0
            assert correlation(flat, b) == 0.0
        assert correlation(flat, flat) == 0.0


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_correlation_of_values_whose_squares_leave_float64_range(scale):
    """Squares of 1e160 overflow float64 and squares of 1e-170 underflow it; each
    centred row is scaled by its largest magnitude first, so neither warns or reads NaN."""
    x = scale * np.array([1.0, -1.0, 0.0])
    y = scale * np.array([0.5, 2.0, -1.0])
    assert correlation(x, x) == pytest.approx(1.0, abs=1e-15)
    assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-15)
    assert correlation(x, y) == pytest.approx(correlation(x / scale, y / scale), abs=1e-15)
    assert correlation(x, np.full(3, scale)) == 0.0
    windows = sliding_window_detect(series(np.tile(x, 4)), series(np.tile(x, 4)),
                                    DetectorConfig(window_s=6.0, shift_s=3.0)).windows
    assert [w.corr for w in windows] == pytest.approx([1.0] * len(windows), abs=1e-15)


def test_correlation_of_values_near_the_largest_float64():
    """The mean of a row holding 1.5e308 twice overflows float64 unless the row is
    scaled first; scaling by a power of two is exact, so it moves no bit."""
    assert correlation([1.5e308, 1.5e308, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(
        -np.sqrt(3.0) / 2.0, abs=1e-15)
    x = 60.0 + np.random.default_rng(1).normal(0, 0.01, 16)
    y = 60.0 + np.random.default_rng(2).normal(0, 0.01, 16)
    for k in (1000, 1, -1, -1000):
        assert correlation(np.ldexp(x, k), y) == correlation(x, y)
    big = np.tile([1.5e308, 1.5e308, 0.0], 4)
    windows = sliding_window_detect(series(big), series(big),
                                    DetectorConfig(window_s=6.0, shift_s=3.0)).windows
    assert [w.corr for w in windows] == pytest.approx([1.0] * len(windows), abs=1e-15)


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


def test_detect_rejects_a_shift_shorter_than_the_step():
    """Window starts are round(m * shift_s / step): a 0.2 s shift over a 1 s
    step would read 138 windows, of which 28 are distinct."""
    s = series(np.linspace(59.9, 60.1, 30))
    with pytest.raises(InvalidArgumentError, match="shorter than the series step"):
        sliding_window_detect(s, s, DetectorConfig(window_s=3.0, shift_s=0.2))
    rep = sliding_window_detect(s, s, DetectorConfig(window_s=3.0, shift_s=1.0))
    assert len({w.start_s for w in rep.windows}) == len(rep.windows) == 28


def test_detect_threshold_floor_never_flags():
    rng = np.random.default_rng(1)
    a = series(rng.normal(60, 0.01, 100))
    b = series(rng.normal(60, 0.01, 100))
    cfg = DetectorConfig(window_s=16.0, shift_s=5.0, threshold=-1.0)
    rep = sliding_window_detect(a, b, cfg)
    assert rep.overall_verdict is Verdict.Genuine


def test_detect_scores_a_flat_reference_stretch_exactly_zero():
    """The clamped grid pins the reference at nominal + max_dev_hz for a while:
    every window wholly inside such a stretch reads 0 and flags Fake."""
    rng = np.random.default_rng(4)
    truth = 60.0 + np.cumsum(rng.normal(0, 0.005, 120))
    truth[40:80] = 60.05
    local = truth + rng.normal(0, 0.0005, 120)
    cfg = DetectorConfig(window_s=12.0, shift_s=4.0)
    rep = sliding_window_detect(series(local), series(truth), cfg)
    inside = [w for w in rep.windows if 40.0 <= w.start_s and w.end_s <= 80.0]
    assert len(inside) == 8
    assert all(w.corr == 0.0 and w.verdict is Verdict.Fake for w in inside)


def reference_windows(local, truth, cfg):
    """One np.corrcoef call per window, read at round(m * shift_s / step):
    the per-window loop the array pass replaces."""
    step, n = local.step_s, min(len(local), len(truth))
    w_len = int(round(cfg.window_s / step))
    out, m = [], 0
    while (si := int(round(m * cfg.shift_s / step))) + w_len <= n:
        a, b = local.values_hz[si : si + w_len], truth.values_hz[si : si + w_len]
        t0 = local.start_time_s + si * step
        out.append((t0, t0 + w_len * step, float(np.corrcoef(a, b)[0, 1])))
        m += 1
    return out


@pytest.mark.parametrize("step", [1.0, 0.5, 0.3, 1 / 3, 0.37])
@pytest.mark.parametrize("shift", [1.0, 2.0, 5.0, 1.7])
def test_array_pass_matches_a_per_window_loop(step, shift):
    rng = np.random.default_rng(int(step * 1000 + shift * 10))
    n = int(round(150.0 / step))
    truth = 60.0 + np.cumsum(rng.normal(0, 0.01, n))
    local = truth + rng.normal(0, 0.004, n)
    local[n // 3 : n // 2] = 60.0 + np.cumsum(rng.normal(0, 0.01, n // 2 - n // 3))  # splice
    local_s, truth_s = series(local, step, 2.0), series(truth, step, 2.0)
    cfg = DetectorConfig(window_s=16.0, shift_s=shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sliding_window_detect(local_s, truth_s, cfg)
        ref = reference_windows(local_s, truth_s, cfg)
    assert len(rep.windows) == len(ref)
    assert {w.verdict for w in rep.windows} == {Verdict.Fake, Verdict.Genuine}
    for w, (t0, t1, c) in zip(rep.windows, ref):
        assert (w.start_s, w.end_s) == (t0, t1)
        assert w.corr == pytest.approx(c, abs=1e-12)
        if abs(c - cfg.threshold) > 1e-12:
            assert w.verdict is (Verdict.Fake if c < cfg.threshold else Verdict.Genuine)


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
    for kw in (dict(threshold="0.8"), dict(threshold=np.nan), dict(threshold=-1.5),
               dict(window_s="16"), dict(shift_s=None), dict(shift_s=np.nan)):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            DetectorConfig(**kw)
    # the threshold's bounds are a correlation's, both held
    DetectorConfig(threshold=1.0)
    DetectorConfig(threshold=np.float32(-1.0))


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


def test_roc_rejects_non_finite_scores():
    """A NaN score is below no threshold, +inf included, so the sweep would
    never flag it: [0.9, nan] against [0.1] read AUC 0.25."""
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError, match="finite"):
            roc_curve([0.9, bad], [0.1])
        with pytest.raises(InvalidArgumentError, match="finite"):
            roc_curve([0.9], [bad, 0.1])


def test_report_verdict_is_fake_iff_an_interval_was_flagged():
    assert DetectionReport([], []).overall_verdict is Verdict.Genuine
    assert DetectionReport([], [(10.0, 20.0)]).overall_verdict is Verdict.Fake
