"""Deepfake detection by sliding-window ENF correlation.

A participant's local ENF estimate is compared window-by-window against the
consensus ground truth. One array pass slices every window of both series and
scores each row pair by one Pearson rule, of which ``correlation`` is the
one-window case; a window constant on either side reads exactly 0. Each
window is scaled by the power of two at its largest magnitude before its mean
is taken, and each centred window by its largest magnitude, so that neither
the mean nor the squares of large or tiny values overflow or underflow. Windows
whose correlation falls below the threshold are flagged Fake and consecutive
Fake windows are merged into localized forged intervals. Also provides the
ROC utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError, _real
from .media_synth import EnfSeries


@dataclass
class DetectorConfig:
    window_s: float = 16.0
    shift_s: float = 5.0
    threshold: float = 0.8

    def __post_init__(self):
        _real(self.shift_s, "shift_s", 0)
        _real(self.window_s, "require window_s > shift_s: window_s", self.shift_s)
        # threshold in [-1, 1], the range of a correlation
        _real(self.threshold, "threshold", -1, closed=True)
        _real(1 - self.threshold, "1 - threshold", 0, closed=True)


class Verdict(Enum):
    Genuine = "Genuine"
    Fake = "Fake"


@dataclass
class WindowVerdict:
    start_s: float
    end_s: float
    corr: float
    verdict: Verdict


@dataclass
class DetectionReport:
    windows: List[WindowVerdict]
    forged_intervals: List[Tuple[float, float]]

    @property
    def overall_verdict(self) -> Verdict:
        return Verdict.Fake if self.forged_intervals else Verdict.Genuine


def _pearson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row pair of two equal-shape (..., n) arrays. A row
    constant on either side (exactly: its centred values all equal) carries no
    fingerprint information and reads 0. Each row is first multiplied by the power of
    two that brings its largest magnitude into [0.5, 1), which is exact, so that its
    mean cannot overflow: a row of 1.5e308 correlates. Each centred row is then divided
    by its largest magnitude (an all-zero row stays as it is), so that no product
    overflows or underflows: a row of +-1e160 or of +-1e-170 still correlates with itself."""
    a, b = (np.ldexp(x, -np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1]) for x in (a, b))
    a = a - a.mean(axis=-1, keepdims=True)
    b = b - b.mean(axis=-1, keepdims=True)
    flat = (np.ptp(a, axis=-1) == 0) | (np.ptp(b, axis=-1) == 0)
    a, b = (x / np.abs(x).max(axis=-1, keepdims=True).clip(min=np.finfo(float).tiny)
            for x in (a, b))
    ab, aa, bb = (np.einsum("...i,...i->...", x, y) for x, y in ((a, b), (a, a), (b, b)))
    r = np.divide(ab, np.sqrt(aa) * np.sqrt(bb), out=np.zeros_like(ab), where=~flat)
    return np.clip(r, -1.0, 1.0)


def correlation(a, b) -> float:
    """Pearson correlation coefficient of two equal-length segments: the
    one-window case of the rule sliding_window_detect scores windows by."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidArgumentError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 1 or len(a) < 3:
        raise InvalidArgumentError("segments must be 1-D with length >= 3")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidArgumentError("segments must be finite")
    return float(_pearson(a, b))


def merge_fake_windows(
    windows: Sequence[WindowVerdict], cfg: DetectorConfig, step_s: float
) -> List[Tuple[float, float]]:
    """Merge maximal runs of consecutive Fake windows into forged intervals.

    A window overlapping a forgery by any amount can flag Fake, so the raw
    union of a run over-reaches at both ends. The reported interval trims the
    run to the sub-span every flagged window actually vouches for: the first
    window certainly overlaps the forgery in its trailing shift_s, symmetric
    reasoning trims the tail (step_s is the estimate spacing).
    """
    intervals: List[Tuple[float, float]] = []
    for verdict, run in groupby(windows, key=lambda w: w.verdict):
        if verdict is not Verdict.Fake:
            continue
        run = list(run)
        start = run[0].start_s + (cfg.window_s - cfg.shift_s)
        end = run[-1].start_s + cfg.shift_s - step_s
        if start >= end:
            # run too short to trim; report a centered shift-wide interval
            mid = (run[0].start_s + run[-1].start_s + cfg.window_s) / 2.0
            start, end = mid - cfg.shift_s / 2.0, mid + cfg.shift_s / 2.0
        intervals.append((start, end))
    return intervals


def sliding_window_detect(
    local: EnfSeries, truth: EnfSeries, cfg: DetectorConfig
) -> DetectionReport:
    """Window-by-window Pearson comparison of a local estimate against truth."""
    if (abs(local.start_time_s - truth.start_time_s) > 1e-9
            or abs(local.step_s - truth.step_s) > 1e-9):
        raise InvalidArgumentError("series are not time-aligned (start/step mismatch)")
    n = min(len(local), len(truth))
    step = local.step_s
    # window starts round m * shift_s / step, so a shift shorter than the step
    # (beyond the rounding of a clock read from a file) repeats windows
    if cfg.shift_s < step - 1e-9:
        raise InvalidArgumentError(f"shift_s={cfg.shift_s} is shorter than the series step {step}")
    if n * step < cfg.window_s:
        raise InvalidArgumentError("series shorter than one detection window")
    w_len = int(round(cfg.window_s / step))
    if w_len < 3:
        raise InvalidArgumentError(
            f"window_s={cfg.window_s} holds {w_len} samples at the series step {step} s;"
            " a window needs >= 3")
    si = np.round(np.arange(n) * cfg.shift_s / step)
    si = si[si + w_len <= n]
    a, b = (np.lib.stride_tricks.sliding_window_view(x.values_hz[:n], w_len)[si.astype(int)]
            for x in (local, truth))
    # report the times of the samples read, not m * shift_s: the two differ
    # when step does not divide the shift
    t0 = local.start_time_s + si * step
    corrs = _pearson(a, b).tolist()
    windows = [WindowVerdict(s, e, c, Verdict.Fake if c < cfg.threshold else Verdict.Genuine)
               for s, e, c in zip(t0.tolist(), (t0 + w_len * step).tolist(), corrs)]
    return DetectionReport(windows, merge_fake_windows(windows, cfg, step))


def roc_curve(genuine_scores, fake_scores):
    """ROC sweep for a 'fake iff score < threshold' detector.

    Returns (points, auc) where points is a list of (threshold, tpr, fpr)
    swept over the union of the observed scores, and auc is the trapezoidal
    area under tpr(fpr).
    """
    g = np.asarray(genuine_scores, dtype=float)
    f = np.asarray(fake_scores, dtype=float)
    if len(g) == 0 or len(f) == 0:
        raise InvalidArgumentError("both score lists must be non-empty")
    if not (np.isfinite(g).all() and np.isfinite(f).all()):
        raise InvalidArgumentError("scores must be finite")
    thresholds = np.concatenate([np.unique(np.concatenate([g, f])), [np.inf]])
    points = [(float(t), float(np.mean(f < t)), float(np.mean(g < t))) for t in thresholds]
    _, tprs, fprs = np.array(points).T
    return points, float(np.trapezoid(tprs, fprs))
