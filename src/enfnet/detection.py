"""Deepfake detection by sliding-window ENF correlation.

A participant's local ENF estimate is compared window-by-window against the
consensus ground truth; windows whose Pearson correlation falls below the
threshold are flagged Fake and consecutive Fake windows are merged into
localized forged intervals. Also provides the ROC utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError
from .media_synth import EnfSeries


@dataclass
class DetectorConfig:
    window_s: float = 16.0
    shift_s: float = 5.0
    threshold: float = 0.8

    def __post_init__(self):
        if not (self.window_s > self.shift_s > 0):
            raise InvalidArgumentError("require window_s > shift_s > 0")
        if not (-1.0 <= self.threshold <= 1.0):
            raise InvalidArgumentError("threshold must lie in [-1, 1]")


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


def correlation(a, b) -> float:
    """Pearson correlation coefficient of two equal-length segments.

    Degenerate constant segments (zero variance on either side) carry no
    fingerprint information and map to 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidArgumentError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 1 or len(a) < 3:
        raise InvalidArgumentError("segments must be 1-D with length >= 3")
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        return 0.0
    return float(np.clip(np.corrcoef(a, b)[0, 1], -1.0, 1.0))


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
    i = 0
    while i < len(windows):
        if windows[i].verdict is Verdict.Fake:
            j = i
            while j + 1 < len(windows) and windows[j + 1].verdict is Verdict.Fake:
                j += 1
            start = windows[i].start_s + (cfg.window_s - cfg.shift_s)
            end = windows[j].start_s + cfg.shift_s - step_s
            if start >= end:
                # run too short to trim; report a centered shift-wide interval
                mid = (windows[i].start_s + windows[j].start_s + cfg.window_s) / 2.0
                start, end = mid - cfg.shift_s / 2.0, mid + cfg.shift_s / 2.0
            intervals.append((start, end))
            i = j + 1
        else:
            i += 1
    return intervals


def sliding_window_detect(
    local: EnfSeries, truth: EnfSeries, cfg: DetectorConfig
) -> DetectionReport:
    """Window-by-window Pearson comparison of a local estimate against truth."""
    if abs(local.start_time_s - truth.start_time_s) > 1e-9 or abs(
        local.step_s - truth.step_s
    ) > 1e-9:
        raise InvalidArgumentError("series are not time-aligned (start/step mismatch)")
    n = min(len(local), len(truth))
    step = local.step_s
    if n * step < cfg.window_s:
        raise InvalidArgumentError("series shorter than one detection window")
    w_len = int(round(cfg.window_s / step))
    windows: List[WindowVerdict] = []
    m = 0
    while True:
        si = int(round(m * cfg.shift_s / step))
        if si + w_len > n:
            break
        c = correlation(local.values_hz[si : si + w_len], truth.values_hz[si : si + w_len])
        verdict = Verdict.Fake if c < cfg.threshold else Verdict.Genuine
        # report the times of the samples read, not m * shift_s: the two
        # differ when step does not divide the shift
        t0 = local.start_time_s + si * step
        windows.append(WindowVerdict(t0, t0 + w_len * step, c, verdict))
        m += 1
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
    thresholds = np.concatenate([np.unique(np.concatenate([g, f])), [np.inf]])
    points = []
    for t in thresholds:
        tpr = float(np.mean(f < t))
        fpr = float(np.mean(g < t))
        points.append((float(t), tpr, fpr))
    tprs = np.array([p[1] for p in points])
    fprs = np.array([p[2] for p in points])
    auc = float(np.trapezoid(tprs, fprs))
    return points, auc
