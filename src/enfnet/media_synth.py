"""Synthetic ENF-bearing media.

Generates a grid-wide ground-truth frequency trace (a clamped Gaussian random
walk around the nominal frequency), embeds it into audio as mains hum
harmonics and into video as illumination flicker sampled by a global- or
rolling-shutter sensor, and injects labeled forgeries.

Everything here is a pure function of its arguments (including seeds), so
identical calls give bit-identical streams.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError


@dataclass
class GridConfig:
    """Parameters of the simulated power grid frequency process."""

    nominal_hz: float = 60.0
    drift_std_hz: float = 0.005
    max_dev_hz: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.nominal_hz <= 0:
            raise InvalidArgumentError("nominal_hz must be > 0")
        if self.drift_std_hz < 0:
            raise InvalidArgumentError("drift_std_hz must be >= 0")
        if self.max_dev_hz <= 0:
            raise InvalidArgumentError("max_dev_hz must be > 0")


@dataclass
class EnfSeries:
    """Timestamped sequence of instantaneous frequency estimates in Hz."""

    start_time_s: float
    step_s: float
    values_hz: np.ndarray

    def __post_init__(self):
        self.values_hz = np.asarray(self.values_hz, dtype=float)
        if self.step_s <= 0:
            raise InvalidArgumentError("step_s must be > 0")
        if self.values_hz.ndim != 1 or len(self.values_hz) < 1:
            raise InvalidArgumentError("values_hz must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.values_hz)):
            raise InvalidArgumentError("values_hz must be finite")

    def __len__(self):
        return len(self.values_hz)

    def times(self) -> np.ndarray:
        return self.start_time_s + self.step_s * np.arange(len(self.values_hz))

    def at(self, times) -> np.ndarray:
        """The series read at ``times``: linear between samples, end values held outside."""
        return np.interp(times, self.times(), self.values_hz)

    @property
    def duration_s(self) -> float:
        return self.step_s * len(self.values_hz)


class ShutterType(Enum):
    GlobalCCD = "GlobalCCD"
    RollingCMOS = "RollingCMOS"


class ForgeryMode(Enum):
    ReplaceEnf = "ReplaceEnf"
    StripEnf = "StripEnf"


@dataclass
class AudioStream:
    """Mono amplitude stream carrying an embedded ENF hum."""

    sample_rate_hz: float
    samples: np.ndarray
    truth: EnfSeries
    forged_intervals: List[Tuple[float, float]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass
class VideoLumaStream:
    """Per-row mean luminance stream; frames has shape (n_frames, frame_height)."""

    fps: float
    shutter: ShutterType
    frames: np.ndarray
    truth: EnfSeries
    forged_intervals: List[Tuple[float, float]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # sample_view flattens frames without a copy, which needs C order
        self.frames = np.ascontiguousarray(self.frames)
        if self.frames.ndim != 2:
            raise InvalidArgumentError(f"frames must be 2-D, got shape {self.frames.shape}")

    @property
    def frame_height(self) -> int:
        return self.frames.shape[1]

    @property
    def duration_s(self) -> float:
        return len(self.frames) / self.fps


def gen_enf_truth(cfg: GridConfig, duration_s: float, step_s: float) -> EnfSeries:
    """Clamped Gaussian random walk around cfg.nominal_hz.

    Per-step increments are N(0, drift_std_hz^2 * step_s); the accumulated
    deviation is clipped to +-max_dev_hz at every step.
    """
    for name, value in (("duration_s", duration_s), ("step_s", step_s)):
        if not (np.isfinite(value) and value > 0):
            raise InvalidArgumentError(f"{name} must be finite and > 0, got {value}")
    n = int(round(duration_s / step_s))
    if n < 1:
        raise InvalidArgumentError("duration_s must cover at least one step")
    rng = np.random.default_rng(cfg.seed)
    incr = rng.normal(0.0, cfg.drift_std_hz * np.sqrt(step_s), size=n)
    dev = np.clip(np.cumsum(incr), -cfg.max_dev_hz, cfg.max_dev_hz)
    return EnfSeries(start_time_s=0.0, step_s=step_s, values_hz=cfg.nominal_hz + dev)


def _integrated_phase(truth: EnfSeries, rate_hz: float, n: int) -> np.ndarray:
    """2*pi * cumulative integral of f(t), sampled at rate_hz."""
    f = truth.at(np.arange(n) / rate_hz)
    return 2.0 * np.pi * np.cumsum(f) / rate_hz


def _add_noise(x: np.ndarray, signal_power: float, snr_db: float, rng) -> np.ndarray:
    """x plus white noise snr_db below signal_power; x itself at +inf SNR, zero power or
    zero sigma. An snr_db whose 10^(snr_db/10) or sigma overflows float64 is rejected."""
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise InvalidArgumentError(f"snr_db must be finite or +inf, got {snr_db}")
    if snr_db == np.inf or not signal_power > 0.0:
        return x
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.float64(10.0) ** (snr_db / 10.0)
        sigma = np.sqrt(signal_power / ratio)
    if ratio == np.inf or not np.isfinite(sigma):
        raise InvalidArgumentError(f"snr_db={snr_db} puts the noise power out of float64 range")
    return x + rng.normal(0.0, sigma, size=x.shape) if sigma > 0.0 else x


# the GridConfig fields a stream's meta records, so forgeries can rebuild the grid
_GRID_KEYS = tuple(f.name for f in fields(GridConfig) if f.name != "seed")


def _provenance(grid: GridConfig | None, snr_db: float, seed, **kind_keys) -> dict:
    """A stream's meta: the generating grid, snr_db, seed and the kind-specific keys."""
    g = grid if grid is not None else GridConfig()
    meta = {k: getattr(g, k) for k in _GRID_KEYS}
    meta.update(
        snr_db=float(snr_db), seed=seed if isinstance(seed, int) else list(seed), **kind_keys
    )
    return meta


def embed_audio(
    truth: EnfSeries,
    sample_rate_hz: float,
    harmonics: Sequence[Tuple[int, float]],
    snr_db: float,
    seed: int = 0,
    grid: GridConfig | None = None,
) -> AudioStream:
    """Embed the truth trace as a sum of hum harmonics plus white noise.

    harmonics is a list of (order, amplitude); harmonic k oscillates at
    k * f(t) with phase equal to the cumulative integral of the interpolated
    truth. grid (optional) records the generating process so forgeries can
    re-synthesize matching content.
    """
    if not harmonics or any(int(k) < 1 or not np.isfinite(amp) for k, amp in harmonics):
        raise InvalidArgumentError(
            f"harmonics must be (order >= 1, finite amplitude) pairs, got {harmonics}"
        )
    max_order = max(int(k) for k, _ in harmonics)
    if not np.isfinite(sample_rate_hz):
        raise InvalidArgumentError(f"sample_rate_hz must be finite, got {sample_rate_hz}")
    if sample_rate_hz <= 2.0 * max_order * float(np.max(truth.values_hz)):
        raise InvalidArgumentError(
            f"sample_rate_hz={sample_rate_hz} violates Nyquist for harmonic order {max_order}"
        )
    rng = np.random.default_rng(seed)
    n = int(round(truth.duration_s * sample_rate_hz))
    base_phase = _integrated_phase(truth, sample_rate_hz, n)
    sig = np.zeros(n)
    for k, amp in harmonics:
        sig += amp * np.sin(k * base_phase + rng.uniform(0.0, 2.0 * np.pi))
    p = float(np.mean(sig**2)) if n else 0.0
    meta = _provenance(grid, snr_db, seed, harmonics=[(int(k), float(a)) for k, a in harmonics])
    return AudioStream(float(sample_rate_hz), _add_noise(sig, p, snr_db, rng), truth, meta=meta)


def embed_video(
    truth: EnfSeries,
    fps: float,
    frame_height: int,
    shutter: ShutterType,
    snr_db: float,
    seed: int = 0,
    mod_depth: float = 0.1,
    base_luma: float = 100.0,
    grid: GridConfig | None = None,
) -> VideoLumaStream:
    """Embed illumination flicker at 2*f(t) into per-row mean luminance.

    The lamp waveform is fully rectified (raised cosine), so its fundamental
    sits at twice the grid frequency. RollingCMOS exposes rows sequentially
    at rate fps*frame_height; GlobalCCD exposes whole frames at rate fps.
    """
    if not (np.isfinite(fps) and fps > 0):
        raise InvalidArgumentError(f"fps must be finite and > 0, got {fps}")
    if frame_height < 1:
        raise InvalidArgumentError("frame_height must be >= 1")
    if not isinstance(shutter, ShutterType):
        raise InvalidArgumentError(f"unknown shutter type: {shutter!r}")
    if not (np.isfinite(mod_depth) and np.isfinite(base_luma)):
        raise InvalidArgumentError(
            f"mod_depth and base_luma must be finite, got {mod_depth} and {base_luma}"
        )
    # rows exposed per frame: every row in turn for RollingCMOS, once per frame for GlobalCCD
    rows = frame_height if shutter is ShutterType.RollingCMOS else 1
    n_frames = int(round(truth.duration_s * fps))
    ac_amp = 0.5 * mod_depth * base_luma
    phase2 = 2.0 * _integrated_phase(truth, fps * rows, n_frames * rows)
    flat = base_luma + ac_amp * (1.0 - np.cos(phase2))
    flat = _add_noise(flat, ac_amp**2 / 2.0, snr_db, np.random.default_rng(seed))
    frames = flat.reshape(n_frames, rows)
    if rows < frame_height:  # a global exposure lights every row of its frame alike
        frames = np.repeat(frames, frame_height, axis=1)
    meta = _provenance(grid, snr_db, seed, mod_depth=float(mod_depth), base_luma=float(base_luma))
    return VideoLumaStream(float(fps), shutter, frames, truth, meta=meta)


def _check_segments(segments, duration_s):
    segs = sorted((float(a), float(b)) for a, b in segments)
    prev_end = -np.inf
    for a, b in segs:
        if not (0.0 <= a < b <= duration_s):
            raise InvalidArgumentError(f"segment ({a}, {b}) outside stream duration {duration_s}")
        if a < prev_end:
            raise InvalidArgumentError("segments overlap")
        prev_end = b
    return segs


def _merge_intervals(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _fresh_grid(meta: dict, seed) -> GridConfig:
    return GridConfig(seed=seed, **{k: meta[k] for k in _GRID_KEYS if k in meta})


def sample_view(stream) -> Tuple[np.ndarray, float, int]:
    """The stream's values as one flat 1-D array: (flat, rate_hz, unit).

    flat is the stream's own array reshaped without a copy, so writes to it
    land in the stream (video frames are held in C order for this). Each
    time index covers unit consecutive values at rate_hz indices per second:
    audio has one sample per index at sample_rate_hz, RollingCMOS one row per
    index at fps * frame_height, and GlobalCCD one frame (frame_height values)
    per index at fps, which is why GlobalCCD forgeries snap to whole frames.
    """
    if isinstance(stream, AudioStream):
        return stream.samples, stream.sample_rate_hz, 1
    if isinstance(stream, VideoLumaStream):
        flat = stream.frames.reshape(-1)
        if stream.shutter is ShutterType.RollingCMOS:
            return flat, stream.fps * stream.frame_height, 1
        return flat, stream.fps, stream.frame_height
    raise InvalidArgumentError(f"unsupported stream type: {type(stream).__name__}")


def _resynthesize(stream, seed) -> np.ndarray:
    """Same-kind content embedding an independent ENF truth, flat as in sample_view."""
    alt_truth = gen_enf_truth(
        _fresh_grid(stream.meta, seed=[int(seed), 0x5EED]),
        stream.truth.duration_s,
        stream.truth.step_s,
    )
    snr_db = stream.meta.get("snr_db", np.inf)
    if isinstance(stream, AudioStream):
        alt = embed_audio(
            alt_truth,
            stream.sample_rate_hz,
            stream.meta.get("harmonics", [(1, 1.0)]),
            snr_db,
            seed=int(seed) + 1,
        )
    else:
        alt = embed_video(
            alt_truth,
            stream.fps,
            stream.frame_height,
            stream.shutter,
            snr_db,
            seed=int(seed) + 1,
            mod_depth=stream.meta.get("mod_depth", 0.1),
            base_luma=stream.meta.get("base_luma", 100.0),
        )
    return sample_view(alt)[0]


def forge_segments(stream, segments, mode: ForgeryMode, seed: int = 0):
    """Inject forgeries over the given (start_s, end_s) segments.

    ReplaceEnf re-synthesizes segment content from an independent ENF truth;
    StripEnf substitutes matched-power white noise around a centre of 0 for
    audio and the segment mean for video (luma is never zero-mean), one draw
    per time index, so a GlobalCCD frame stays row-constant. Segment
    bounds are rounded to whole time indices of :func:`sample_view`. Values
    outside the segments are untouched, and forged_intervals is extended
    with the new labels.
    """
    segs = _check_segments(segments, stream.duration_s)
    out = copy.deepcopy(stream)
    if not segs:
        return out
    src, rate, unit = sample_view(stream)
    flat = sample_view(out)[0]
    if mode is ForgeryMode.ReplaceEnf:
        replacement = _resynthesize(stream, seed)
    elif mode is not ForgeryMode.StripEnf:
        raise InvalidArgumentError(f"unknown forgery mode: {mode!r}")
    for si, (a, b) in enumerate(segs):
        i0, i1 = int(round(a * rate)) * unit, int(round(b * rate)) * unit
        if mode is ForgeryMode.ReplaceEnf:
            flat[i0:i1] = replacement[i0:i1]
        else:
            seg = src[i0:i1]
            centre = 0.0 if isinstance(stream, AudioStream) else np.mean(seg)
            sigma = np.sqrt(np.mean((seg - centre) ** 2))
            noise = np.random.default_rng([int(seed), si]).normal(centre, sigma, (i1 - i0) // unit)
            flat[i0:i1] = np.repeat(noise, unit)
    out.forged_intervals = _merge_intervals(list(stream.forged_intervals) + segs)
    return out
