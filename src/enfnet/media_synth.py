"""Synthetic ENF-bearing media.

Generates a grid-wide ground-truth frequency trace (a clamped Gaussian random
walk around the nominal frequency), embeds it into audio as mains hum
harmonics and into video as illumination flicker sampled row by row by a
rolling-shutter sensor, and injects labeled forgeries.

Everything here is a pure function of its arguments (including seeds), so
identical calls give bit-identical streams. Both stream records follow one
rule (_Record): each names its rate and values fields and holds its values as
float64 in C order, so every later reader takes them as they are.

One kernel synthesizes both kinds in fixed blocks of _BLOCK values and adds each
block's noise while the block is in cache, so it holds its output plus
block-sized work arrays. The noise is set against the waveform's power in closed
form, never measured from the output. Every value's phase is a function of its
index alone, and the noise draws continue from block to block, so the streams do
not depend on _BLOCK.

The phase is the closed-form integral of the truth as EnfSeries.at reads it,
counted in cycles: quadratic between truth knots, linear before the first and
past the last. The cycles reached at each knot are reduced mod 1 in float64, and
each block evaluates one quadratic per knot segment it spans. Each value's
fraction of a cycle becomes a float32 phase in [0, 2*pi], at which the hum and
the flicker are evaluated in float32: numpy 2.4 runs float32 np.sin on SIMD
kernels and float64 np.sin one value at a time, about 20 ns each on x86-64
against 1.6 ns (AVX-512) or 3.7 ns (AVX2) in float32. The reduction keeps the
float32 error from growing with the stream's length: a noiseless 300 s hum
stays within 1.6e-6 of its float64 value throughout (four seeds measured),
about -116 dB below the fundamental.

The noise is Box-Muller from float32 uniforms, evaluated in float32 and scaled
by its sigma in float64; it never exceeds 5.77 sigma. numpy picks its float32
kernels by CPU; the AVX-512 and AVX2 kernels agree bit for bit, while the
baseline sine differs from them by an ulp in about one value in eight, so
streams are bit-identical for one numpy on one kind of CPU, not on every CPU.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError, _real, _seed, _whole


@dataclass
class GridConfig:
    """Parameters of the simulated power grid frequency process."""

    nominal_hz: float = 60.0
    drift_std_hz: float = 0.005
    max_dev_hz: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # checked before any draw; max_dev_hz = +inf is an unclamped walk
        self.seed = _seed(self.seed)
        _real(self.nominal_hz, "nominal_hz", 0)
        _real(self.drift_std_hz, "drift_std_hz", 0, closed=True)
        if self.max_dev_hz != np.inf:
            _real(self.max_dev_hz, "max_dev_hz, unless +inf,", 0)


def _same_nominal(**configs) -> None:
    """Reject configs, named by keyword, that disagree on nominal_hz: a grid
    estimated or voted on around another nominal gives silently wrong results."""
    nominals = {c.nominal_hz for c in configs.values()}
    if len(nominals) > 1:
        *rest, last = configs
        raise InvalidArgumentError(
            f"{', '.join(rest)} and {last} disagree on nominal_hz: {sorted(nominals)}"
        )


@dataclass
class EnfSeries:
    """Timestamped sequence of instantaneous frequency estimates in Hz. grid is the
    GridConfig that drew the series, which only gen_enf_truth sets; estimates,
    references, loaded and hand-built series hold None."""

    start_time_s: float
    step_s: float
    values_hz: np.ndarray
    grid: GridConfig | None = None

    def __post_init__(self):
        self.values_hz = np.asarray(self.values_hz, dtype=float)
        _real(self.start_time_s, "start_time_s", -np.inf)
        _real(self.step_s, "step_s", 0)
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


def _span(truth: EnfSeries, rate_hz: float, name: str) -> int:
    """Values a stream at finite rate_hz > 0 (field ``name``) holds over its truth."""
    return int(round(truth.duration_s * _real(rate_hz, name, 0)))


class ForgeryMode(Enum):
    ReplaceEnf = "ReplaceEnf"
    StripEnf = "StripEnf"


class _Record:
    """The rule both stream records follow. Class constants name the layout: _RATE the
    rate field (first-axis entries per second of the truth), _VALUES the values field,
    _NDIM their rank. Built, the values are float64 in C order spanning the truth."""

    def __post_init__(self):
        name = self._VALUES
        arr = np.asarray(getattr(self, name), dtype=float, order="C")
        if arr.ndim != self._NDIM:
            raise InvalidArgumentError(f"{name} must be {self._NDIM}-D, got shape {arr.shape}")
        if len(arr) != (n := _span(self.truth, getattr(self, self._RATE), self._RATE)):
            raise InvalidArgumentError(f"truth spans {n} {name}, the stream {len(arr)}")
        setattr(self, name, arr)

    @property
    def duration_s(self) -> float:
        return len(getattr(self, self._VALUES)) / getattr(self, self._RATE)


@dataclass
class AudioStream(_Record):
    """Mono amplitude stream carrying an embedded ENF hum: samples is 1-D, float64
    in C order, sample_rate_hz values per second of the truth."""

    _RATE, _VALUES, _NDIM = "sample_rate_hz", "samples", 1

    sample_rate_hz: float
    samples: np.ndarray
    truth: EnfSeries
    forged_intervals: List[Tuple[float, float]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


@dataclass
class VideoLumaStream(_Record):
    """Per-row mean luminance of a rolling-shutter video: frames is float64 in C order,
    of shape (n_frames, frame_height), fps frames per second of the truth, whose rows
    are exposed in turn at fps * frame_height per second."""

    _RATE, _VALUES, _NDIM = "fps", "frames", 2

    fps: float
    frames: np.ndarray
    truth: EnfSeries
    forged_intervals: List[Tuple[float, float]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def frame_height(self) -> int:
        return self.frames.shape[1]


def gen_enf_truth(cfg: GridConfig, duration_s: float, step_s: float) -> EnfSeries:
    """Clamped Gaussian random walk around cfg.nominal_hz.

    Per-step increments are N(0, drift_std_hz^2 * step_s). Their finished
    cumulative sum is clipped to +-max_dev_hz, so once the unclipped walk passes
    the bound the deviation stays pinned there until the walk comes back; a
    per-step clamp is ROADMAP item 6.
    """
    n = int(round(_real(duration_s, "duration_s", 0) / _real(step_s, "step_s", 0)))
    if n < 1:
        raise InvalidArgumentError("duration_s must cover at least one step")
    rng = np.random.default_rng(cfg.seed)
    incr = rng.normal(0.0, cfg.drift_std_hz * np.sqrt(step_s), size=n)
    dev = np.clip(np.cumsum(incr), -cfg.max_dev_hz, cfg.max_dev_hz)
    return EnfSeries(start_time_s=0.0, step_s=step_s, values_hz=cfg.nominal_hz + dev, grid=cfg)


# values synthesized per block: work arrays hold this many, not a whole stream. At
# 2**16, glibc handed each audio block's freed work arrays back to the OS and the
# next block faulted them in again: 57 K minor page faults for a 120 s 44.1 kHz
# stream, against 0.6 K at 2**14 (x86-64 Linux). Even, so that no Box-Muller pair of
# noise draws straddles two blocks
_BLOCK = 2**14


def _noise_sigma(signal_power: float, snr_db: float) -> float:
    """Std of white noise snr_db below signal_power; 0.0 at +inf SNR or zero power. An
    snr_db whose 10^(snr_db/10) or sigma overflows float64 is rejected."""
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise InvalidArgumentError(f"snr_db must be finite or +inf, got {snr_db}")
    if snr_db == np.inf or not signal_power > 0.0:
        return 0.0
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.float64(10.0) ** (snr_db / 10.0)
        sigma = np.sqrt(signal_power / ratio)
    if ratio == np.inf or not np.isfinite(sigma):
        raise InvalidArgumentError(f"snr_db={snr_db} puts the noise power out of float64 range")
    return float(sigma)


def _phase_segments(truth: EnfSeries, rate_hz: float, n: int):
    """The integral of truth.at from t = 0 at n values at rate_hz, as one quadratic per
    segment of f(t): held at the first knot's value before it, linear between knots,
    held at the last knot's value past it. Returns Python lists: each segment's first
    index (ceil(knot * rate_hz), so a value's segment is a function of its index alone)
    followed by n, and per segment its origin, f and half slope there, and the cycles
    reached there reduced mod 1."""
    knots, f = truth.times(), truth.values_hz
    half_slope = np.append(np.diff(f) / truth.step_s, 0.0) / 2.0
    # cycles gained from the first knot to each: a trapezoid per step, each reduced
    # mod 1 before the sum so that the sum's rounding stays small
    gain = truth.step_s * (f[:-1] + f[1:]) / 2.0
    at_knot = np.concatenate(([0.0], np.cumsum(gain - np.floor(gain))))
    # then counted from t = 0: f is held before the first knot, and a first knot at a
    # negative time puts t = 0 inside a segment
    if knots[0] >= 0.0:
        at_zero = -f[0] * knots[0]
    else:
        j = int(np.searchsorted(knots, 0.0, side="right")) - 1
        at_zero = at_knot[j] - knots[j] * (f[j] - half_slope[j] * knots[j])
    at_knot -= at_zero - np.floor(at_zero)
    at_knot -= np.floor(at_knot)
    first = np.clip(np.ceil(knots * rate_hz), 0, n).astype(np.intp)
    return ([0, *first.tolist(), n], [0.0, *knots.tolist()], [float(f[0]), *f.tolist()],
            [0.0, *half_slope.tolist()], [0.0, *at_knot.tolist()])


def _cycles(segments, rate_hz: float, i0: int, i1: int) -> np.ndarray:
    """The fraction of a cycle at values i0 to i1 - 1, in float64: dt * (f + s/2 * dt)
    plus the cycles at the origin, dt the time since the origin of the value's segment."""
    first, origin, f, half_slope, at_origin = segments
    t = np.arange(i0, i1) / rate_hz
    cycles = np.empty(i1 - i0)
    j = bisect.bisect_right(first, i0) - 1
    while first[j] < i1:
        a, b = max(first[j], i0) - i0, min(first[j + 1], i1) - i0
        if a < b:
            dt = t[a:b]
            dt -= origin[j]
            seg = cycles[a:b]
            np.multiply(dt, half_slope[j], out=seg)
            seg += f[j]
            seg *= dt
            seg += at_origin[j]
        j += 1
    cycles -= np.floor(cycles)
    return cycles


def _unit_normals(rng, m: int) -> np.ndarray:
    """m standard normals in float32, by Box-Muller from m (rounded up to even) float32
    uniforms u: pairs r*cos(theta), r*sin(theta) with r = sqrt(-2 log(1 - u[0::2])) and
    theta = 2*pi*u[1::2]. Uniforms on a 2^-24 grid cap |z| at sqrt(48 ln 2) = 5.77,
    which N(0, 1) passes with probability 8e-9. numpy's float32 log, sqrt, sin and cos
    give the same bytes on its AVX-512 and AVX2 kernels (log1p and float64 log do not)."""
    u = rng.random(m + (m & 1), dtype=np.float32)
    r = np.sqrt(np.float32(-2.0) * np.log(np.float32(1.0) - u[0::2]))
    theta = np.float32(2.0 * np.pi) * u[1::2]
    z = np.empty_like(u)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:m]


def _synthesize(truth: EnfSeries, rate_hz: float, n: int, wave, power: float, snr_db: float,
                rng) -> np.ndarray:
    """n values at rate_hz: wave(phase) plus white noise snr_db below power, the
    waveform's power in closed form. The phase is 2*pi times the fraction of a cycle
    that the integral of truth.at has reached (_cycles), as float32, and wave evaluates
    in float32 what the float64 output then holds. The noise is sigma times
    _unit_normals, scaled in float64 so that a sigma beyond float32's range stays
    finite; the draws of one block continue those of the last, and _BLOCK is even, so
    the output does not depend on _BLOCK, bit for bit. Nothing is drawn at zero sigma."""
    sigma = np.float64(_noise_sigma(power, snr_db))
    segments = _phase_segments(truth, rate_hz, n)
    out = np.empty(n)
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        block = out[i0:i1]
        block[:] = wave((2.0 * np.pi * _cycles(segments, rate_hz, i0, i1)).astype(np.float32))
        if sigma > 0.0:
            block += sigma * _unit_normals(rng, i1 - i0)
    return out


# mean luma of every synthesized video row, around which the lamp flickers
_BASE_LUMA = 100.0
# the flicker's amplitude, half a 0.1 modulation depth of _BASE_LUMA: the noise is
# set against its power and estimation removes each row's mean, so no depth is an option
_FLICKER_AMP = 0.5 * 0.1 * _BASE_LUMA

# the waves are evaluated in float32, so their amplitudes must not overflow it
_F32_MAX = float(np.finfo(np.float32).max)

# the GridConfig fields a stream's meta records, so forgeries can rebuild the grid
_GRID_KEYS = tuple(f.name for f in fields(GridConfig) if f.name != "seed")


def _provenance(truth: EnfSeries, snr_db: float, seed, **kind_keys) -> dict:
    """A stream's meta: the _GRID_KEYS of the grid that drew truth, as floats (none if
    no grid drew it), snr_db, seed and the kind-specific keys."""
    grid = truth.grid
    meta = {} if grid is None else {k: float(getattr(grid, k)) for k in _GRID_KEYS}
    meta.update(snr_db=float(snr_db), seed=seed, **kind_keys)
    return meta


def _harmonic_orders(orders) -> Tuple[int, ...]:
    """orders as ints, if there is at least one and they are distinct whole numbers >= 1."""
    out = tuple(_whole(k, "harmonics", 1) for k in orders)
    if not out or len(set(out)) < len(out):
        raise InvalidArgumentError(f"harmonics must be one or more distinct orders, got {out}")
    return out


def _harmonic_spec(harmonics) -> Tuple[Tuple[int, ...], np.ndarray]:
    """A hum's (order, amplitude) pairs as (orders, amplitudes): orders as
    _harmonic_orders takes them, amplitudes finite reals, as float64, whose magnitudes
    sum to at most float32's max, the type the waves are evaluated in."""
    try:
        pairs = [(k, a) for k, a in harmonics]
    except (TypeError, ValueError):  # not an iterable of pairs
        raise InvalidArgumentError(
            f"harmonics must be (order, amplitude) pairs, got {harmonics!r}") from None
    orders = _harmonic_orders(k for k, _ in pairs)
    amps = np.array([_real(a, "harmonic amplitudes", -np.inf) for _, a in pairs], dtype=float)
    if not np.sum(np.abs(amps)) <= _F32_MAX:
        raise InvalidArgumentError(f"harmonic amplitudes must sum in magnitude to at most "
                                   f"float32's max, got {harmonics}")
    return orders, amps


def embed_audio(
    truth: EnfSeries,
    sample_rate_hz: float,
    harmonics: Sequence[Tuple[int, float]],
    snr_db: float,
    seed: int = 0,
) -> AudioStream:
    """Embed the truth trace as a sum of hum harmonics plus white noise.

    harmonics is a list of (order, amplitude), as _harmonic_spec takes it;
    harmonic k oscillates at k * f(t): the sum of amplitude * sin(k * phase +
    offset) is evaluated in float32 at the float32 phase _synthesize passes, the
    fraction of a cycle the integral of the interpolated truth has reached.
    Distinct orders make the hum's power sum(amplitude**2 / 2), which sets the noise.
    meta records the grid that drew truth (_provenance), so that ReplaceEnf can
    re-synthesize matching content.
    """
    seed = _seed(seed)
    orders, amps = _harmonic_spec(harmonics)
    n = _span(truth, sample_rate_hz, "sample_rate_hz")
    if sample_rate_hz <= 2.0 * max(orders) * float(np.max(truth.values_hz)):
        raise InvalidArgumentError(
            f"sample_rate_hz={sample_rate_hz} violates Nyquist for harmonic order {max(orders)}"
        )
    with np.errstate(over="ignore"):  # a power that overflows puts sigma out of range
        power = float(np.sum(amps**2) / 2.0)
    rng = np.random.default_rng(seed)
    offsets = [rng.uniform(0.0, 2.0 * np.pi) for _ in orders]
    terms = np.array([orders, amps, offsets], dtype=np.float32).T  # a row per harmonic
    sig = _synthesize(
        truth, sample_rate_hz, n,
        lambda phase: sum(a * np.sin(k * phase + u) for k, a, u in terms),
        power, snr_db, rng,
    )
    meta = _provenance(truth, snr_db, seed, harmonics=[(k, float(a)) for k, a in zip(orders, amps)])
    return AudioStream(float(sample_rate_hz), sig, truth, meta=meta)


def embed_video(
    truth: EnfSeries,
    fps: float,
    frame_height: int,
    snr_db: float,
    seed: int = 0,
) -> VideoLumaStream:
    """Embed illumination flicker at 2*f(t) into per-row mean luminance.

    The lamp waveform is fully rectified (raised cosine), so its fundamental
    sits at twice the grid frequency. The rolling shutter exposes rows in
    turn, one flicker sample per row at rate fps * frame_height, around a
    mean luma of _BASE_LUMA at amplitude _FLICKER_AMP. The flicker is evaluated
    in float32 and added to _BASE_LUMA in float64: float32 holds luma near 100
    only to steps of 7.6e-6. meta records the grid that drew truth, as in
    embed_audio.
    """
    seed = _seed(seed)
    n_frames = _span(truth, fps, "fps")
    frame_height = _whole(frame_height, "frame_height", 1)
    ac32 = np.float32(_FLICKER_AMP)

    def luma(phase):
        return _BASE_LUMA + (ac32 * (1.0 - np.cos(2.0 * phase))).astype(float)

    flat = _synthesize(truth, fps * frame_height, n_frames * frame_height, luma,
                       _FLICKER_AMP**2 / 2.0, snr_db, np.random.default_rng(seed))
    meta = _provenance(truth, snr_db, seed)
    return VideoLumaStream(float(fps), flat.reshape(n_frames, frame_height), truth, meta=meta)


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


def sample_view(stream) -> Tuple[np.ndarray, float]:
    """The stream's values as one flat 1-D array: (flat, rate_hz).

    flat is the record's own float64 array, held in C order, reshaped without
    a copy, so writes to it land in the stream; its rate is the record's times
    the values per entry of the first axis. Audio has one sample per value at
    sample_rate_hz, video one row per value at fps * frame_height.
    """
    if not isinstance(stream, _Record):
        raise InvalidArgumentError(f"unsupported stream type: {type(stream).__name__}")
    values = getattr(stream, stream._VALUES)
    return values.reshape(-1), getattr(stream, stream._RATE) * math.prod(values.shape[1:])


def _resynthesize(stream, seed) -> np.ndarray:
    """Same-kind content embedding an independent ENF truth, flat as in sample_view,
    made as the stream's meta records it was: its grid, snr_db and, for audio, its
    harmonics."""
    meta, audio = stream.meta, isinstance(stream, AudioStream)
    keys = [*_GRID_KEYS, "snr_db"] + (["harmonics"] if audio else [])
    missing = [k for k in keys if k not in meta]
    if missing:
        raise InvalidArgumentError(f"ReplaceEnf needs provenance; meta lacks {missing}")
    grid = GridConfig(seed=[seed, 0x5EED], **{k: meta[k] for k in _GRID_KEYS})
    alt_truth = gen_enf_truth(grid, stream.truth.duration_s, stream.truth.step_s)
    if audio:
        alt = embed_audio(alt_truth, stream.sample_rate_hz, meta["harmonics"], meta["snr_db"],
                          seed=seed + 1)
    else:
        alt = embed_video(alt_truth, stream.fps, stream.frame_height, meta["snr_db"], seed=seed + 1)
    return sample_view(alt)[0]


def forge_segments(stream, segments, mode: ForgeryMode, seed: int = 0):
    """Inject forgeries over the given (start_s, end_s) segments.

    ReplaceEnf re-synthesizes segment content from an independent ENF truth;
    StripEnf substitutes matched-power white noise around a centre of 0 for
    audio and the segment mean for video (luma is never zero-mean), one draw
    per value. Segment bounds are rounded to whole values of
    :func:`sample_view` (one per audio sample or video row); a segment whose bounds
    round to one value forges nothing and raises InvalidArgumentError. Values
    outside the segments are untouched, the output holds float64 like every
    record, and forged_intervals is extended with the new labels.

    Memory: the input and the output. ReplaceEnf adds the replacement's
    synthesis and then writes the input's values outside the segments into
    the replacement, which becomes the output's array; StripEnf adds
    segment-sized draws.
    """
    seed = _whole(seed, "seed", 0)
    segs = _check_segments(segments, stream.duration_s)
    if not segs:
        return copy.deepcopy(stream)
    src, rate = sample_view(stream)
    bounds = [(int(round(a * rate)), int(round(b * rate))) for a, b in segs]
    for (a, b), (i0, i1) in zip(segs, bounds):
        if i0 == i1:
            raise InvalidArgumentError(f"segment ({a}, {b}) holds no value at {rate} values/s")
    if mode is ForgeryMode.ReplaceEnf:
        flat = _resynthesize(stream, seed)
        # the gaps between segments, including before the first and after the last
        edges = [0, *(i for span in bounds for i in span), len(src)]
        for i0, i1 in zip(edges[::2], edges[1::2]):
            flat[i0:i1] = src[i0:i1]
    elif mode is ForgeryMode.StripEnf:
        flat = src.copy()
        for si, (i0, i1) in enumerate(bounds):
            seg = src[i0:i1]
            centre = 0.0 if isinstance(stream, AudioStream) else np.mean(seg)
            sigma = np.sqrt(np.mean((seg - centre) ** 2))
            flat[i0:i1] = np.random.default_rng([seed, si]).normal(centre, sigma, i1 - i0)
    else:
        raise InvalidArgumentError(f"unknown forgery mode: {mode!r}")
    values = getattr(stream, stream._VALUES)
    # a deep copy in which the forged values stand in for the input's array
    out = copy.deepcopy(stream, {id(values): flat.reshape(values.shape)})
    out.forged_intervals = _merge_intervals(list(stream.forged_intervals) + segs)
    return out
