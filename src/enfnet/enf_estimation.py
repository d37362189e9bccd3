"""ENF estimation from audio and video streams.

Three-step pipeline: (i) Hann-window power spectrogram, (ii) per-harmonic
SNR weights, (iii) per-harmonic peaks refined by a 3-point parabola on log
power, each divided by its order and averaged with weights w_k * k**2. The
peak of the strongest harmonic anchors the others: harmonic k starts at the
bin nearest k times the anchor and moves to the largest of it and its two
neighbours. Zero padding is fixed at 2 times the window's next power of two:
refining each harmonic on its own grid, not rescaled onto the fundamental's,
keeps the noiseless bias near 0.1 mHz at that padding, and less padding voids
that bound. Audio, or video flattened to rows with static scene content
removed, is read at the working rate: the lowest 500 * 2**j Hz whose Nyquist
holds every band edge k * (nominal_hz + band_halfwidth_hz), or at its own rate
when that is slower.

Bringing a stream down by up/down, the fraction nearest target / rate whose
denominator is at most 10**6, computes scipy.signal.resample_poly's default:
y[n] = sum_i x[i] * h[n * down + half - i * up] for n < ceil(len(x) * up / down),
x zero outside its samples, h a Kaiser (beta 5) windowed sinc at cutoff
1 / max(up, down) of the Nyquist rate with 2 * half + 1 taps, half =
10 * max(up, down), scaled to sum to up. It runs on numpy alone, as bounded
matrix products whose values do not depend on the BLAS thread count.

``spectrogram`` works out one band table before any STFT work: harmonic
k's band, k * (nominal_hz +- band_halfwidth_hz), and a surround 4 times as
wide. It rejects a band outside the spectrum or under the 3 bins the peak fit
needs. The matrix carries the table and the STFT clock, so the weights and the
tracker take no config, and holds only the surround columns, each equal bit for
bit to its column over the whole rfft grid. At 60 Hz harmonics 1-4 are read at
500 Hz, harmonic 5 (edge 302.5 Hz) at 1 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError, _real
from .media_synth import AudioStream, EnfSeries, VideoLumaStream, _harmonic_orders

_LOG_EPS = 1e-300
_MAX_SNR_RATIO = 1e12
# harmonic_weights' noise surround spans +-4 band halfwidths around each
# harmonic; these are also the only columns the spectrogram keeps
_SURROUND_HALFWIDTHS = 4.0
# complex values per rfft block: 8 windows at nfft 16384 (a 16 s window at
# 500 Hz), 16 at 8192 (an 8 s window at 500 Hz). The padded frames and their
# transform are allocated once per call, about 2 MB together at this size
_STFT_BLOCK_VALUES = 2**17
# _resample's matrix products: output phases (columns), output rows, and inputs
# summed per value. Holding the sum to 128 terms keeps it inside one block of
# the BLAS's reduction, so threads split only rows and columns and the values do
# not depend on the thread count; OpenBLAS with 441 terms did not hold that.
_RESAMPLE_PHASES = 16
_RESAMPLE_ROWS = 512
_RESAMPLE_INPUTS = 128


@dataclass
class EstimatorConfig:
    nominal_hz: float = 60.0
    harmonics: Tuple[int, ...] = (1, 2, 3)
    band_halfwidth_hz: float = 0.5  # halfwidth at order 1; order k uses k * this
    stft_window_s: float = 8.0
    stft_overlap_frac: float = 0.5

    def __post_init__(self):
        _real(self.stft_overlap_frac, "stft_overlap_frac", 0, closed=True)
        _real(1 - self.stft_overlap_frac, "1 - stft_overlap_frac", 0)
        self.harmonics = _harmonic_orders(self.harmonics)
        for name in ("nominal_hz", "stft_window_s", "band_halfwidth_hz"):
            _real(getattr(self, name), name, 0)


@dataclass
class PowerSpectrumMatrix:
    freq_bins: np.ndarray  # Hz, strictly increasing
    power: np.ndarray  # shape (windows, len(freq_bins)), >= 0
    bands: dict  # harmonic k -> (lo, hi, s_lo, s_hi) column ranges, in cfg.harmonics order
    start_s: float  # center of the first window, seconds
    step_s: float  # hop between window centers, seconds

    def __post_init__(self):
        if self.power.ndim != 2 or self.power.shape[1] != len(self.freq_bins):
            raise InvalidArgumentError("power matrix dimensions inconsistent with bins")


def _band_hz(k: int, cfg: EstimatorConfig, halfwidths: float = 1.0) -> Tuple[float, float]:
    """Harmonic k's band, k * nominal_hz +- k * band_halfwidth_hz, widened
    ``halfwidths`` times: (lo_hz, hi_hz)."""
    center, half = k * cfg.nominal_hz, halfwidths * (k * cfg.band_halfwidth_hz)
    return center - half, center + half


def _lowpass(up: int, down: int) -> Tuple[np.ndarray, int]:
    """(h, half): resample_poly's default filter, as the module docstring states it."""
    half = 10 * max(up, down)
    cutoff = 1.0 / max(up, down)
    m = np.arange(half + 1.0)  # taps half..2*half; h is even about tap half
    right = cutoff * np.sinc(cutoff * m) * np.i0(5.0 * np.sqrt(1.0 - (m / half) ** 2.0))
    right /= np.i0(5.0)
    h = np.concatenate((right[:0:-1], right))
    h /= h.sum()
    h *= up
    return h, half


def _resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """x resampled by coprime up/down, y as the module docstring defines it.

    The output is cut into rows of U = w * up values and the input into rows of
    D = w * down, w >= 1. Output n = a * U + p reads input i = a * D + o with
    tap p * down + half - o * up, whatever the row a; so a group of phases p
    reads a fixed range of offsets o, and its values in every row are matrix
    products of input rows, shifted by whole rows, with a small table of taps.
    Each product spans bounded numbers of rows, phases and offsets: no work
    array grows with the stream or with up * down.
    """
    h, half = _lowpass(up, down)
    n_out = -(-len(x) * up // down)
    w = max(1, _RESAMPLE_PHASES // up)  # up = 1 would give one phase per row
    U, D = w * up, w * down
    full, rem = divmod(len(x), D)
    rows = x[: full * D].reshape(full, D)
    y = np.zeros((-(-n_out // U), U))
    for p0 in range(0, U, _RESAMPLE_PHASES):
        p = np.arange(p0, min(p0 + _RESAMPLE_PHASES, U))
        cols = slice(p0, p0 + len(p))
        o_lo = -((half - p[0] * down) // up)  # first offset with a tap, ceil
        o_hi = (p[-1] * down + half) // up
        s = o_lo
        while s <= o_hi:
            k = s // D  # these offsets lie in input row a + k
            e = min(o_hi + 1, (k + 1) * D, s + _RESAMPLE_INPUTS)
            tap = p * down + half - np.arange(s, e)[:, None] * up
            table = np.where((tap >= 0) & (tap <= 2 * half), h[np.clip(tap, 0, 2 * half)], 0.0)
            c0, c1 = s - k * D, e - k * D
            # rows a whose row a + k is whole; before row 0 the input is zero
            for a0 in range(max(0, -k), min(len(y), full - k), _RESAMPLE_ROWS):
                a1 = min(a0 + _RESAMPLE_ROWS, full - k, len(y))
                y[a0:a1, cols] += rows[a0 + k : a1 + k, c0:c1] @ table
            # the partial last input row
            if 0 <= full - k < len(y) and c0 < rem:
                tail = x[full * D + c0 : full * D + min(c1, rem)]
                y[full - k, cols] += tail @ table[: len(tail)]
            s = e
    return y.reshape(-1)[:n_out]


def _at_working_rate(x: np.ndarray, rate_hz: float, cfg: EstimatorConfig):
    """(x, rate_hz) brought down to the working rate when faster, else as given;
    band edges are those of _band_table, so the two agree at a tie."""
    edge = max(_band_hz(k, cfg)[1] for k in cfg.harmonics)
    target = 500.0
    while target / 2.0 < edge:
        target *= 2.0
    if rate_hz <= target:
        return x, rate_hz
    frac = Fraction(target / rate_hz).limit_denominator(1_000_000)
    if frac == 1:  # resample_poly returns the samples unchanged at 1/1
        return x, target
    return _resample(x, frac.numerator, frac.denominator), target


def preprocess_audio(a: AudioStream, cfg: EstimatorConfig) -> Tuple[np.ndarray, float]:
    """The samples at the working rate: (samples, rate_hz)."""
    return _at_working_rate(a.samples, a.sample_rate_hz, cfg)


def video_row_signal(v: VideoLumaStream) -> Tuple[np.ndarray, float]:
    """Flatten a rolling-shutter luma stream into a 1-D sample series.

    The per-row means are concatenated at fps*frame_height samples/s, with
    each row's across-time mean subtracted to suppress static scene content.

    Returns (samples, rate_hz).
    """
    resid = v.frames - v.frames.mean(axis=0, keepdims=True)
    return resid.reshape(-1), v.fps * v.frame_height


def _band_table(freqs: np.ndarray, cfg: EstimatorConfig) -> dict:
    """Harmonic k -> (lo, hi, s_lo, s_hi), index ranges into freqs.

    freqs[lo:hi] is harmonic k's band (_band_hz) and freqs[s_lo:s_hi] its
    surround, _SURROUND_HALFWIDTHS times as wide. Every band must lie inside
    freqs and hold the 3 bins combine_and_track fits its parabola to.
    """
    table = {}
    for k in cfg.harmonics:
        band_hz, surround_hz = _band_hz(k, cfg), _band_hz(k, cfg, _SURROUND_HALFWIDTHS)
        band = f"harmonic order {k}: band [{band_hz[0]:.1f}, {band_hz[1]:.1f}] Hz"
        if band_hz[0] < freqs[0] or band_hz[1] > freqs[-1]:
            raise InvalidArgumentError(f"{band} outside spectrum")
        lo, s_lo = (int(i) for i in np.searchsorted(freqs, [band_hz[0], surround_hz[0]], "left"))
        hi, s_hi = (int(i) for i in np.searchsorted(freqs, [band_hz[1], surround_hz[1]], "right"))
        if hi - lo < 3:
            raise InvalidArgumentError(
                f"{band} holds {hi - lo} bins, fewer than 3; lengthen stft_window_s")
        table[k] = (lo, hi, s_lo, s_hi)
    return table


def _fft_size(w_len: int) -> int:
    """The STFT's FFT size: 2 times the least power of two >= the window."""
    return 2 << max(w_len - 1, 0).bit_length()


def spectrogram(samples, rate_hz: float, cfg: EstimatorConfig) -> PowerSpectrumMatrix:
    """Hann-windowed magnitude-squared STFT over the surround of each configured
    harmonic: the only bins ``harmonic_weights`` and ``combine_and_track`` read.

    Power is scaled so that a row summed over the whole rfft grid would equal the
    energy of its windowed segment (Parseval-consistent). The band table is worked
    out on the full frequency grid, and fails, before any rfft.
    """
    x = np.asarray(samples, dtype=float)
    w_len = int(round(cfg.stft_window_s * rate_hz))
    if len(x) < w_len:
        raise InvalidArgumentError(
            f"series length {len(x)} shorter than one STFT window ({w_len} samples)"
        )
    hop = max(1, int(round(w_len * (1.0 - cfg.stft_overlap_frac))))
    nfft = _fft_size(w_len)
    n_seg = (len(x) - w_len) // hop + 1
    freqs = np.fft.rfftfreq(nfft, 1.0 / rate_hz)
    bands = _band_table(freqs, cfg)
    # every harmonic's surround, the table re-indexed onto those columns
    surrounds = [np.arange(s_lo, s_hi) for _, _, s_lo, s_hi in bands.values()]
    cols = np.unique(np.concatenate(surrounds))
    bands = {k: tuple(int(i) for i in np.searchsorted(cols, r)) for k, r in bands.items()}
    # fold negative frequencies in, as Parseval has it; nfft is a power of
    # two, so DC and Nyquist are the only unpaired bins
    fold = np.where((cols == 0) | (cols == len(freqs) - 1), 1.0, 2.0)
    win = np.hanning(w_len)
    segs = np.lib.stride_tricks.sliding_window_view(x, w_len)[::hop][:n_seg]
    power = np.empty((n_seg, len(fold)))
    # rfft transforms each row on its own, so blocking changes no bit; one
    # block of frames is reused, its zero padding past w_len written once
    rows = min(n_seg, max(1, _STFT_BLOCK_VALUES // nfft))
    frames = np.zeros((rows, nfft))
    spec = np.empty((rows, nfft // 2 + 1), dtype=complex)
    for r in range(0, n_seg, rows):
        m = min(rows, n_seg - r)
        np.multiply(segs[r : r + m], win, out=frames[:m, :w_len])
        np.fft.rfft(frames[:m], axis=1, out=spec[:m])
        power[r : r + m] = np.abs(spec[:m, cols]) ** 2 * fold / nfft
    return PowerSpectrumMatrix(freqs[cols], power, bands, w_len / 2.0 / rate_hz, hop / rate_hz)


def harmonic_weights(psm: PowerSpectrumMatrix) -> np.ndarray:
    """Weight per configured harmonic, proportional to time-averaged in-band SNR.

    SNR per time bin is (in-band peak power / median of the surrounding
    out-of-band power) - 1, clamped below at zero. Degenerate all-zero input
    falls back to uniform weights. Weights follow the order of ``psm.bands``.
    """
    raw = np.zeros(len(psm.bands))
    for idx, (lo, hi, s_lo, s_hi) in enumerate(psm.bands.values()):
        # surround: the band's neighbourhood, minus the band itself
        surround = np.concatenate([psm.power[:, s_lo:lo], psm.power[:, hi:s_hi]], axis=1)
        peak = psm.power[:, lo:hi].max(axis=1)
        med = np.median(surround, axis=1) if surround.shape[1] else np.zeros(len(peak))
        ratio = np.divide(peak, med, out=np.full_like(peak, _MAX_SNR_RATIO), where=med > 0)
        ratio[peak == 0] = 1.0  # no band energy -> zero SNR contribution
        snr = np.clip(ratio, 0.0, _MAX_SNR_RATIO) - 1.0
        raw[idx] = max(float(np.mean(snr)), 0.0)
    total = raw.sum()
    if total <= 0.0:
        return np.full(len(raw), 1.0 / len(raw))
    return raw / total


def _refined_hz(psm: PowerSpectrumMatrix, lo: int, hi: int, i: np.ndarray) -> np.ndarray:
    """freq_bins[i] per row, moved by the vertex of the parabola through log power at
    columns i - 1, i, i + 1 (at most half a bin). A column on the edge of the band
    [lo, hi) is not moved, nor one where the log power does not curve down."""
    freqs, delta = psm.freq_bins, np.zeros(len(i))
    rows = np.flatnonzero((i > lo) & (i < hi - 1))
    left, center, right = (np.log(psm.power[rows, i[rows] + d] + _LOG_EPS) for d in (-1, 0, 1))
    den = left - 2.0 * center + right
    ok = (den < 0) & np.isfinite(den)
    delta[rows[ok]] = np.clip(0.5 * (left[ok] - right[ok]) / den[ok], -0.5, 0.5)
    return freqs[i] + delta * (freqs[lo + 1] - freqs[lo])


def combine_and_track(psm: PowerSpectrumMatrix, weights) -> EnfSeries:
    """Track each harmonic's own refined peak per time bin and combine them.

    The strongest harmonic k (largest weight) gives the anchor: its band argmax,
    refined (_refined_hz), over k. Each harmonic k of weight above 0 then starts
    at the band bin nearest k times the anchor, moves to the largest of that bin
    and its two neighbours in the band, and refines it; over k, that is its
    estimate f_k. The estimate is sum(w_k * k**2 * f_k) / sum(w_k * k**2), since
    the error of f_k falls as 1 / k. The series is on the matrix's clock.
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(psm.bands):
        raise InvalidArgumentError("weights length must match the harmonics of psm.bands")
    if not (np.all(np.isfinite(weights)) and np.max(weights) > 0):
        raise InvalidArgumentError("weights must be finite, one of them above 0")
    power, freqs = psm.power, psm.freq_bins
    rows = np.arange(power.shape[0])
    k = list(psm.bands)[int(np.argmax(weights))]
    lo, hi, _, _ = psm.bands[k]
    anchor = _refined_hz(psm, lo, hi, lo + np.argmax(power[:, lo:hi], axis=1)) / k
    total, scale = np.zeros(len(rows)), 0.0
    for w, (k, (lo, hi, _, _)) in zip(weights, psm.bands.items()):
        if w <= 0:
            continue
        start = np.rint((k * anchor - freqs[lo]) / (freqs[lo + 1] - freqs[lo]))
        near = lo + np.clip(start, 0, hi - lo - 1).astype(int)
        # the start bin first, so that a tie keeps it
        cand = np.clip(near[:, None] + np.array([0, -1, 1]), lo, hi - 1)
        peak = cand[rows, np.argmax(power[rows[:, None], cand], axis=1)]
        f_k = _refined_hz(psm, lo, hi, peak) / k
        total += w * k * k * f_k
        scale += w * k * k
    return EnfSeries(start_time_s=psm.start_s, step_s=psm.step_s, values_hz=total / scale)


def default_config_for(stream) -> EstimatorConfig:
    """Defaults for the stream's kind, at the nominal_hz its meta records (if any)."""
    kw = {"harmonics": (2,)} if isinstance(stream, VideoLumaStream) else {}
    nominal = getattr(stream, "meta", {}).get("nominal_hz")
    if nominal is not None:
        kw["nominal_hz"] = nominal
    return EstimatorConfig(**kw)


def estimate_enf(stream, cfg: Optional[EstimatorConfig] = None) -> EnfSeries:
    """Full pipeline entry point for AudioStream or VideoLumaStream. A cfg whose
    nominal_hz differs from the one the stream's meta records, if any, is rejected."""
    if cfg is None:
        cfg = default_config_for(stream)
    recorded = getattr(stream, "meta", {}).get("nominal_hz", cfg.nominal_hz)
    if cfg.nominal_hz != recorded:
        raise InvalidArgumentError(
            f"nominal_hz {cfg.nominal_hz} disagrees with the stream's recorded {recorded} Hz"
        )
    if isinstance(stream, AudioStream):
        x, rate = preprocess_audio(stream, cfg)
    elif isinstance(stream, VideoLumaStream):
        x, rate = _at_working_rate(*video_row_signal(stream), cfg)
    else:
        raise InvalidArgumentError(f"unsupported stream type: {type(stream).__name__}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("stream holds non-finite samples")
    psm = spectrogram(x, rate, cfg)
    return combine_and_track(psm, harmonic_weights(psm))
