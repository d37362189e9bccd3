"""ENF estimation from audio and video streams.

Three-step pipeline: (i) Hann-window power spectrogram, (ii) per-harmonic
SNR weights, (iii) weighted combination of frequency-rescaled spectrum
slices with parabolic peak refinement. Audio is decimated to a low working
rate first; video is flattened to the row-sample stream with static scene
content removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.signal import resample_poly

from .errors import InvalidArgumentError
from .media_synth import AudioStream, EnfSeries, ShutterType, VideoLumaStream

_LOG_EPS = 1e-300
_MAX_SNR_RATIO = 1e12


@dataclass
class EstimatorConfig:
    nominal_hz: float = 60.0
    harmonics: Tuple[int, ...] = (1, 2, 3)
    band_halfwidth_hz: float = 0.5  # halfwidth at order 1; order k uses k * this
    stft_window_s: float = 8.0
    stft_overlap_frac: float = 0.5
    fft_size: Optional[int] = None  # None -> 4 x next power of two over the window
    audio_target_rate_hz: float = 1000.0

    def __post_init__(self):
        if not (0.0 <= self.stft_overlap_frac < 1.0):
            raise InvalidArgumentError("stft_overlap_frac must lie in [0, 1)")
        if not self.harmonics or any(int(k) <= 0 for k in self.harmonics):
            raise InvalidArgumentError("harmonics must be non-empty positive integers")
        self.harmonics = tuple(int(k) for k in self.harmonics)
        if self.stft_window_s <= 0:
            raise InvalidArgumentError("stft_window_s must be > 0")
        if self.band_halfwidth_hz <= 0:
            raise InvalidArgumentError("band_halfwidth_hz must be > 0")


@dataclass
class PowerSpectrumMatrix:
    time_bins: np.ndarray  # window centers, seconds
    freq_bins: np.ndarray  # Hz, strictly increasing
    power: np.ndarray  # shape (len(time_bins), len(freq_bins)), >= 0

    def __post_init__(self):
        if self.power.shape != (len(self.time_bins), len(self.freq_bins)):
            raise InvalidArgumentError("power matrix dimensions inconsistent with bins")


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _decimate(x: np.ndarray, rate_hz: float, target_hz: float) -> np.ndarray:
    """Polyphase anti-aliased rate reduction."""
    if abs(rate_hz - target_hz) < 1e-9:
        return x
    if rate_hz < target_hz:
        raise InvalidArgumentError(
            f"cannot upsample: stream at {rate_hz} Hz below target {target_hz} Hz"
        )
    frac = Fraction(target_hz / rate_hz).limit_denominator(1_000_000)
    return resample_poly(x, frac.numerator, frac.denominator)


def preprocess_audio(a: AudioStream, cfg: EstimatorConfig) -> np.ndarray:
    """Anti-alias and decimate to cfg.audio_target_rate_hz."""
    return _decimate(np.asarray(a.samples, dtype=float), a.sample_rate_hz, cfg.audio_target_rate_hz)


def video_row_signal(v: VideoLumaStream) -> Tuple[np.ndarray, float]:
    """Flatten a luma stream into a 1-D sample series.

    RollingCMOS: concatenated per-row means at fps*frame_height samples/s,
    with each row's across-time mean subtracted to suppress static scene
    content. GlobalCCD: one mean per frame at fps samples/s.

    Returns (samples, rate_hz).
    """
    frames = np.asarray(v.frames, dtype=float)
    if v.shutter is ShutterType.RollingCMOS:
        resid = frames - frames.mean(axis=0, keepdims=True)
        return resid.reshape(-1), v.fps * v.frame_height
    return frames.mean(axis=1), v.fps


def spectrogram(samples, rate_hz: float, cfg: EstimatorConfig) -> PowerSpectrumMatrix:
    """Hann-windowed magnitude-squared STFT.

    Power is scaled so that the sum over one time column equals the energy of
    that windowed segment (Parseval-consistent).
    """
    x = np.asarray(samples, dtype=float)
    w_len = int(round(cfg.stft_window_s * rate_hz))
    if len(x) < w_len:
        raise InvalidArgumentError(
            f"series length {len(x)} shorter than one STFT window ({w_len} samples)"
        )
    hop = max(1, int(round(w_len * (1.0 - cfg.stft_overlap_frac))))
    nfft = cfg.fft_size if cfg.fft_size is not None else 4 * _next_pow2(w_len)
    if nfft < w_len or (nfft & (nfft - 1)) != 0:
        raise InvalidArgumentError("fft_size must be a power of two >= window sample count")
    n_seg = (len(x) - w_len) // hop + 1
    win = np.hanning(w_len)
    segs = np.lib.stride_tricks.sliding_window_view(x, w_len)[::hop][:n_seg]
    spec = np.fft.rfft(segs * win, n=nfft, axis=1)
    power = np.abs(spec) ** 2
    # fold negative frequencies so column sums obey Parseval
    power[:, 1:-1] *= 2.0
    if nfft % 2 != 0:
        power[:, -1] *= 2.0
    power /= nfft
    times = (np.arange(n_seg) * hop + w_len / 2.0) / rate_hz
    freqs = np.fft.rfftfreq(nfft, 1.0 / rate_hz)
    return PowerSpectrumMatrix(time_bins=times, freq_bins=freqs, power=power)


def _band_indices(freqs, lo, hi):
    return int(np.searchsorted(freqs, lo, side="left")), int(np.searchsorted(freqs, hi, side="right"))


def harmonic_weights(psm: PowerSpectrumMatrix, cfg: EstimatorConfig) -> np.ndarray:
    """Weight per configured harmonic, proportional to time-averaged in-band SNR.

    SNR per time bin is (in-band peak power / median of the surrounding
    out-of-band power) - 1, clamped below at zero. Degenerate all-zero input
    falls back to uniform weights.
    """
    freqs = psm.freq_bins
    raw = np.zeros(len(cfg.harmonics))
    for idx, k in enumerate(cfg.harmonics):
        hw = k * cfg.band_halfwidth_hz
        lo_hz, hi_hz = k * cfg.nominal_hz - hw, k * cfg.nominal_hz + hw
        if lo_hz < freqs[0] or hi_hz > freqs[-1]:
            raise InvalidArgumentError(
                f"harmonic order {k}: band [{lo_hz:.1f}, {hi_hz:.1f}] Hz outside spectrum"
            )
        lo, hi = _band_indices(freqs, lo_hz, hi_hz)
        # surround: +-4 halfwidths around the harmonic, minus the band itself
        s_lo, s_hi = _band_indices(freqs, k * cfg.nominal_hz - 4.0 * hw, k * cfg.nominal_hz + 4.0 * hw)
        s_lo = max(s_lo, 0)
        s_hi = min(s_hi, len(freqs))
        surround = np.concatenate([psm.power[:, s_lo:lo], psm.power[:, hi:s_hi]], axis=1)
        peak = psm.power[:, lo:hi].max(axis=1)
        med = np.median(surround, axis=1) if surround.shape[1] else np.zeros(len(peak))
        ratio = np.divide(
            peak, med, out=np.full_like(peak, _MAX_SNR_RATIO), where=med > 0
        )
        ratio[peak == 0] = 1.0  # no band energy -> zero SNR contribution
        snr = np.clip(ratio, 0.0, _MAX_SNR_RATIO) - 1.0
        raw[idx] = max(float(np.mean(snr)), 0.0)
    total = raw.sum()
    if total <= 0.0:
        return np.full(len(cfg.harmonics), 1.0 / len(cfg.harmonics))
    return raw / total


def combine_and_track(psm: PowerSpectrumMatrix, weights, cfg: EstimatorConfig) -> EnfSeries:
    """Combine rescaled harmonic slices and track the peak per time bin.

    Each harmonic band is mapped to base-band by dividing its bin frequencies
    by the order, interpolated onto a common grid, and summed with the given
    weights; the per-bin estimate is the combined argmax refined by 3-point
    parabolic interpolation on log power.
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(cfg.harmonics):
        raise InvalidArgumentError("weights length must match cfg.harmonics")
    freqs = psm.freq_bins
    k0 = min(cfg.harmonics)
    hw = cfg.band_halfwidth_hz
    lo0, hi0 = _band_indices(freqs, k0 * (cfg.nominal_hz - hw), k0 * (cfg.nominal_hz + hw))
    grid = freqs[lo0:hi0] / k0
    if len(grid) < 3:
        raise InvalidArgumentError("base band resolves to fewer than 3 bins; increase fft_size")
    combined = np.zeros((psm.power.shape[0], len(grid)))
    for w, k in zip(weights, cfg.harmonics):
        lo, hi = _band_indices(freqs, k * (cfg.nominal_hz - hw), k * (cfg.nominal_hz + hw))
        base_freqs = freqs[lo:hi] / k
        sl = psm.power[:, lo:hi]
        for ti in range(sl.shape[0]):
            combined[ti] += w * np.interp(grid, base_freqs, sl[ti])
    dg = grid[1] - grid[0]
    est = np.empty(combined.shape[0])
    for ti in range(combined.shape[0]):
        i = int(np.argmax(combined[ti]))
        delta = 0.0
        if 0 < i < len(grid) - 1:
            left, center, right = np.log(combined[ti, i - 1 : i + 2] + _LOG_EPS)
            den = left - 2.0 * center + right
            if den < 0 and np.isfinite(den):
                delta = float(np.clip(0.5 * (left - right) / den, -0.5, 0.5))
        est[ti] = grid[i] + delta * dg
    if len(psm.time_bins) > 1:
        step = float(psm.time_bins[1] - psm.time_bins[0])
    else:
        step = cfg.stft_window_s * (1.0 - cfg.stft_overlap_frac)
    return EnfSeries(start_time_s=float(psm.time_bins[0]), step_s=step, values_hz=est)


def default_config_for(stream) -> EstimatorConfig:
    """Defaults for the stream's kind, at the nominal_hz its meta records (if any)."""
    kw = {"harmonics": (2,)} if isinstance(stream, VideoLumaStream) else {}
    nominal = getattr(stream, "meta", {}).get("nominal_hz")
    if nominal is not None:
        kw["nominal_hz"] = nominal
    return EstimatorConfig(**kw)


def estimate_enf(stream, cfg: Optional[EstimatorConfig] = None) -> EnfSeries:
    """Full pipeline entry point for AudioStream or VideoLumaStream."""
    if cfg is None:
        cfg = default_config_for(stream)
    if isinstance(stream, AudioStream):
        x = preprocess_audio(stream, cfg)
        rate = cfg.audio_target_rate_hz
    elif isinstance(stream, VideoLumaStream):
        x, rate = video_row_signal(stream)
        if rate > cfg.audio_target_rate_hz:
            x = _decimate(x, rate, cfg.audio_target_rate_hz)
            rate = cfg.audio_target_rate_hz
    else:
        raise InvalidArgumentError(f"unsupported stream type: {type(stream).__name__}")
    psm = spectrogram(x, rate, cfg)
    weights = harmonic_weights(psm, cfg)
    return combine_and_track(psm, weights, cfg)
