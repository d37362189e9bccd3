"""Estimation pipeline tests. Stage oracles (Parseval energy, DFT peak
position, known-tone weights) come first; the end-to-end accuracy bounds are
checked against truths the estimator never sees directly."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from enfnet import enf_estimation
from enfnet import (
    EnfSeries,
    EstimatorConfig,
    GridConfig,
    InvalidArgumentError,
    combine_and_track,
    embed_audio,
    embed_video,
    estimate_enf,
    gen_enf_truth,
    harmonic_weights,
    preprocess_audio,
    spectrogram,
    video_row_signal,
)

HARMONICS_123 = ((1, 1.0), (2, 0.5), (3, 0.33))


def const_truth(f_hz=60.0, duration_s=60.0):
    return EnfSeries(0.0, 1.0, np.full(int(duration_s), f_hz))


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_noop_at_target_rate():
    a = embed_audio(const_truth(duration_s=10), 500.0, ((1, 1.0),), 20.0, seed=1)
    out, rate = preprocess_audio(a, EstimatorConfig())
    np.testing.assert_array_equal(out, a.samples)
    assert rate == 500.0


def test_harmonics_1_to_5_read_a_1khz_stream_unchanged():
    a = embed_audio(const_truth(duration_s=10), 1000.0, ((1, 1.0),), 20.0, seed=1)
    out, rate = preprocess_audio(a, EstimatorConfig(harmonics=(1, 2, 3, 4, 5)))
    np.testing.assert_array_equal(out, a.samples)
    assert rate == 1000.0


def test_preprocess_decimates_and_keeps_tone():
    a = embed_audio(const_truth(duration_s=10), 44_100.0, ((1, 1.0),), np.inf, seed=1)
    out, rate = preprocess_audio(a, EstimatorConfig())
    assert rate == 500.0
    assert abs(len(out) - 5000) <= 1
    spec = np.abs(np.fft.rfft(out))
    freqs = np.fft.rfftfreq(len(out), 1.0 / 500.0)
    assert abs(freqs[np.argmax(spec)] - 60.0) < 0.15


def test_slower_stream_is_read_at_its_own_rate():
    a = embed_audio(const_truth(duration_s=10), 250.0, ((1, 1.0),), 20.0, seed=1)
    out, rate = preprocess_audio(a, EstimatorConfig())
    np.testing.assert_array_equal(out, a.samples)
    assert rate == 250.0
    # its 125 Hz Nyquist holds harmonic 2 but not harmonic 3's 181.5 Hz band edge
    with pytest.raises(InvalidArgumentError, match=r"harmonic order 3.*181\.5\] Hz outside"):
        estimate_enf(a, EstimatorConfig())


# to 500 Hz from 1, 8, 48 and 44.1 kHz audio and from 25 fps x 360-row and
# 30 fps x 1080-row video; 44.1 kHz to 1 kHz; and 29.97 fps x 360 rows, where
# one 26973 x 1250 matrix of taps per shift of whole rows would take 270 MB
RESAMPLE_RATIOS = [(1, 2), (1, 16), (1, 18), (1, 96), (5, 324), (5, 441), (10, 441),
                   (1250, 26973)]


@pytest.mark.parametrize("up, down", RESAMPLE_RATIOS)
def test_resample_matches_resample_poly(up, down):
    from scipy.signal import resample_poly

    half = 10 * max(up, down)
    rng = np.random.default_rng([up, down])
    # shorter than one filter half, a few rows with a partial one, many row blocks
    for n in (1, half // up - 1, 37 * down + 5, 1_000_003):
        x = rng.standard_normal(n)
        want, got = resample_poly(x, up, down), enf_estimation._resample(x, up, down)
        assert len(got) == len(want) == -(-n * up // down)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))


def test_a_ratio_that_rounds_to_one_leaves_the_samples_alone():
    x = np.random.default_rng(0).standard_normal(1000)
    out, rate = enf_estimation._at_working_rate(x, 500.0001, EstimatorConfig())
    assert out is x and rate == 500.0


def test_resampled_bytes_do_not_depend_on_blas_threads():
    script = (
        "import hashlib, numpy as np\n"
        "from enfnet.enf_estimation import _resample\n"
        "x = np.random.default_rng(3).standard_normal(1_000_003)\n"
        "for up, down in ((1, 2), (1, 18), (5, 441), (10, 441)):\n"
        "    print(hashlib.sha256(_resample(x, up, down).tobytes()).hexdigest())\n"
    )
    src = str(Path(enf_estimation.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0].split()) == 4
    assert digests[0] == digests[1]


def test_estimate_of_a_2997_fps_video_holds_a_small_multiple_of_the_stream():
    v = embed_video(gen_enf_truth(GridConfig(seed=5), 120.0, 1.0), 29.97, 360, 20.0, seed=5)
    tracemalloc.start()
    try:
        estimate_enf(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row residual, the 539461-tap filter and its window's temporaries:
    # 3.6 times the 10.4 MB of frames with numpy 2.4
    assert peak < 4 * v.frames.nbytes


@pytest.mark.parametrize(
    "kind, rate, harmonics, nominal_hz, expected",
    [
        ("audio", 44_100.0, None, 60.0, 500.0),
        ("audio", 1000.0, (1, 2, 3, 4), 50.0, 500.0),
        ("audio", 1000.0, (1, 2, 3, 4), 60.0, 500.0),
        ("audio", 1000.0, (1, 2, 3, 4, 5), 60.0, 1000.0),
        ("audio", 44_100.0, (1, 2, 3, 4, 5), 60.0, 1000.0),
        ("audio", 400.0, None, 60.0, 400.0),
        # harmonic 4 of 62 Hz ends at 4 * 62 + 4 * 0.5 = 250 Hz, the 500 Hz Nyquist:
        # the rule and the band table agree at the tie
        ("audio", 1000.0, (4,), 62.0, 500.0),
        ("video", 360, None, 60.0, 500.0),  # 25 fps x 360 rows
    ],
)
def test_working_rate(monkeypatch, kind, rate, harmonics, nominal_hz, expected):
    """estimate_enf reads the lowest 500 * 2**j Hz whose Nyquist holds every
    band edge, or the stream's own rate when that is slower."""
    # a constant truth that a grid at nominal_hz drew, so the stream records that nominal
    truth = gen_enf_truth(GridConfig(nominal_hz=nominal_hz, drift_std_hz=0.0), 20.0, 1.0)
    if kind == "audio":
        orders = [(k, 1.0) for k in harmonics or (1, 2, 3)]
        stream = embed_audio(truth, rate, orders, 20.0, seed=1)
    else:
        stream = embed_video(truth, 25.0, rate, 20.0, seed=1)
    cfg = enf_estimation.default_config_for(stream)
    if harmonics:
        cfg = dataclasses.replace(cfg, harmonics=harmonics)
    seen = []

    def spy(x, rate_hz, *args, **kwargs):
        seen.append(rate_hz)
        return spectrogram(x, rate_hz, *args, **kwargs)

    monkeypatch.setattr(enf_estimation, "spectrogram", spy)
    estimate_enf(stream, cfg)
    assert seen == [expected]


@pytest.mark.parametrize("field", ["nominal_hz", "stft_window_s", "band_halfwidth_hz"])
@pytest.mark.parametrize("value", [0.0, -5.0, np.nan, np.inf])
def test_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(InvalidArgumentError):
        EstimatorConfig(**{field: value})


@pytest.mark.parametrize("frac", [-0.1, 1.0, np.nan, "0.5"])
def test_config_rejects_an_overlap_outside_0_to_1(frac):
    with pytest.raises(InvalidArgumentError, match="stft_overlap_frac must be finite"):
        EstimatorConfig(stft_overlap_frac=frac)


@pytest.mark.parametrize("harmonics", [(), (0, 1), (2, 2), (1.5, 2.7), (2.0,)])
def test_config_rejects_empty_non_positive_or_repeated_harmonics(harmonics):
    with pytest.raises(InvalidArgumentError, match="harmonics must be"):
        EstimatorConfig(harmonics=harmonics)


def test_estimate_rejects_a_nominal_other_than_the_streams():
    grid = GridConfig(nominal_hz=50.0, seed=3, max_dev_hz=0.5)
    stream = embed_audio(gen_enf_truth(grid, 120.0, 1.0), 1000.0, ((1, 1.0), (2, 0.5)), 20.0,
                         seed=3)
    with pytest.raises(InvalidArgumentError, match=r"nominal_hz 60\.0 .* recorded 50\.0 Hz"):
        estimate_enf(stream, EstimatorConfig())
    # a stream that records no nominal is read at the estimator's
    bare = dataclasses.replace(stream, meta={})
    est = estimate_enf(bare, EstimatorConfig(nominal_hz=50.0))
    assert np.all(np.abs(est.values_hz - 50.0) <= 0.5)


def test_row_signal_shapes():
    t = const_truth(duration_s=10)
    sig, rate = video_row_signal(embed_video(t, 25.0, 32, 20.0, seed=1))
    assert sig.shape == (250 * 32,)
    assert rate == 25.0 * 32


def test_row_signal_static_cancellation_hazard():
    # At fps=30 a constant 120 Hz flicker repeats identically every frame
    # (4 cycles/frame), so the static-scene subtraction removes it entirely.
    t = const_truth(duration_s=10)
    v30 = embed_video(t, 30.0, 32, np.inf, seed=1)
    sig30, _ = video_row_signal(v30)
    assert np.max(np.abs(sig30)) < 1e-9
    # fps=25 (4.8 cycles/frame) leaves the flicker intact at 120 Hz
    v25 = embed_video(t, 25.0, 32, np.inf, seed=1)
    sig25, rate = video_row_signal(v25)
    spec = np.abs(np.fft.rfft(sig25))
    freqs = np.fft.rfftfreq(len(sig25), 1.0 / rate)
    assert abs(freqs[np.argmax(spec)] - 120.0) < 0.2


# ---------------------------------------------------------------------------
# spectrogram


def full_spectrogram(x, rate_hz, cfg):
    """Oracle: the whole Hann-window power matrix, one rfft per window and every column
    of the rfft grid kept, with the band table of that grid."""
    w_len = int(round(cfg.stft_window_s * rate_hz))
    hop = max(1, int(round(w_len * (1.0 - cfg.stft_overlap_frac))))
    nfft = enf_estimation._fft_size(w_len)
    rows = []
    for i0 in range(0, len(x) - w_len + 1, hop):
        p = np.abs(np.fft.rfft(x[i0 : i0 + w_len] * np.hanning(w_len), n=nfft)) ** 2
        p[1:-1] *= 2.0
        rows.append(p / nfft)
    freqs = np.fft.rfftfreq(nfft, 1.0 / rate_hz)
    return enf_estimation.PowerSpectrumMatrix(
        freqs, np.array(rows), enf_estimation._band_table(freqs, cfg), w_len / 2.0 / rate_hz,
        hop / rate_hz)


@pytest.mark.parametrize("power", [np.zeros((2, 4)), np.zeros(3)], ids=["4 columns", "1-D"])
def test_power_matrix_must_match_its_bins(power):
    with pytest.raises(InvalidArgumentError, match="inconsistent with bins"):
        enf_estimation.PowerSpectrumMatrix(np.arange(3.0), power, {}, 0.0, 1.0)


def test_spectrogram_parseval_energy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4000)
    cfg = EstimatorConfig(stft_window_s=2.0, stft_overlap_frac=0.5)
    psm = full_spectrogram(x, 1000.0, cfg)
    w = np.hanning(2000)
    for i in range(psm.power.shape[0]):
        seg = x[i * 1000 : i * 1000 + 2000] * w
        assert abs(psm.power[i].sum() / np.sum(seg**2) - 1.0) < 1e-6


def test_spectrogram_tone_peak_and_grid():
    f0 = 123.4
    x = np.sin(2 * np.pi * f0 * np.arange(8000) / 1000.0)
    cfg = EstimatorConfig(stft_window_s=2.0, stft_overlap_frac=0.5)
    psm = spectrogram(x, 1000.0, cfg)
    df = psm.freq_bins[1] - psm.freq_bins[0]
    for row in psm.power:
        assert abs(psm.freq_bins[np.argmax(row)] - f0) <= df
    # window centers: first at w/2, spaced by the hop
    assert (psm.start_s, psm.step_s) == (1.0, 1.0)
    assert psm.power.shape[0] == 7


def test_spectrogram_zero_input_and_short_input():
    cfg = EstimatorConfig(stft_window_s=2.0)
    psm = spectrogram(np.zeros(4000), 1000.0, cfg)
    assert np.all(psm.power == 0.0)
    with pytest.raises(InvalidArgumentError):
        spectrogram(np.zeros(100), 1000.0, cfg)


# the spectrogram keeps only the columns the estimator reads, each equal bit
# for bit to its column of the whole matrix

CORPUS = dict(stft_window_s=16.0, stft_overlap_frac=0.9375)


def _hum(rate_hz, duration_s, nominal_hz=60.0, seed=0):
    t = np.arange(int(rate_hz * duration_s)) / rate_hz
    x = np.random.default_rng(seed).normal(size=len(t))
    return x + sum(np.sin(2 * np.pi * k * nominal_hz * t + k) / k for k in (1, 2, 3, 4))


def _assert_band_columns_match(x, rate_hz, cfg):
    full = full_spectrogram(x, rate_hz, cfg)
    band = spectrogram(x, rate_hz, cfg)
    assert np.all(np.diff(band.freq_bins) > 0)
    cols = np.searchsorted(full.freq_bins, band.freq_bins)
    np.testing.assert_array_equal(full.freq_bins[cols], band.freq_bins)
    assert (full.start_s, full.step_s) == (band.start_s, band.step_s)
    assert band.power.tobytes() == full.power[:, cols].tobytes()
    # the full-grid table re-indexed onto the kept columns is the table of those columns
    kept_table = enf_estimation._band_table(band.freq_bins, cfg)
    assert list(band.bands.items()) == list(kept_table.items())
    assert list(full.bands) == list(cfg.harmonics)
    # nothing outside the harmonic surrounds is kept
    dist = np.min([np.abs(band.freq_bins - k * cfg.nominal_hz) / (k * cfg.band_halfwidth_hz)
                   for k in cfg.harmonics], axis=0)
    assert np.all(dist <= 4.0 + 1e-9)
    return full, band


@pytest.mark.parametrize(
    "kw, rate_hz, duration_s",
    [
        (CORPUS, 1000.0, 64),
        (CORPUS, 500.0, 64),
        (dict(stft_window_s=8.0, stft_overlap_frac=0.875, harmonics=(2,)), 500.0, 60),
        (dict(nominal_hz=50.0, harmonics=(1, 2, 3, 4)), 500.0, 60),
        # surrounds of harmonics 2 and 3 overlap: [88, 152] and [132, 228] Hz
        (dict(band_halfwidth_hz=4.0), 1000.0, 30),
    ],
    ids=["corpus-1k", "corpus-500", "cmos-8s", "50hz-h1234", "overlapping-surrounds"],
)
def test_band_only_columns_equal_full_columns(kw, rate_hz, duration_s):
    cfg = EstimatorConfig(**kw)
    full, band = _assert_band_columns_match(_hum(rate_hz, duration_s, cfg.nominal_hz), rate_hz, cfg)
    assert band.power.shape[1] < full.power.shape[1]
    w = harmonic_weights(full)
    assert harmonic_weights(band).tobytes() == w.tobytes()
    e_full = combine_and_track(full, w).values_hz
    assert combine_and_track(band, w).values_hz.tobytes() == e_full.tobytes()


@pytest.mark.parametrize("n_seg", [1, 5, 9])  # 16 s at 1 kHz: 4 windows per rfft block
def test_spectrogram_block_edges(n_seg):
    cfg = EstimatorConfig(stft_window_s=16.0, stft_overlap_frac=0.5)
    x = _hum(1000.0, 16 + 8 * (n_seg - 1))
    full, _ = _assert_band_columns_match(x, 1000.0, cfg)
    assert full.power.shape == (n_seg, 16385)
    # every row equals a one-window transform of its own segment
    win = np.hanning(16_000)
    for i in (0, n_seg // 2, n_seg - 1):
        p = np.abs(np.fft.rfft(x[i * 8000 : i * 8000 + 16_000] * win, n=32768)) ** 2
        p[1:-1] *= 2.0
        p /= 32768
        assert full.power[i].tobytes() == p.tobytes()


def test_spectrogram_block_size_changes_no_bit(monkeypatch):
    """The reused block of frames holds no stale row and no dirty padding: one
    window per block, and 3 per block over 11 windows (a partial last block),
    give the bytes of the default blocks and of the whole matrix's columns."""
    cfg = EstimatorConfig(**CORPUS)
    x = np.random.default_rng(31).normal(size=500 * 26)  # 11 windows of 16 s
    _, ref = _assert_band_columns_match(x, 500.0, cfg)
    assert ref.power.shape[0] == 11
    nfft = enf_estimation._fft_size(8000)
    for block in (nfft, 3 * nfft):
        monkeypatch.setattr(enf_estimation, "_STFT_BLOCK_VALUES", block)
        assert spectrogram(x, 500.0, cfg).power.tobytes() == ref.power.tobytes()


def test_spectrogram_memory_is_its_output_plus_one_block():
    """The padded frames and their transform are one block each, reused, so a
    300 s corpus-config call holds little beyond the power it returns."""
    cfg = EstimatorConfig(**CORPUS)
    x = _hum(500.0, 300)
    spectrogram(x[:8000], 500.0, cfg)  # the first call in a process imports numpy.fft
    tracemalloc.start()
    try:
        psm = spectrogram(x, 500.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psm.power.shape[0] == 285
    assert peak <= psm.power.nbytes + 3 * 2**20


def test_estimate_equals_full_matrix_pipeline():
    truth = gen_enf_truth(GridConfig(seed=17), 120.0, 1.0)
    a = embed_audio(truth, 1000.0, HARMONICS_123, 10.0, seed=17)
    cfg = EstimatorConfig(**CORPUS)
    x, rate = preprocess_audio(a, cfg)
    assert rate == 500.0
    cases = [(a, cfg, x)]
    # 25 fps x 20 rows: the row signal is already at the 500 Hz working rate
    v = embed_video(truth, 25.0, 20, 20.0, seed=17)
    cases.append((v, EstimatorConfig(harmonics=(2,)), video_row_signal(v)[0]))
    for stream, cfg, x in cases:
        full = full_spectrogram(x, 500.0, cfg)
        expected = combine_and_track(full, harmonic_weights(full))
        got = estimate_enf(stream, cfg)
        assert got.values_hz.tobytes() == expected.values_hz.tobytes()
        assert (got.start_time_s, got.step_s) == (expected.start_time_s, expected.step_s)


def test_empty_read_set_is_an_invalid_argument():
    # audio at 200 Hz: a 100 Hz Nyquist, below harmonic 2's 120 Hz band
    a = embed_audio(const_truth(duration_s=30), 200.0, [(1, 1.0)], 20.0, seed=1)
    cfg = EstimatorConfig(harmonics=(2,))
    with pytest.raises(InvalidArgumentError, match="outside spectrum"):
        estimate_enf(a, cfg)
    with pytest.raises(InvalidArgumentError):
        spectrogram(np.zeros(1000), 25.0, cfg)
    # bins 7.8 Hz apart: no bin falls in the 59.5-60.5 Hz band
    with pytest.raises(InvalidArgumentError, match="holds 0 bins"):
        spectrogram(np.zeros(1000), 1000.0, EstimatorConfig(stft_window_s=0.05))


def test_band_only_checks_every_band_before_any_rfft(monkeypatch):
    def no_rfft(*args, **kwargs):
        raise AssertionError("rfft called before the band checks")

    monkeypatch.setattr(np.fft, "rfft", no_rfft)
    # bins 0.49 Hz apart: the 59.5-60.5 Hz base band holds 59.57 and 60.06 Hz only
    cfg = EstimatorConfig(stft_window_s=1.0)
    with pytest.raises(InvalidArgumentError, match="order 1: .* holds 2 bins, fewer than 3"):
        spectrogram(np.zeros(4000), 500.0, cfg)
    # every band is fitted, not only the lowest order's: bins 0.98 Hz apart hold
    # 119.14 and 120.12 Hz of the 119-121 Hz band of harmonic 2
    cfg = EstimatorConfig(stft_window_s=0.5, harmonics=(2,))
    with pytest.raises(InvalidArgumentError, match="order 2: .* holds 2 bins, fewer than 3"):
        spectrogram(np.zeros(4000), 500.0, cfg)


# ---------------------------------------------------------------------------
# harmonic weights


def test_weights_single_harmonic_is_one():
    a = embed_audio(const_truth(), 1000.0, ((1, 1.0),), 20.0, seed=2)
    cfg = EstimatorConfig(harmonics=(1,))
    psm = spectrogram(a.samples, 1000.0, cfg)
    np.testing.assert_allclose(harmonic_weights(psm), [1.0])


def test_weights_follow_harmonic_snr():
    # fundamental carries nearly all the energy -> it should dominate
    a = embed_audio(const_truth(), 1000.0, ((1, 1.0), (2, 0.05), (3, 0.02)), 15.0, seed=2)
    cfg = EstimatorConfig()
    psm = spectrogram(a.samples, 1000.0, cfg)
    w = harmonic_weights(psm)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] > 0.6
    assert w[0] > w[1] > w[2]


def test_weights_uniform_on_silence_and_loose_on_noise():
    cfg = EstimatorConfig()
    psm = spectrogram(np.zeros(60_000), 1000.0, cfg)
    np.testing.assert_allclose(harmonic_weights(psm), np.full(3, 1 / 3))
    rng = np.random.default_rng(11)
    psm = spectrogram(rng.normal(size=120_000), 1000.0, cfg)
    w = harmonic_weights(psm)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0.15) and np.all(w < 0.55)


# the band table is checked in spectrogram, on the full rfft grid before any
# rfft; the weights read it from the matrix


def test_weights_band_outside_spectrum():
    cfg = EstimatorConfig()
    # 100 Hz sampling -> spectrum tops out at 50 Hz, below the 60 Hz band
    with pytest.raises(InvalidArgumentError, match="outside spectrum"):
        spectrogram(np.zeros(1000), 100.0, cfg)


def test_weights_band_without_a_bin():
    cfg = EstimatorConfig(stft_window_s=0.05)
    # bins 3.9 Hz apart: 58.6 and 62.5 Hz straddle the 59.5-60.5 Hz band
    with pytest.raises(InvalidArgumentError, match="order 1: .* holds 0 bins"):
        spectrogram(np.zeros(1000), 1000.0, cfg)


# ---------------------------------------------------------------------------
# tracking


def test_track_constant_tone_sub_millihertz():
    a = embed_audio(const_truth(duration_s=120), 1000.0, HARMONICS_123, np.inf, seed=3)
    est = estimate_enf(a)
    assert np.max(np.abs(est.values_hz - 60.0)) < 1e-3


# the 4 s localization, 8 s default and 16 s corpus configurations
TRACK_CONFIGS = [dict(stft_window_s=4.0, stft_overlap_frac=0.75), dict(), CORPUS]


@pytest.mark.parametrize("kw", TRACK_CONFIGS, ids=["4s", "8s", "16s"])
@pytest.mark.parametrize("f_hz", [59.977, 60.013, 60.031])
def test_track_off_grid_tone_bias(kw, f_hz):
    # rescaling harmonic k onto the fundamental's bins and interpolating read up
    # to 2.65 mHz here at the default 2x padding
    a = embed_audio(const_truth(f_hz, 120), 1000.0, HARMONICS_123, np.inf, seed=3)
    est = estimate_enf(a, EstimatorConfig(**kw))
    assert np.max(np.abs(est.values_hz - f_hz)) <= 0.25e-3


def _sqrt_crlb_hz(snr_db, window_s, rate_hz, harmonics):
    """Cramer-Rao bound on the std of a frequency estimated from window_s of
    harmonics (order k, amplitude a_k) in white noise snr_db below their power:
    var >= 6 sigma**2 rate**2 / (pi**2 N (N**2 - 1) sum(k**2 a_k**2)), N samples."""
    k, a = np.array(harmonics, dtype=float).T
    sigma2 = np.sum(a**2 / 2.0) / 10.0 ** (snr_db / 10.0)
    n = window_s * rate_hz
    return rate_hz * np.sqrt(6.0 * sigma2 / (np.pi**2 * n * (n * n - 1.0) * np.sum(k**2 * a**2)))


@pytest.mark.parametrize("kw", TRACK_CONFIGS[1:], ids=["8s", "16s"])
@pytest.mark.parametrize("snr_db", [20.0, 10.0])
def test_track_constant_tone_rmse_near_the_cramer_rao_bound(kw, snr_db):
    # a Hann window alone costs about 1.4 times the bound; the rescaled and
    # interpolated combination read 2.0-2.1 times it even at 4x padding
    cfg = EstimatorConfig(**kw)
    errs = []
    for seed in range(4):
        a = embed_audio(const_truth(60.013, 300), 1000.0, HARMONICS_123, snr_db, seed=seed)
        errs.append(estimate_enf(a, cfg).values_hz - 60.013)
    rmse = np.sqrt(np.mean(np.concatenate(errs) ** 2))
    assert rmse <= 1.8 * _sqrt_crlb_hz(snr_db, cfg.stft_window_s, 1000.0, HARMONICS_123)


def test_track_offset_tone_shift_equivariance():
    a0 = embed_audio(const_truth(60.00, 120), 1000.0, HARMONICS_123, np.inf, seed=3)
    a1 = embed_audio(const_truth(60.02, 120), 1000.0, HARMONICS_123, np.inf, seed=3)
    e0 = estimate_enf(a0)
    e1 = estimate_enf(a1)
    shift = e1.values_hz - e0.values_hz
    assert np.max(np.abs(shift - 0.02)) < 2e-3


def test_track_random_walk_rmse():
    truth = gen_enf_truth(GridConfig(seed=17), 120.0, 1.0)
    a = embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=17)
    est = estimate_enf(a)
    ref = np.interp(est.times(), truth.times(), truth.values_hz)
    rmse = np.sqrt(np.mean((est.values_hz - ref) ** 2))
    assert rmse < 5e-3


def test_track_amplitude_scale_invariance():
    a = embed_audio(const_truth(duration_s=60), 1000.0, HARMONICS_123, 20.0, seed=4)
    cfg = EstimatorConfig()
    psm = spectrogram(a.samples, 1000.0, cfg)
    psm5 = spectrogram(5.0 * a.samples, 1000.0, cfg)
    w = harmonic_weights(psm)
    w5 = harmonic_weights(psm5)
    np.testing.assert_allclose(w5, w, atol=1e-9)
    e = combine_and_track(psm, w)
    e5 = combine_and_track(psm5, w5)
    np.testing.assert_allclose(e5.values_hz, e.values_hz, atol=1e-9)


def test_track_output_clock():
    a = embed_audio(const_truth(duration_s=60), 1000.0, HARMONICS_123, 20.0, seed=4)
    est = estimate_enf(a)  # 8 s window, 50% overlap -> 4 s hop
    n = (60_000 - 8000) // 4000 + 1
    assert len(est) == n
    assert est.start_time_s == pytest.approx(4.0)
    assert est.step_s == pytest.approx(4.0)


def test_band_table_is_worked_out_once_per_estimate(monkeypatch):
    calls = []

    def spy(freqs, cfg):
        calls.append(len(freqs))
        return band_table(freqs, cfg)

    band_table = enf_estimation._band_table
    monkeypatch.setattr(enf_estimation, "_band_table", spy)
    t = const_truth(duration_s=20)
    for stream in (embed_audio(t, 1000.0, HARMONICS_123, 20.0, seed=1),
                   embed_video(t, 25.0, 20, 20.0, seed=1)):
        calls.clear()
        estimate_enf(stream)
        assert calls == [8192 // 2 + 1]  # once, on the full rfft grid of an 8 s window at 500 Hz


def _combine_per_bin_loop(psm, weights, cfg):
    """Reference: each harmonic's peak, refined and averaged with weights w * k**2, one
    time bin at a time, from bands found again on the matrix's own bins."""
    freqs, hw = psm.freq_bins, cfg.band_halfwidth_hz

    def band(k):
        lo_hz, hi_hz = k * (cfg.nominal_hz - hw), k * (cfg.nominal_hz + hw)
        return np.searchsorted(freqs, lo_hz, "left"), np.searchsorted(freqs, hi_hz, "right")

    def refined(row, lo, hi, i):
        delta = 0.0
        if lo < i < hi - 1:
            left, center, right = np.log(row[i - 1 : i + 2] + 1e-300)
            den = left - 2.0 * center + right
            if den < 0 and np.isfinite(den):
                delta = float(np.clip(0.5 * (left - right) / den, -0.5, 0.5))
        return freqs[i] + delta * (freqs[lo + 1] - freqs[lo])

    strongest = cfg.harmonics[int(np.argmax(weights))]
    est = np.empty(psm.power.shape[0])
    for ti, row in enumerate(psm.power):
        lo, hi = band(strongest)
        anchor = refined(row, lo, hi, lo + int(np.argmax(row[lo:hi]))) / strongest
        total = scale = 0.0
        for w, k in zip(weights, cfg.harmonics):
            if w <= 0:
                continue
            lo, hi = band(k)
            i = int(np.clip(lo + np.rint((k * anchor - freqs[lo]) / (freqs[lo + 1] - freqs[lo])),
                            lo, hi - 1))
            for j in (i - 1, i + 1):
                if lo <= j < hi and row[j] > row[i]:
                    i = j
            total += w * k * k * (refined(row, lo, hi, i) / k)
            scale += w * k * k
        est[ti] = total / scale
    return est


@pytest.mark.parametrize(
    "kw, seed",
    [
        (dict(), 0),
        (CORPUS, 1),
        (dict(harmonics=(2, 3)), 2),  # no order 1: the bands start at order 2
        (dict(nominal_hz=50.0, harmonics=(1, 2, 3, 4)), 3),
    ],
)
def test_combine_matches_per_bin_loop(kw, seed):
    cfg = EstimatorConfig(**kw)
    x = _hum(500.0, 64, cfg.nominal_hz, seed)
    for psm in (full_spectrogram(x, 500.0, cfg), spectrogram(x, 500.0, cfg)):
        w = harmonic_weights(psm)
        expected = _combine_per_bin_loop(psm, w, cfg)
        assert combine_and_track(psm, w).values_hz.tobytes() == expected.tobytes()
        # a weight of 0 drops its harmonic; the anchor moves to the largest weight
        w = np.array([0.0] + [1.0] * (len(w) - 1)) if len(w) > 1 else w
        expected = _combine_per_bin_loop(psm, w, cfg)
        assert combine_and_track(psm, w).values_hz.tobytes() == expected.tobytes()


def test_combine_rejects_mismatched_weights():
    cfg = EstimatorConfig()
    for psm in (full_spectrogram(np.zeros(20_000), 1000.0, cfg),
                spectrogram(np.zeros(20_000), 1000.0, cfg)):
        with pytest.raises(InvalidArgumentError):
            combine_and_track(psm, [0.5, 0.5])
        for w in ([0.0, 0.0, 0.0], [0.5, np.nan, 0.5], [-1.0, 0.0, -0.5]):
            with pytest.raises(InvalidArgumentError, match="one of them above 0"):
                combine_and_track(psm, w)


# ---------------------------------------------------------------------------
# video end to end


def test_video_estimate_tracks_truth():
    truth = gen_enf_truth(GridConfig(seed=23), 120.0, 1.0)
    v = embed_video(truth, 25.0, 120, 20.0, seed=23)
    est = estimate_enf(v)  # defaults to the 120 Hz band, reported at base
    ref = np.interp(est.times(), truth.times(), truth.values_hz)
    rmse = np.sqrt(np.mean((est.values_hz - ref) ** 2))
    assert rmse < 5e-3


def test_estimate_rejects_unknown_type():
    with pytest.raises(InvalidArgumentError):
        estimate_enf(np.zeros(1000))
