"""Synthesis oracles: the generators are checked against independent physics
(zero-crossing counts, DFT peaks, measured SNR) rather than against their own
implementation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enfnet import (
    AudioStream,
    ForgeryMode,
    GridConfig,
    EnfSeries,
    InvalidArgumentError,
    ShutterType,
    VideoLumaStream,
    embed_audio,
    embed_video,
    forge_segments,
    gen_enf_truth,
)
from enfnet.media_synth import sample_view

HARMONICS_123 = ((1, 1.0), (2, 0.5), (3, 0.33))


def const_truth(f_hz=60.0, duration_s=10.0, step_s=1.0):
    n = int(round(duration_s / step_s))
    return EnfSeries(0.0, step_s, np.full(n, f_hz))


# ---------------------------------------------------------------------------
# grid truth random walk


def test_walk_length_and_determinism():
    cfg = GridConfig(seed=7)
    a = gen_enf_truth(cfg, 600.0, 1.0)
    b = gen_enf_truth(cfg, 600.0, 1.0)
    assert len(a) == 600
    assert a.step_s == 1.0 and a.start_time_s == 0.0
    np.testing.assert_array_equal(a.values_hz, b.values_hz)
    c = gen_enf_truth(GridConfig(seed=8), 600.0, 1.0)
    assert not np.array_equal(a.values_hz, c.values_hz)


def test_walk_increment_distribution():
    # Monte-Carlo oracle: with the clamp effectively disabled, one-step
    # differences must be N(0, drift^2 * step).
    cfg = GridConfig(drift_std_hz=0.005, max_dev_hz=1e9, seed=123)
    t = gen_enf_truth(cfg, 200_000.0, 1.0)
    d = np.diff(t.values_hz)
    assert abs(np.mean(d)) < 5e-5
    assert abs(np.std(d) / 0.005 - 1.0) < 0.02


def test_walk_clamp_bound_many_seeds():
    for seed in range(300):
        t = gen_enf_truth(GridConfig(seed=seed), 600.0, 1.0)
        dev = np.abs(t.values_hz - 60.0)
        assert dev.max() <= 0.05 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    drift=st.floats(0.0, 0.1),
    max_dev=st.floats(0.001, 0.5),
    step=st.floats(0.1, 10.0),
    n=st.integers(1, 100),
    seed=st.integers(0, 2**31),
)
def test_walk_invariants(drift, max_dev, step, n, seed):
    cfg = GridConfig(drift_std_hz=drift, max_dev_hz=max_dev, seed=seed)
    t = gen_enf_truth(cfg, n * step, step)
    assert len(t) == n
    assert np.all(np.abs(t.values_hz - 60.0) <= max_dev + 1e-12)


def test_walk_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        gen_enf_truth(GridConfig(), -1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        gen_enf_truth(GridConfig(), 10.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        GridConfig(max_dev_hz=0.0)


# ---------------------------------------------------------------------------
# audio embedding


def test_audio_zero_crossing_count():
    """Independent oracle: a clean 60 Hz tone crosses zero 2*f*T times."""
    stream = embed_audio(const_truth(), 1000.0, ((1, 1.0),), np.inf, seed=3)
    s = stream.samples
    crossings = int(np.sum(s[:-1] * s[1:] < 0))
    assert abs(crossings - 2 * 60 * 10) <= 1


def test_audio_dft_peak_at_each_harmonic():
    stream = embed_audio(const_truth(), 1000.0, HARMONICS_123, np.inf, seed=3)
    spec = np.abs(np.fft.rfft(stream.samples))
    freqs = np.fft.rfftfreq(len(stream.samples), 1e-3)
    for k in (1, 2, 3):
        band = (freqs > 60 * k - 5) & (freqs < 60 * k + 5)
        peak = freqs[band][np.argmax(spec[band])]
        assert abs(peak - 60.0 * k) < 0.15  # one DFT bin at 10 s support


def test_audio_sample_count_and_determinism():
    truth = gen_enf_truth(GridConfig(seed=1), 30.0, 1.0)
    a = embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=5)
    b = embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=5)
    c = embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=6)
    assert len(a.samples) == 30_000
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_audio_measured_snr_within_half_db():
    truth = gen_enf_truth(GridConfig(seed=2), 60.0, 1.0)
    for target in (10.0, 20.0, 30.0):
        noisy = embed_audio(truth, 1000.0, HARMONICS_123, target, seed=42)
        clean = embed_audio(truth, 1000.0, HARMONICS_123, np.inf, seed=42)
        noise = noisy.samples - clean.samples
        got = 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(noise**2))
        assert abs(got - target) < 0.5


def test_audio_nyquist_guard():
    with pytest.raises(InvalidArgumentError):
        embed_audio(const_truth(), 300.0, HARMONICS_123, 20.0)  # 3*60*2 > 300
    with pytest.raises(InvalidArgumentError):
        embed_audio(const_truth(), 1000.0, (), 20.0)


# ---------------------------------------------------------------------------
# video embedding


def test_video_cmos_shape_and_flicker_frequency():
    stream = embed_video(const_truth(), 25.0, 80, ShutterType.RollingCMOS, np.inf, seed=1)
    assert stream.frames.shape == (250, 80)
    flat = stream.frames.reshape(-1)
    assert flat.min() >= 0.0  # raised-cosine flicker never goes negative
    spec = np.abs(np.fft.rfft(flat - flat.mean()))
    freqs = np.fft.rfftfreq(len(flat), 1.0 / (25.0 * 80))
    assert abs(freqs[np.argmax(spec)] - 120.0) < 0.2


def test_video_ccd_rows_identical():
    stream = embed_video(const_truth(), 30.0, 64, ShutterType.GlobalCCD, 20.0, seed=1)
    assert stream.frames.shape == (300, 64)
    # global shutter: a frame is one illumination sample smeared across rows
    assert np.all(stream.frames == stream.frames[:, :1])


def test_video_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        embed_video(const_truth(), 0.0, 64, ShutterType.RollingCMOS, 20.0)
    with pytest.raises(InvalidArgumentError):
        embed_video(const_truth(), 25.0, 0, ShutterType.RollingCMOS, 20.0)


@pytest.mark.parametrize("shape", [(500,), (25, 20, 2)])
def test_video_stream_rejects_frames_that_are_not_2d(shape):
    with pytest.raises(InvalidArgumentError):
        VideoLumaStream(25.0, ShutterType.RollingCMOS, np.zeros(shape), const_truth())


def test_video_stream_height_is_the_frames_width():
    stream = VideoLumaStream(25.0, ShutterType.GlobalCCD, np.zeros((250, 20)), const_truth())
    assert stream.frame_height == 20 and stream.duration_s == 10.0


def test_snr_just_inside_float64_range_embeds():
    quiet = embed_audio(const_truth(), 1000.0, HARMONICS_123, 3000.0)
    clean = embed_audio(const_truth(), 1000.0, HARMONICS_123, np.inf)
    np.testing.assert_allclose(quiet.samples, clean.samples, rtol=0.0, atol=1e-140)


# ---------------------------------------------------------------------------
# forgeries


def _audio_for_forgery(seed=0, snr_db=np.inf, duration_s=60.0):
    grid = GridConfig(seed=seed)
    truth = gen_enf_truth(grid, duration_s, 1.0)
    return embed_audio(truth, 1000.0, HARMONICS_123, snr_db, seed=seed, grid=grid)


def test_replace_enf_touches_only_the_segment():
    stream = _audio_for_forgery(seed=4)
    forged = forge_segments(stream, [(20.0, 30.0)], ForgeryMode.ReplaceEnf, seed=9)
    np.testing.assert_array_equal(forged.samples[:20_000], stream.samples[:20_000])
    np.testing.assert_array_equal(forged.samples[30_000:], stream.samples[30_000:])
    assert not np.array_equal(forged.samples[20_000:30_000], stream.samples[20_000:30_000])
    assert forged.forged_intervals == [(20.0, 30.0)]
    # original must not be mutated
    assert stream.forged_intervals == []


def test_replace_enf_segment_decorrelated():
    stream = _audio_for_forgery(seed=4)
    forged = forge_segments(stream, [(20.0, 40.0)], ForgeryMode.ReplaceEnf, seed=9)
    a = stream.samples[20_000:40_000]
    b = forged.samples[20_000:40_000]
    # two independent walks share the 60 Hz carrier, so the waveforms stay
    # partially phase-coherent over a finite window; just rule out same content
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.5
    # and the hum is still there, just from a different grid history
    spec = np.abs(np.fft.rfft(b))
    freqs = np.fft.rfftfreq(len(b), 1e-3)
    assert 59.0 < freqs[np.argmax(spec)] < 61.0


def test_strip_enf_power_matched_but_hum_gone():
    stream = _audio_for_forgery(seed=5)
    forged = forge_segments(stream, [(10.0, 30.0)], ForgeryMode.StripEnf, seed=2)
    seg0 = stream.samples[10_000:30_000]
    seg1 = forged.samples[10_000:30_000]
    assert abs(np.mean(seg1**2) / np.mean(seg0**2) - 1.0) < 0.05

    def band_power(x):
        spec = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(len(x), 1e-3)
        return spec[(freqs > 59.5) & (freqs < 60.5)].sum() / spec.sum()

    assert band_power(seg0) > 0.2
    assert band_power(seg1) < 0.02


def test_forgery_intervals_merge_and_validate():
    stream = _audio_for_forgery(seed=6)
    # overlapping segments are rejected outright
    with pytest.raises(InvalidArgumentError):
        forge_segments(stream, [(5.0, 10.0), (8.0, 12.0)], ForgeryMode.StripEnf)
    with pytest.raises(InvalidArgumentError):
        forge_segments(stream, [(50.0, 70.0)], ForgeryMode.StripEnf)
    # adjacent-but-disjoint segments merge in the label list
    forged = forge_segments(stream, [(5.0, 10.0), (10.0, 15.0)], ForgeryMode.StripEnf)
    assert forged.forged_intervals == [(5.0, 15.0)]


KINDS = ("audio", "RollingCMOS", "GlobalCCD")


def _stream_of(kind, seed=3):
    grid = GridConfig(seed=seed)
    truth = gen_enf_truth(grid, 20.0, 1.0)
    if kind == "audio":
        return embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=seed, grid=grid)
    return embed_video(truth, 10.0, 16, ShutterType(kind), 20.0, seed=seed, grid=grid)


def _values(stream):
    return stream.samples if isinstance(stream, AudioStream) else stream.frames.reshape(-1)


@pytest.mark.parametrize(
    "kind, rate, unit",
    [("audio", 1000.0, 1), ("RollingCMOS", 10.0 * 16, 1), ("GlobalCCD", 10.0, 16)],
)
def test_sample_view_is_the_flat_stream_without_a_copy(kind, rate, unit):
    stream = _stream_of(kind)
    flat, got_rate, got_unit = sample_view(stream)
    assert (got_rate, got_unit) == (rate, unit)
    np.testing.assert_array_equal(flat, _values(stream))
    assert np.shares_memory(flat, stream.samples if kind == "audio" else stream.frames)
    if kind != "audio":  # frames handed over in Fortran order are still viewed
        f_order = dataclasses.replace(stream, frames=np.asfortranarray(stream.frames))
        assert np.shares_memory(sample_view(f_order)[0], f_order.frames)
    with pytest.raises(InvalidArgumentError):
        sample_view(np.zeros(4))


# the forged span 4.26-9.74 s in flat indices: audio samples at 1 kHz, rows at
# 10 fps x 16 rows, and GlobalCCD frames 43-96 (42.6 and 97.4 snap to frames)
SPANS = {"audio": (4260, 9740), "RollingCMOS": (682, 1558), "GlobalCCD": (43 * 16, 97 * 16)}


@pytest.mark.parametrize("mode", list(ForgeryMode))
@pytest.mark.parametrize("kind", KINDS)
def test_forgery_changes_exactly_the_segment(kind, mode):
    stream = _stream_of(kind)
    before = _values(stream).copy()
    forged = forge_segments(stream, [(4.26, 9.74)], mode, seed=1)
    src, out = _values(stream), _values(forged)
    i0, i1 = SPANS[kind]
    assert src.tobytes() == before.tobytes()  # the input is not mutated
    assert out[:i0].tobytes() == src[:i0].tobytes()
    assert out[i1:].tobytes() == src[i1:].tobytes()
    assert np.all(out[i0:i1] != src[i0:i1])
    assert forged.forged_intervals == [(4.26, 9.74)] and stream.forged_intervals == []
    if mode is ForgeryMode.StripEnf:
        # white noise around 0 for audio and the segment mean for video, with
        # the segment's power about that centre
        seg = src[i0:i1]
        centre = 0.0 if kind == "audio" else np.mean(seg)
        sigma = np.sqrt(np.mean((seg - centre) ** 2))
        # one independent draw per time index: GlobalCCD has 54 (whole frames),
        # so its std bound is five standard errors of a std instead of 10 %
        draws = (i1 - i0) // sample_view(stream)[2]
        assert np.mean(out[i0:i1]) == pytest.approx(centre, abs=5 * sigma / np.sqrt(draws))
        rel = 0.1 if draws == i1 - i0 else 5 / np.sqrt(2 * draws)
        assert np.std(out[i0:i1]) == pytest.approx(sigma, rel=rel)


def test_strip_enf_keeps_global_shutter_frames_one_sample():
    """Forged GlobalCCD frames stay row-constant, and the frame means (one
    illumination sample per frame) keep the segment's power."""
    stream = _stream_of("GlobalCCD")
    frames = forge_segments(stream, [(4.26, 9.74)], ForgeryMode.StripEnf, seed=1).frames
    assert np.all(frames == frames[:, :1])
    before, after = stream.frames[43:97].mean(axis=1), frames[43:97].mean(axis=1)
    assert np.std(after) == pytest.approx(np.std(before), rel=5 / np.sqrt(2 * len(before)))


def test_video_forgery_global_shutter_snaps_to_frames():
    grid = GridConfig(seed=3)
    truth = gen_enf_truth(grid, 20.0, 1.0)
    stream = embed_video(truth, 10.0, 16, ShutterType.GlobalCCD, np.inf, seed=3, grid=grid)
    forged = forge_segments(stream, [(1.26, 3.74)], ForgeryMode.StripEnf, seed=1)
    np.testing.assert_array_equal(forged.frames[:13], stream.frames[:13])
    np.testing.assert_array_equal(forged.frames[37:], stream.frames[37:])
    assert not np.array_equal(forged.frames[13:37], stream.frames[13:37])


def test_video_forgery_rolling_replace():
    grid = GridConfig(seed=8)
    truth = gen_enf_truth(grid, 30.0, 1.0)
    stream = embed_video(truth, 25.0, 40, ShutterType.RollingCMOS, 25.0, seed=8, grid=grid)
    forged = forge_segments(stream, [(10.0, 20.0)], ForgeryMode.ReplaceEnf, seed=2)
    flat0 = stream.frames.reshape(-1)
    flat1 = forged.frames.reshape(-1)
    rate = 25.0 * 40
    i0, i1 = int(10 * rate), int(20 * rate)
    np.testing.assert_array_equal(flat1[:i0], flat0[:i0])
    assert not np.array_equal(flat1[i0:i1], flat0[i0:i1])
