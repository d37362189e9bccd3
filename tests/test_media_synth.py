"""Synthesis oracles: the generators are checked against independent physics
(zero-crossing counts, DFT peaks, measured SNR) rather than against their own
implementation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enfnet import (
    AudioStream,
    ForgeryMode,
    GridConfig,
    EnfSeries,
    InvalidArgumentError,
    VideoLumaStream,
    embed_audio,
    embed_video,
    estimate_enf,
    forge_segments,
    gen_enf_truth,
)
from enfnet import media_synth
from enfnet.harness import DEFAULT_HARMONICS
from enfnet.media_synth import _BLOCK, sample_view

HARMONICS_123 = ((1, 1.0), (2, 0.5), (3, 0.33))


def const_truth(f_hz=60.0, duration_s=10.0, step_s=1.0):
    n = int(round(duration_s / step_s))
    return EnfSeries(0.0, step_s, np.full(n, f_hz))


@pytest.mark.parametrize(
    "start_s, step_s, values",
    [(0.0, 0.0, [60.0]), (0.0, -1.0, [60.0]), (0.0, 1.0, []), (0.0, 1.0, [[60.0, 60.0]]),
     (0.0, 1.0, [60.0, np.nan]), (0.0, 1.0, [60.0, np.inf]), (0.0, np.nan, [60.0]),
     (0.0, np.inf, [60.0]), (np.nan, 1.0, [60.0]), (-np.inf, 1.0, [60.0])],
    ids=["zero-step", "negative-step", "empty", "2-d", "nan", "inf", "nan-step", "inf-step",
         "nan-start", "inf-start"],
)
def test_enf_series_rejects_bad_fields(start_s, step_s, values):
    with pytest.raises(InvalidArgumentError):
        EnfSeries(start_s, step_s, values)


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
    with pytest.raises(InvalidArgumentError, match="at least one step"):
        gen_enf_truth(GridConfig(), 0.4, 1.0)
    with pytest.raises(InvalidArgumentError):
        GridConfig(max_dev_hz=0.0)
    # non-finite fields are rejected by name, before any draw
    for field, value in [("nominal_hz", np.nan), ("nominal_hz", np.inf),
                         ("drift_std_hz", np.nan), ("drift_std_hz", np.inf),
                         ("max_dev_hz", np.nan)]:
        with pytest.raises(InvalidArgumentError, match=field):
            GridConfig(**{field: value})


def test_grid_with_infinite_max_dev_is_an_unclamped_walk():
    free = gen_enf_truth(GridConfig(max_dev_hz=np.inf, seed=5), 600.0, 1.0)
    wide = gen_enf_truth(GridConfig(max_dev_hz=1e9, seed=5), 600.0, 1.0)
    np.testing.assert_array_equal(free.values_hz, wide.values_hz)


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


@pytest.mark.parametrize("shape", [(10_000, 2), (2, 10_000), (), (10_000, 1, 1)])
def test_audio_stream_rejects_samples_that_are_not_1d(shape):
    # (10_000, 2) has as many rows as the 10 s truth spans at 1 kHz
    with pytest.raises(InvalidArgumentError, match="samples must be 1-D"):
        AudioStream(1000.0, np.zeros(shape), const_truth())


def test_audio_nyquist_guard():
    with pytest.raises(InvalidArgumentError):
        embed_audio(const_truth(), 300.0, HARMONICS_123, 20.0)  # 3*60*2 > 300
    with pytest.raises(InvalidArgumentError):
        embed_audio(const_truth(), 1000.0, (), 20.0)


@pytest.mark.parametrize(
    "harmonics, message",
    [([(1, "x")], "harmonic amplitudes must be a finite number"),
     ([(1, None)], "harmonic amplitudes must be a finite number"),
     ([(1, 1.0, 2.0)], r"harmonics must be \(order, amplitude\) pairs"),
     ([1], r"harmonics must be \(order, amplitude\) pairs"),
     (5, r"harmonics must be \(order, amplitude\) pairs")],
    ids=["str-amplitude", "none-amplitude", "triple", "bare-order", "not-a-list"],
)
def test_audio_rejects_a_spec_that_is_not_real_pairs(harmonics, message):
    with pytest.raises(InvalidArgumentError, match=message):
        embed_audio(const_truth(), 1000.0, harmonics, 60.0)


def test_grid_and_series_reject_numbers_of_the_wrong_kind():
    for kw in (dict(nominal_hz="60"), dict(drift_std_hz=None), dict(max_dev_hz="0.05"),
               dict(max_dev_hz=-np.inf)):
        with pytest.raises(InvalidArgumentError, match=f"{next(iter(kw))}.* must be finite"):
            GridConfig(**kw)
    for start, step in (("0", 1.0), (0.0, "1.0"), (None, 1.0), (0.0, np.float32(np.inf))):
        with pytest.raises(InvalidArgumentError, match="must be"):
            EnfSeries(start, step, [60.0])
    # numpy scalars are kept as given
    s = EnfSeries(np.float32(0.5), np.float64(1.0), [60.0])
    assert type(s.start_time_s) is np.float32 and type(s.step_s) is np.float64


def _boom(*args, **kwargs):
    raise RuntimeError("synthesized")


@pytest.mark.parametrize("seed", [-1, 1.5, [1, -1], []], ids=["negative", "fraction",
                                                               "negative-in-list", "empty"])
def test_seeds_are_checked_before_any_draw_or_synthesis(seed, monkeypatch):
    with pytest.raises(InvalidArgumentError, match="seed must be"):
        GridConfig(seed=seed)
    monkeypatch.setattr(media_synth, "_synthesize", _boom)
    with pytest.raises(InvalidArgumentError, match="seed must be"):
        embed_audio(const_truth(), 1000.0, [(1, 1.0)], 20.0, seed=seed)
    with pytest.raises(InvalidArgumentError, match="seed must be"):
        embed_video(const_truth(), 25.0, 16, 20.0, seed=seed)


def test_numpy_integer_seeds_synthesize_as_ints():
    grid = GridConfig(seed=np.int64(3))
    assert grid.seed == 3 and type(grid.seed) is int
    truth = gen_enf_truth(grid, 10.0, 1.0)
    same = gen_enf_truth(GridConfig(seed=3), 10.0, 1.0)
    assert truth.values_hz.tobytes() == same.values_hz.tobytes()
    for embed, args in ((embed_audio, (1000.0, [(1, 1.0)], 20.0)), (embed_video, (25.0, 16, 20.0))):
        a, b = embed(truth, *args, seed=np.int64(3)), embed(truth, *args, seed=3)
        assert sample_view(a)[0].tobytes() == sample_view(b)[0].tobytes()
        assert a.meta == b.meta and a.meta["seed"] == 3


@pytest.mark.parametrize("mode", list(ForgeryMode))
def test_forge_segments_rejects_a_seed_that_is_not_whole(mode):
    stream = embed_audio(gen_enf_truth(GridConfig(seed=2), 10.0, 1.0), 1000.0, [(1, 1.0)], 20.0)
    for seed in (2.7, -1, "2"):
        with pytest.raises(InvalidArgumentError, match="seed must be"):
            forge_segments(stream, [(2.0, 4.0)], mode, seed=seed)


@pytest.mark.parametrize("harmonics", [[(1.5, 1.0)], [(2.0, 1.0)], [(1, 1.0), (1, 0.5)]],
                         ids=["fraction", "float", "repeated"])
def test_audio_rejects_orders_that_are_not_distinct_whole_numbers(harmonics):
    # a fractional order hums off the grid's harmonics (order 1.5 at 90 Hz on 60 Hz)
    with pytest.raises(InvalidArgumentError, match="harmonics must be"):
        embed_audio(const_truth(), 1000.0, harmonics, 60.0)


# ---------------------------------------------------------------------------
# video embedding


def test_video_cmos_shape_and_flicker_frequency():
    stream = embed_video(const_truth(), 25.0, 80, np.inf, seed=1)
    assert stream.frames.shape == (250, 80)
    flat = stream.frames.reshape(-1)
    assert flat.min() >= 0.0  # raised-cosine flicker never goes negative
    spec = np.abs(np.fft.rfft(flat - flat.mean()))
    freqs = np.fft.rfftfreq(len(flat), 1.0 / (25.0 * 80))
    assert abs(freqs[np.argmax(spec)] - 120.0) < 0.2


def test_video_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        embed_video(const_truth(), 0.0, 64, 20.0)
    with pytest.raises(InvalidArgumentError):
        embed_video(const_truth(), 25.0, 0, 20.0)
    with pytest.raises(InvalidArgumentError, match="frame_height must be >= 1 and an integer"):
        embed_video(const_truth(), 25.0, 64.0, 20.0)


@pytest.mark.parametrize("shape", [(500,), (25, 20, 2), (), (250, 20, 1)])
def test_video_stream_rejects_frames_that_are_not_2d(shape):
    # (250, 20, 1) has as many frames as the 10 s truth spans at 25 fps
    with pytest.raises(InvalidArgumentError, match="frames must be 2-D"):
        VideoLumaStream(25.0, np.zeros(shape), const_truth())


def test_video_stream_height_is_the_frames_width():
    stream = VideoLumaStream(25.0, np.zeros((250, 20)), const_truth())
    assert stream.frame_height == 20 and stream.duration_s == 10.0


def test_snr_just_inside_float64_range_embeds():
    quiet = embed_audio(const_truth(), 1000.0, HARMONICS_123, 3000.0)
    clean = embed_audio(const_truth(), 1000.0, HARMONICS_123, np.inf)
    np.testing.assert_allclose(quiet.samples, clean.samples, rtol=0.0, atol=1e-140)


# ---------------------------------------------------------------------------
# forgeries


def _audio_for_forgery(seed=0, snr_db=np.inf, duration_s=60.0):
    truth = gen_enf_truth(GridConfig(seed=seed), duration_s, 1.0)
    return embed_audio(truth, 1000.0, HARMONICS_123, snr_db, seed=seed)


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
    # no segments: an unchanged copy
    same = forge_segments(stream, [], ForgeryMode.ReplaceEnf)
    assert same is not stream and same.samples.tobytes() == stream.samples.tobytes()
    assert same.forged_intervals == []
    with pytest.raises(InvalidArgumentError, match="unknown forgery mode"):
        forge_segments(stream, [(5.0, 10.0)], "StripEnf")


KINDS = ("audio", "video")


def _stream_of(kind, seed=3):
    truth = gen_enf_truth(GridConfig(seed=seed), 20.0, 1.0)
    if kind == "audio":
        return embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=seed)
    return embed_video(truth, 10.0, 16, 20.0, seed=seed)


def _values(stream):
    return stream.samples if isinstance(stream, AudioStream) else stream.frames.reshape(-1)


@pytest.mark.parametrize("kind, rate", [("audio", 1000.0), ("video", 10.0 * 16)])
def test_sample_view_is_the_flat_stream_without_a_copy(kind, rate):
    stream = _stream_of(kind)
    flat, got_rate = sample_view(stream)
    assert got_rate == rate
    np.testing.assert_array_equal(flat, _values(stream))
    assert np.shares_memory(flat, stream.samples if kind == "audio" else stream.frames)
    if kind != "audio":  # frames handed over in Fortran order are still viewed
        f_order = dataclasses.replace(stream, frames=np.asfortranarray(stream.frames))
        assert np.shares_memory(sample_view(f_order)[0], f_order.frames)
    with pytest.raises(InvalidArgumentError):
        sample_view(np.zeros(4))


_FIELD = {"audio": "samples", "video": "frames"}

# how a record's values may be handed over: each comes back float64 in C order
HANDED_OVER = {
    "list": lambda v: v.tolist(),
    "int16": lambda v: v.astype(np.int16),
    "float32": lambda v: v.astype(np.float32),
    "fortran": np.asfortranarray,
}


@pytest.mark.parametrize("how", list(HANDED_OVER))
@pytest.mark.parametrize("kind", KINDS)
def test_records_hold_float64_in_c_order_however_handed_over(kind, how):
    stream = _stream_of(kind)
    # whole numbers, which int16 holds exactly
    base = np.round(getattr(stream, _FIELD[kind]))
    stream = dataclasses.replace(stream, **{_FIELD[kind]: HANDED_OVER[how](base)})
    values = getattr(stream, _FIELD[kind])
    assert values.dtype == np.float64 and values.flags.c_contiguous
    np.testing.assert_array_equal(values, base)
    assert np.shares_memory(sample_view(stream)[0], values)


def test_strip_enf_of_a_list_built_record_returns_float64():
    truth = const_truth()
    samples = np.random.default_rng(1).normal(size=10_000).tolist()
    forged = forge_segments(AudioStream(1000.0, samples, truth), [(2.0, 4.0)],
                            ForgeryMode.StripEnf, seed=1)
    assert forged.samples.dtype == np.float64
    assert forged.samples[:2000].tolist() == samples[:2000]


@pytest.mark.parametrize("kind", KINDS)
def test_replace_enf_of_an_int16_record_writes_the_replacement_as_float64(kind):
    stream = _stream_of(kind)
    as_int16 = getattr(stream, _FIELD[kind]).astype(np.int16)
    record = dataclasses.replace(stream, **{_FIELD[kind]: as_int16})
    forged = forge_segments(record, [(4.26, 9.74)], ForgeryMode.ReplaceEnf, seed=5)
    alt = sample_view(forge_segments(stream, [(0.0, 20.0)], ForgeryMode.ReplaceEnf, seed=5))[0]
    i0, i1 = SPANS[kind]
    out = _values(forged)
    assert out.dtype == np.float64
    assert out[i0:i1].tobytes() == alt[i0:i1].tobytes()
    assert out[:i0].tobytes() == as_int16.reshape(-1)[:i0].astype(float).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_estimate_of_a_float32_built_record_is_that_of_its_float64_copy(kind):
    truth = gen_enf_truth(GridConfig(seed=3), 20.0, 1.0)
    if kind == "audio":
        stream = embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=3)
    else:
        stream = embed_video(truth, 25.0, 48, 20.0, seed=3)
    f32 = getattr(stream, _FIELD[kind]).astype(np.float32)
    a = estimate_enf(dataclasses.replace(stream, **{_FIELD[kind]: f32}))
    b = estimate_enf(dataclasses.replace(stream, **{_FIELD[kind]: f32.astype(float)}))
    assert a.values_hz.tobytes() == b.values_hz.tobytes()


@pytest.mark.parametrize("mode", list(ForgeryMode))
@pytest.mark.parametrize("kind", KINDS)
def test_forge_segments_rejects_a_segment_that_rounds_to_no_value(kind, mode):
    """1e-4 s is 0.1 audio samples at 1 kHz and 0.016 video rows at 160 rows/s: the
    bounds round to one index, so nothing would be forged under the label."""
    stream = _stream_of(kind)
    rate = sample_view(stream)[1]
    for segments in ([(10.0, 10.0001)], [(2.0, 5.0), (10.0, 10.0001)]):
        with pytest.raises(InvalidArgumentError,
                           match=rf"segment \(10.0, 10.0001\) holds no value at {rate}"):
            forge_segments(stream, segments, mode, seed=1)


# the forged span 4.26-9.74 s in flat indices: audio samples at 1 kHz and
# rows at 10 fps x 16 rows
SPANS = {"audio": (4260, 9740), "video": (682, 1558)}


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
        # one independent draw per value
        assert np.mean(out[i0:i1]) == pytest.approx(centre, abs=5 * sigma / np.sqrt(i1 - i0))
        assert np.std(out[i0:i1]) == pytest.approx(sigma, rel=0.1)


@pytest.mark.parametrize("kind", KINDS)
def test_replace_enf_needs_the_recorded_provenance(kind):
    stream = _stream_of(kind)
    kind_keys = ["harmonics"] if kind == "audio" else []  # video records no kind key
    last = (["snr_db"] + kind_keys)[-1]
    bare = dataclasses.replace(stream, meta={})
    with pytest.raises(InvalidArgumentError, match=rf"meta lacks \['nominal_hz', .*'{last}'\]"):
        forge_segments(bare, [(4.0, 8.0)], ForgeryMode.ReplaceEnf)
    for key in ("snr_db", "max_dev_hz", *kind_keys):
        partial = dataclasses.replace(stream, meta={k: v for k, v in stream.meta.items() if k != key})
        with pytest.raises(InvalidArgumentError, match=rf"meta lacks \['{key}'\]"):
            forge_segments(partial, [(4.0, 8.0)], ForgeryMode.ReplaceEnf)
    # StripEnf reads only the samples
    stripped = forge_segments(bare, [(4.0, 8.0)], ForgeryMode.StripEnf, seed=1)
    assert stripped.forged_intervals == [(4.0, 8.0)]
    assert not np.array_equal(_values(stripped), _values(stream))


def _embed_kind(kind, truth, seed=3):
    if kind == "audio":
        return embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=seed)
    return embed_video(truth, 25.0, 120, 20.0, seed=seed)


@pytest.mark.parametrize("kind", KINDS)
def test_a_stream_records_the_grid_that_drew_its_truth(kind):
    """A 50 Hz truth embedded with no other argument records 50 Hz, so its estimate
    is read around 50 Hz and not around GridConfig()'s 60 Hz."""
    grid = GridConfig(nominal_hz=50, seed=3)
    truth = gen_enf_truth(grid, 120.0, 1.0)
    stream = _embed_kind(kind, truth)
    assert stream.meta["nominal_hz"] == 50
    est = estimate_enf(stream)
    assert abs(np.mean(est.values_hz) - np.mean(truth.values_hz)) < 0.02
    assert truth.grid is grid and est.grid is None


def test_replace_enf_of_a_50_hz_stream_splices_in_a_50_hz_hum():
    stream = embed_audio(gen_enf_truth(GridConfig(nominal_hz=50, seed=3), 60.0, 1.0), 1000.0,
                         [(1, 1.0)], 20.0, seed=3)
    forged = forge_segments(stream, [(20.0, 40.0)], ForgeryMode.ReplaceEnf, seed=5)
    span = forged.samples[20_000:40_000]
    peak_hz = np.argmax(np.abs(np.fft.rfft(span))) * 1000.0 / len(span)
    assert abs(peak_hz - 50.0) <= 0.1


@pytest.mark.parametrize("kind", KINDS)
def test_a_truth_no_grid_drew_claims_no_grid(kind):
    """A hand-built truth records no grid: ReplaceEnf has none to rebuild, while
    StripEnf and estimation, which read no grid, still run."""
    stream = _embed_kind(kind, const_truth(60.0, duration_s=20.0))
    kind_keys = {"harmonics"} if kind == "audio" else set()
    assert set(stream.meta) == {"snr_db", "seed"} | kind_keys
    with pytest.raises(InvalidArgumentError, match=r"meta lacks \['nominal_hz', "):
        forge_segments(stream, [(4.0, 8.0)], ForgeryMode.ReplaceEnf)
    stripped = forge_segments(stream, [(4.0, 8.0)], ForgeryMode.StripEnf, seed=1)
    assert stripped.forged_intervals == [(4.0, 8.0)]
    est = estimate_enf(stream)  # read at EstimatorConfig()'s 60 Hz
    assert np.all(np.abs(est.values_hz - 60.0) <= 0.02)


def test_video_forgery_rolling_replace():
    truth = gen_enf_truth(GridConfig(seed=8), 30.0, 1.0)
    stream = embed_video(truth, 25.0, 40, 25.0, seed=8)
    forged = forge_segments(stream, [(10.0, 20.0)], ForgeryMode.ReplaceEnf, seed=2)
    flat0 = stream.frames.reshape(-1)
    flat1 = forged.frames.reshape(-1)
    rate = 25.0 * 40
    i0, i1 = int(10 * rate), int(20 * rate)
    np.testing.assert_array_equal(flat1[:i0], flat0[:i0])
    assert not np.array_equal(flat1[i0:i1], flat0[i0:i1])


@pytest.mark.parametrize("segments", [[(0.0, 4.26)], [(15.5, 20.0)], [(0.0, 20.0)],
                                      [(2.0, 5.5), (9.74, 14.0)]])
@pytest.mark.parametrize("kind", KINDS)
def test_replace_enf_equals_copy_then_splice(kind, segments):
    """ReplaceEnf's output is the input with each segment spliced in from the
    full-length replacement, and it shares no memory with the input."""
    stream = _stream_of(kind)
    before = _values(stream).copy()
    forged = forge_segments(stream, segments, ForgeryMode.ReplaceEnf, seed=5)
    # the replacement as _resynthesize documents it, built here from the public calls
    alt_truth = gen_enf_truth(GridConfig(seed=[5, 0x5EED]), 20.0, 1.0)
    if kind == "audio":
        alt = embed_audio(alt_truth, 1000.0, HARMONICS_123, 20.0, seed=6).samples
    else:
        alt = embed_video(alt_truth, 10.0, 16, 20.0, seed=6).frames.reshape(-1)
    rate = sample_view(stream)[1]
    expect = before.copy()
    for a, b in segments:
        i0, i1 = int(round(a * rate)), int(round(b * rate))
        expect[i0:i1] = alt[i0:i1]
    assert _values(forged).tobytes() == expect.tobytes()
    assert _values(stream).tobytes() == before.tobytes()
    assert not np.shares_memory(_values(forged), _values(stream))
    assert forged.forged_intervals == segments and stream.forged_intervals == []


@pytest.mark.parametrize("kind", KINDS)
def test_replace_enf_synthesizes_on_the_grid_it_rebuilt(kind, monkeypatch):
    """The replacement is embedded from a truth that the grid rebuilt from the stream's
    meta drew, so its own provenance is that grid and not GridConfig() defaults."""
    grid = GridConfig(nominal_hz=50.0, drift_std_hz=0.01, max_dev_hz=0.5, seed=3)
    truth = gen_enf_truth(grid, 20.0, 1.0)
    if kind == "audio":
        stream = embed_audio(truth, 1000.0, HARMONICS_123, 20.0, seed=3)
    else:
        stream = embed_video(truth, 10.0, 16, 20.0, seed=3)
    name = f"embed_{kind}"
    real, grids = getattr(media_synth, name), []

    def spy(*args, **kwargs):
        grids.append(args[0].grid)
        return real(*args, **kwargs)

    monkeypatch.setattr(media_synth, name, spy)
    forge_segments(stream, [(5.0, 10.0)], ForgeryMode.ReplaceEnf, seed=5)
    assert grids == [dataclasses.replace(grid, seed=[5, 0x5EED])]


@pytest.mark.parametrize("kind", KINDS)
def test_replace_enf_needs_a_truth_that_spans_the_stream(kind):
    """The stream record itself refuses a truth of another duration and a rate that is
    not finite and > 0, so no stream that ReplaceEnf could misread is ever built."""
    stream = _stream_of(kind)
    for duration_s in (10.0, 30.0):
        with pytest.raises(InvalidArgumentError, match="truth spans"):
            dataclasses.replace(stream, truth=gen_enf_truth(GridConfig(), duration_s, 1.0))
    rate_field = "sample_rate_hz" if kind == "audio" else "fps"
    for rate in (0.0, np.nan):
        with pytest.raises(InvalidArgumentError, match=f"{rate_field} must be finite and > 0"):
            dataclasses.replace(stream, **{rate_field: rate})
    # the rule embed_* builds by: a doubled rate wants twice the values
    with pytest.raises(InvalidArgumentError, match="truth spans"):
        dataclasses.replace(stream, **{rate_field: 2.0 * getattr(stream, rate_field)})


# ---------------------------------------------------------------------------
# block-wise synthesis: byte-identical to the whole-array formula, at a bounded
# multiple of the output's memory

# one value rate for audio samples and video rows, a quarter block per second:
# 2, 8 and 23 s streams are half a block, exactly two and 5.75 blocks
BLOCK_RATE = _BLOCK / 4
LENGTHS_S = {"sub-block": 2.0, "two-blocks": 8.0, "ragged": 23.0}
VIDEO_FPS = 32.0


def _integral_cycles(truth, t):
    """The integral of truth.at from 0 to each t, in cycles. truth.at is linear between
    its knots and constant outside them, so a trapezoid from breakpoint to breakpoint,
    and from the last one below t to t, is exact."""
    grid = np.union1d([0.0], truth.times())
    f = truth.at(grid)
    at_grid = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (f[:-1] + f[1:]) / 2.0)))
    at_grid -= at_grid[np.searchsorted(grid, 0.0)]
    j = np.searchsorted(grid, t, side="right") - 1
    return at_grid[j] + (t - grid[j]) * (f[j] + truth.at(t)) / 2.0


def _phase_oracle(truth, rate_hz, n):
    """The float32 phase each wave is evaluated at: 2*pi times the fraction of a cycle
    of the closed-form integral of truth.at, dt * (f + s/2 * dt) plus the cycles at the
    segment's knot reduced mod 1, for the whole stream at once (truths from t = 0)."""
    assert truth.start_time_s == 0.0
    knots, f = truth.times(), truth.values_hz
    half_slope = np.append(np.diff(f) / truth.step_s, 0.0) / 2.0
    gain = truth.step_s * (f[:-1] + f[1:]) / 2.0
    at_knot = np.concatenate(([0.0], np.cumsum(gain - np.floor(gain))))
    at_knot -= np.floor(at_knot)
    # each value's segment starts at the last knot at or before its index
    j = np.searchsorted(np.ceil(knots * rate_hz), np.arange(n), side="right") - 1
    dt = np.arange(n) / rate_hz - knots[j]
    cycles = dt * (f[j] + half_slope[j] * dt) + at_knot[j]
    return (2.0 * np.pi * (cycles - np.floor(cycles))).astype(np.float32)


def _oracle_noise(x, power, snr_db, rng):
    """x plus one whole-length Box-Muller draw from float32 uniforms, scaled in float64."""
    if snr_db == np.inf:
        return x
    u = rng.random(len(x) + len(x) % 2, dtype=np.float32)
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    z = np.empty_like(u)
    z[0::2], z[1::2] = r * np.cos(theta), r * np.sin(theta)
    return x + np.sqrt(power / np.float64(10.0) ** (snr_db / 10.0)) * z[:len(x)]


def _audio_oracle(truth, rate_hz, harmonics, snr_db, seed):
    rng = np.random.default_rng(seed)
    phase = _phase_oracle(truth, rate_hz, int(round(truth.duration_s * rate_hz)))
    sig = np.zeros(len(phase), dtype=np.float32)
    for k, amp in harmonics:
        offset = np.float32(rng.uniform(0.0, 2.0 * np.pi))
        sig += np.float32(amp) * np.sin(np.float32(k) * phase + offset)
    # distinct whole orders: the hum's power is sum(amp**2 / 2) in closed form
    return _oracle_noise(sig.astype(float), sum(amp**2 for _, amp in harmonics) / 2.0, snr_db,
                         rng)


def _video_oracle(truth, fps, height, snr_db, seed):
    ac_amp = 5.0  # a modulation depth of 0.1 of a luma of 100, halved
    phase = _phase_oracle(truth, fps * height, int(round(truth.duration_s * fps)) * height)
    flicker = np.float32(ac_amp) * (np.float32(1.0) - np.cos(np.float32(2.0) * phase))
    flat = 100.0 + flicker.astype(float)
    return _oracle_noise(flat, ac_amp**2 / 2.0, snr_db, np.random.default_rng(seed))


def _oracle_of(kind, truth, snr_db, seed):
    if kind == "audio":
        return _audio_oracle(truth, BLOCK_RATE, HARMONICS_123, snr_db, seed)
    return _video_oracle(truth, VIDEO_FPS, int(BLOCK_RATE / VIDEO_FPS), snr_db, seed)


def _embed(kind, truth, snr_db, seed):
    if kind == "audio":
        return embed_audio(truth, BLOCK_RATE, HARMONICS_123, snr_db, seed=seed)
    return embed_video(truth, VIDEO_FPS, int(BLOCK_RATE / VIDEO_FPS), snr_db, seed=seed)


@pytest.mark.parametrize("snr_db", [20.0, np.inf])
@pytest.mark.parametrize("length", list(LENGTHS_S))
@pytest.mark.parametrize("kind", KINDS)
def test_blockwise_synthesis_equals_whole_array_formula(kind, length, snr_db):
    truth = gen_enf_truth(GridConfig(max_dev_hz=0.5, seed=11), LENGTHS_S[length], 1.0)
    flat = _values(_embed(kind, truth, snr_db, seed=4))
    assert len(flat) == LENGTHS_S[length] * BLOCK_RATE
    assert flat.tobytes() == _oracle_of(kind, truth, snr_db, seed=4).tobytes()


@pytest.mark.parametrize("mode", list(ForgeryMode))
@pytest.mark.parametrize("kind", KINDS)
def test_forgery_across_a_block_boundary_equals_whole_array_formula(kind, mode):
    grid = GridConfig(max_dev_hz=0.5, seed=12)
    truth = gen_enf_truth(grid, LENGTHS_S["ragged"], 1.0)
    stream = _embed(kind, truth, 20.0, seed=12)
    a, b = 3.1, 9.7  # crosses the ends of the first and the second block
    forged = forge_segments(stream, [(a, b)], mode, seed=9)
    expect = _values(stream).copy()
    i0, i1 = int(round(a * BLOCK_RATE)), int(round(b * BLOCK_RATE))
    assert i0 < _BLOCK < 2 * _BLOCK < i1
    if mode is ForgeryMode.ReplaceEnf:
        # content of an independent truth, drawn as ReplaceEnf documents it
        alt_grid = dataclasses.replace(grid, seed=[9, 0x5EED])
        alt = _oracle_of(kind, gen_enf_truth(alt_grid, truth.duration_s, 1.0), 20.0, seed=10)
        expect[i0:i1] = alt[i0:i1]
    else:
        seg = expect[i0:i1]
        centre = 0.0 if kind == "audio" else np.mean(seg)
        sigma = np.sqrt(np.mean((seg - centre) ** 2))
        expect[i0:i1] = np.random.default_rng([9, 0]).normal(centre, sigma, i1 - i0)
    assert _values(forged).tobytes() == expect.tobytes()


def test_float32_waves_stay_as_close_to_float64_late_in_a_stream_as_early():
    """Each wave sees its phase reduced to one cycle in float64, so its float32 error
    does not grow with the stream: an unreduced float32 phase of this 300 s stream is
    off by 5.7e-4 in its first 10 s and by 2.2e-2 in its last."""
    grid = GridConfig(max_dev_hz=0.5, seed=14)
    truth = gen_enf_truth(grid, 300.0, 1.0)
    rate = 8000.0
    samples = embed_audio(truth, rate, DEFAULT_HARMONICS, np.inf, seed=14).samples
    phase = 2.0 * np.pi * _integral_cycles(truth, np.arange(len(samples)) / rate)
    rng = np.random.default_rng(14)
    offsets = [rng.uniform(0.0, 2.0 * np.pi) for _ in DEFAULT_HARMONICS]
    hum = sum(a * np.sin(k * phase + u) for (k, a), u in zip(DEFAULT_HARMONICS, offsets))
    err = np.abs(samples - hum)
    ten_s = int(10 * rate)
    assert err.max() <= 4e-6  # 1.6e-6 measured, about -116 dB below the fundamental
    assert err[-ten_s:].max() <= 2.0 * err[:ten_s].max()

    video = embed_video(truth, 25.0, 360, np.inf, seed=14).frames.reshape(-1)
    row_rate = 25.0 * 360
    phase = 2.0 * np.pi * _integral_cycles(truth, np.arange(len(video)) / row_rate)
    flicker = 100.0 + 5.0 * (1.0 - np.cos(2.0 * phase))  # a depth of 0.1 of a luma of 100
    assert np.abs(video - flicker).max() <= 2e-5  # 2.9e-6 measured


@pytest.mark.parametrize(
    "truth",
    [gen_enf_truth(GridConfig(max_dev_hz=0.5, seed=15), 20.0, 1.0),
     EnfSeries(0.3, 1.0, 60.0 + np.linspace(-0.4, 0.4, 20)),
     EnfSeries(0.2, 0.37, 50.0 + 0.3 * np.sin(np.arange(54))),
     EnfSeries(-1.2, 0.5, 60.0 + 0.2 * np.cos(np.arange(40)))],
    ids=["walk", "late-start", "uneven-step", "early-start"])
def test_phase_is_the_exact_integral_of_the_truth(truth):
    """The phase is the integral of what EnfSeries.at returns from t = 0: held before
    the first knot, linear between knots, held past the last. 997 Hz puts the knots of
    the three made-up truths between samples."""
    rate = 997.0
    n = int(round(truth.duration_s * rate))
    t = np.arange(n) / rate
    knots = truth.times()
    assert np.any(t > knots[-1])
    if truth.start_time_s > 0.0:
        assert np.any(t < knots[0])
    cycles = media_synth._cycles(media_synth._phase_segments(truth, rate, n), rate, 0, n)
    assert np.all((0.0 <= cycles) & (cycles < 1.0))
    miss = np.mod(cycles - _integral_cycles(truth, t) + 0.5, 1.0) - 0.5
    assert np.abs(miss).max() <= 1e-9


@pytest.mark.parametrize("block", [2, 1000, 3 * 2**13])
@pytest.mark.parametrize("kind", KINDS)
def test_synthesis_bytes_do_not_depend_on_the_block_size(kind, block, monkeypatch):
    """An odd-length stream, so the last block draws one uniform beyond it; an even
    block keeps the Box-Muller pairs where they were."""
    truth = gen_enf_truth(GridConfig(max_dev_hz=0.5, seed=16), 23.0, 1.0)

    def make():
        if kind == "audio":
            return embed_audio(truth, 1001.0, HARMONICS_123, 20.0, seed=16).samples
        return embed_video(truth, 25.0, 45, 20.0, seed=16).frames.reshape(-1)

    whole = make()
    assert len(whole) % 2 == 1
    monkeypatch.setattr(media_synth, "_BLOCK", block)
    assert make().tobytes() == whole.tobytes()


def test_unit_normals_are_standard_normal():
    """4M draws at a fixed seed: the mean and variance within five of their standard
    errors, and a Kolmogorov-Smirnov statistic below its 1 % critical value. The float32
    uniforms cap |z| at sqrt(48 ln 2)."""
    from scipy.stats import kstest

    m = 4_000_000
    z = media_synth._unit_normals(np.random.default_rng(17), m)
    assert z.dtype == np.float32 and len(z) == m
    z = z.astype(float)
    assert abs(np.mean(z)) <= 5.0 / np.sqrt(m)
    assert abs(np.var(z) - 1.0) <= 5.0 * np.sqrt(2.0 / m)
    assert kstest(z, "norm").statistic <= 1.63 / np.sqrt(m)
    assert np.abs(z).max() <= np.sqrt(48.0 * np.log(2.0))


def test_waves_must_fit_float32_which_they_are_evaluated_in():
    # float32 holds up to 3.4e38: a hum of amplitudes summing to 3e38 fits, and one
    # step further does not
    hum = embed_audio(const_truth(), 1000.0, [(1, 2e38), (2, 1e38)], np.inf).samples
    assert np.all(np.isfinite(hum))
    for harmonics in ([(1, 4e38)], [(1, 3e38), (2, 1e38)]):
        with pytest.raises(InvalidArgumentError, match="float32's max"):
            embed_audio(const_truth(), 1000.0, harmonics, np.inf)


def _traced_peak(fn):
    """fn()'s result and the peak of the bytes it had allocated at once."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_synthesis_memory_stays_within_a_multiple_of_its_output():
    """Work arrays are block-sized, so audio and video hold little beyond their
    output, and ReplaceEnf the replacement's synthesis alone, since the replacement
    becomes its output."""
    grid = GridConfig(seed=13)
    truth = gen_enf_truth(grid, 60.0, 1.0)
    audio, peak = _traced_peak(
        lambda: embed_audio(truth, 44100.0, HARMONICS_123, 20.0, seed=13))
    assert peak <= 1.5 * audio.samples.nbytes
    forged, peak = _traced_peak(
        lambda: forge_segments(audio, [(10.0, 30.0)], ForgeryMode.ReplaceEnf, seed=2))
    assert peak <= 1.5 * forged.samples.nbytes
    long_truth = gen_enf_truth(grid, 120.0, 1.0)
    video, peak = _traced_peak(lambda: embed_video(long_truth, 25.0, 360, 25.0, seed=13))
    assert peak <= 1.5 * video.frames.nbytes
