import json
import warnings

import numpy as np
import pytest

from enfnet import (
    EnfSeries,
    ForgeryMode,
    GridConfig,
    InvalidArgumentError,
    embed_audio,
    embed_video,
    forge_segments,
    gen_enf_truth,
)
from enfnet.stream_io import (
    load_enf_csv,
    load_stream,
    save_enf_csv,
    save_enf_json,
    save_stream,
)


def test_audio_stream_roundtrip(tmp_path):
    grid = GridConfig(seed=1)
    truth = gen_enf_truth(grid, 20.0, 1.0)
    stream = embed_audio(truth, 1000.0, ((1, 1.0), (2, 0.5)), 20.0, seed=1, grid=grid)
    stream = forge_segments(stream, [(5.0, 9.0)], ForgeryMode.StripEnf, seed=2)
    path = tmp_path / "a.json"
    save_stream(stream, str(path))
    # the sidecar is the stream's float32 little-endian bytes, nothing more
    assert (tmp_path / "a.f32").read_bytes() == stream.samples.astype("<f4").tobytes()
    back = load_stream(str(path))
    # payload is float32 on disk, so compare against the f32 cast
    np.testing.assert_array_equal(back.samples, stream.samples.astype("<f4").astype(float))
    assert back.sample_rate_hz == stream.sample_rate_hz
    assert back.forged_intervals == [(5.0, 9.0)]
    np.testing.assert_array_equal(back.truth.values_hz, stream.truth.values_hz)
    assert back.meta["snr_db"] == 20.0


def test_video_stream_roundtrip(tmp_path):
    grid = GridConfig(seed=2)
    truth = gen_enf_truth(grid, 10.0, 1.0)
    stream = embed_video(truth, 25.0, 32, 25.0, seed=2, grid=grid)
    stream = forge_segments(stream, [(2.01, 4.5)], ForgeryMode.StripEnf, seed=3)
    path = tmp_path / "v.json"
    save_stream(stream, str(path))
    assert (tmp_path / "v.f32").read_bytes() == stream.frames.astype("<f4").tobytes()
    back = load_stream(str(path))
    assert back.fps == 25.0 and back.frame_height == 32
    assert back.frames.shape == stream.frames.shape
    np.testing.assert_array_equal(back.frames, stream.frames.astype("<f4").astype(float))
    assert back.forged_intervals == [(2.01, 4.5)]
    assert back.meta == stream.meta


@pytest.mark.parametrize("shutter, loads", [("RollingCMOS", True), ("GlobalCCD", False)])
def test_load_stream_reads_only_rolling_shutter_video(tmp_path, shutter, loads):
    """A header that records its shutter, as older video files do, loads only
    when it names the rolling shutter; a global-shutter file is refused
    instead of being read as rows."""
    truth = gen_enf_truth(GridConfig(seed=2), 4.0, 1.0)
    path = tmp_path / "v.json"
    save_stream(embed_video(truth, 25.0, 16, 25.0, seed=2), str(path))
    header = json.loads(path.read_text())
    path.write_text(json.dumps({**header, "shutter": shutter}))
    if loads:
        assert load_stream(str(path)).frames.shape == (100, 16)
    else:
        with pytest.raises(InvalidArgumentError, match="GlobalCCD"):
            load_stream(str(path))
    path.write_text(json.dumps({**header, "kind": "hologram"}))
    with pytest.raises(InvalidArgumentError, match="unknown stream kind: 'hologram'"):
        load_stream(str(path))


def test_save_rejects_values_float32_cannot_hold(tmp_path):
    grid = GridConfig(seed=1)
    stream = embed_audio(gen_enf_truth(grid, 5.0, 1.0), 1000.0, [(1, 1.0)], 20.0, grid=grid)
    stream.samples[7] = 1e40  # finite as float64, inf as float32
    with pytest.raises(InvalidArgumentError, match="1 of 5000 values"):
        save_stream(stream, str(tmp_path / "big.json"))
    assert list(tmp_path.iterdir()) == []


def test_save_stream_rejects_unknown(tmp_path):
    with pytest.raises(InvalidArgumentError):
        save_stream(np.zeros(4), str(tmp_path / "x.json"))


def test_enf_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    series = EnfSeries(4.0, 0.5, 60.0 + rng.normal(0, 0.01, 50))
    path = tmp_path / "e.csv"
    save_enf_csv(series, str(path))
    back = load_enf_csv(str(path))
    assert back.start_time_s == series.start_time_s
    assert back.step_s == series.step_s
    np.testing.assert_array_equal(back.values_hz, series.values_hz)
    # a blank line, as a hand edit may leave, is skipped
    path.write_text(path.read_text().replace("\n", "\n\n", 3))
    assert load_enf_csv(str(path)).values_hz.tobytes() == series.values_hz.tobytes()


def test_enf_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not,a,header\n1,2\n")
    with pytest.raises(InvalidArgumentError):
        load_enf_csv(str(p))
    p.write_text("time_s,freq_hz\n")
    with pytest.raises(InvalidArgumentError):
        load_enf_csv(str(p))
    # one row: the file records no step and one timestamp gives none
    p.write_text("time_s,freq_hz\n4.0,60.01\n")
    with pytest.raises(InvalidArgumentError, match="one row holds no step"):
        load_enf_csv(str(p))


@pytest.mark.parametrize("row", ["abc,60.0", "4.5,60.0,1.0", "4.5"],
                         ids=["not-a-number", "three-columns", "one-column"])
def test_enf_csv_rejects_a_row_that_is_not_two_numbers(tmp_path, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"time_s,freq_hz\n4.0,60.01\n{row}\n5.0,60.02\n")
    with pytest.raises(InvalidArgumentError, match="rows of two numbers"):
        load_enf_csv(str(p))


def test_enf_csv_header_only_raises_without_a_warning(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("time_s,freq_hz\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="fewer than two rows"):
            load_enf_csv(str(p))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"n_samples": 5000.5}, "n_samples must be >= 0 and an integer, got 5000.5"),
        ({"kind": None}, "unknown stream kind: None"),
        ({"meta": "x"}, "meta must be an object"),
        ({"truth": {"start_time_s": 0.0, "step_s": 1.0, "values_hz": ["60"] * 5}},
         "truth values_hz must be a finite number, got '60'"),
        ({"truth": None}, "malformed stream header: TypeError"),
        ({"forged_intervals": [[1.0, 2.0, 3.0]]}, "malformed stream header: ValueError"),
    ],
    ids=["n_samples-fraction", "kind-null", "meta-str", "values_hz-str", "truth-null",
         "interval-of-three"],
)
def test_load_stream_reads_the_header_by_the_package_rules(tmp_path, edit, message):
    grid = GridConfig(seed=1)
    stream = embed_audio(gen_enf_truth(grid, 5.0, 1.0), 1000.0, [(1, 1.0)], 20.0, grid=grid)
    path = tmp_path / "a.json"
    save_stream(stream, str(path))
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(InvalidArgumentError, match=message):
        load_stream(str(path))


def test_load_stream_defaults_the_optional_keys(tmp_path):
    grid = GridConfig(seed=1)
    stream = embed_audio(gen_enf_truth(grid, 5.0, 1.0), 1000.0, [(1, 1.0)], 20.0, grid=grid)
    path = tmp_path / "a.json"
    save_stream(stream, str(path))
    header = json.loads(path.read_text())
    del header["meta"], header["forged_intervals"]
    path.write_text(json.dumps(header))
    back = load_stream(str(path))
    assert back.meta == {} and back.forged_intervals == []


def test_load_stream_rejects_truncated_audio_payload(tmp_path):
    grid = GridConfig(seed=1)
    truth = gen_enf_truth(grid, 30.0, 1.0)
    stream = embed_audio(truth, 1000.0, ((1, 1.0),), 20.0, seed=1, grid=grid)
    path = tmp_path / "a.json"
    save_stream(stream, str(path))
    payload = tmp_path / "a.f32"
    payload.write_bytes(payload.read_bytes()[: 1000 * 4])  # 1000 of 30000 samples
    with pytest.raises(InvalidArgumentError, match="1000 values"):
        load_stream(str(path))


def test_load_stream_rejects_truncated_video_payload(tmp_path):
    grid = GridConfig(seed=2)
    truth = gen_enf_truth(grid, 4.0, 1.0)
    stream = embed_video(truth, 25.0, 16, 25.0, seed=2, grid=grid)
    path = tmp_path / "v.json"
    save_stream(stream, str(path))
    payload = tmp_path / "v.f32"
    payload.write_bytes(payload.read_bytes()[: 16 * 4 * 10])  # whole frames, but 10 of 100
    with pytest.raises(InvalidArgumentError):
        load_stream(str(path))


def test_enf_csv_rejects_nonuniform_times(tmp_path):
    series = EnfSeries(4.0, 0.5, np.full(50, 60.0))
    path = tmp_path / "e.csv"
    save_enf_csv(series, str(path))
    lines = path.read_text().splitlines()
    t, v = lines[20].split(",")
    # one timestamp off by 2e-6 of a step, or not a number, which no comparison passes
    for bad in (repr(float(t) + 1e-6), "nan"):
        lines[20] = f"{bad},{v}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgumentError, match="uniformly"):
            load_enf_csv(str(path))


def test_enf_csv_accepts_rounded_uniform_times(tmp_path):
    """Steps that are not exact in binary still read as uniform."""
    series = EnfSeries(1234.567, 0.1, np.full(3000, 60.0))
    path = tmp_path / "e.csv"
    save_enf_csv(series, str(path))
    back = load_enf_csv(str(path))
    assert len(back) == 3000
    assert back.step_s == pytest.approx(0.1, rel=1e-12)


def test_enf_json_roundtrip(tmp_path):
    series = EnfSeries(0.0, 2.0, np.array([59.99, 60.0, 60.01]))
    path = tmp_path / "e.json"
    save_enf_json(series, str(path))
    with open(path) as fh:
        back = json.load(fh)
    assert back == {"start_time_s": 0.0, "step_s": 2.0, "values_hz": [59.99, 60.0, 60.01]}


def test_save_is_byte_deterministic(tmp_path):
    grid = GridConfig(seed=5)
    truth = gen_enf_truth(grid, 10.0, 1.0)
    stream = embed_audio(truth, 1000.0, ((1, 1.0),), 20.0, seed=5, grid=grid)
    save_stream(stream, str(tmp_path / "x.json"))
    save_stream(stream, str(tmp_path / "y.json"))
    a = (tmp_path / "x.json").read_text().replace("x.f32", "z.f32")
    b = (tmp_path / "y.json").read_text().replace("y.f32", "z.f32")
    assert a == b
    assert (tmp_path / "x.f32").read_bytes() == (tmp_path / "y.f32").read_bytes()
