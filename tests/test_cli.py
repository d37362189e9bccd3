"""CLI smoke tests via in-process main(); exit-code contract: 0 ok,
2 bad configuration, 3 pipeline failure. Byte-level determinism of the
output files is exercised in the acceptance suite."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from enfnet import EnfSeries, cli, embed_video, harness
from enfnet.cli import main
from enfnet.enf_estimation import estimate_enf
from enfnet.stream_io import load_enf_csv, load_stream, save_enf_csv, save_stream


def run(*argv):
    return main(list(argv))


def test_generate_audio_and_estimate(tmp_path):
    gen = tmp_path / "gen"
    assert run(
        "generate", "--duration", "30", "--sample-rate", "8000", "--snr", "25",
        "--seed", "3", "--out", str(gen),
    ) == 0
    assert (gen / "stream.json").exists()
    assert (gen / "stream.f32").exists()
    truth = load_enf_csv(str(gen / "truth.csv"))
    assert len(truth) == 30
    stream = load_stream(str(gen / "stream.json"))
    assert stream.duration_s == pytest.approx(30.0)

    est = tmp_path / "est"
    assert run("estimate", "--stream", str(gen / "stream.json"), "--out", str(est)) == 0
    series = load_enf_csv(str(est / "enf.csv"))
    assert np.all(np.abs(series.values_hz - 60.0) < 0.5)
    assert (est / "enf.json").exists()


def test_generate_video_kind(tmp_path):
    out = tmp_path / "v"
    assert run(
        "generate", "--kind", "video", "--duration", "20", "--fps", "25",
        "--height", "64", "--snr", "25", "--seed", "1", "--out", str(out),
    ) == 0
    stream = load_stream(str(out / "stream.json"))
    assert stream.frames.shape == (500, 64)


def test_generate_with_forgery_labels(tmp_path):
    out = tmp_path / "f"
    assert run(
        "generate", "--duration", "30", "--sample-rate", "8000", "--seed", "2",
        "--forge", "8:14:StripEnf", "--out", str(out),
    ) == 0
    stream = load_stream(str(out / "stream.json"))
    assert stream.forged_intervals == [(8.0, 14.0)]


def test_generate_draws_each_strip_segment_once(tmp_path):
    out = tmp_path / "f"
    assert run(
        "generate", "--duration", "40", "--sample-rate", "1000", "--seed", "3",
        "--forge", "5:10:StripEnf;20:25:StripEnf", "--out", str(out),
    ) == 0
    stream = load_stream(str(out / "stream.json"))
    assert stream.forged_intervals == [(5.0, 10.0), (20.0, 25.0)]
    first, second = stream.samples[5000:10_000], stream.samples[20_000:25_000]
    assert abs(np.corrcoef(first, second)[0, 1]) < 0.1
    # overlapping segments of one mode are one forge call, which refuses them
    assert run(
        "generate", "--duration", "40", "--sample-rate", "1000", "--seed", "3",
        "--forge", "5:10:StripEnf;8:12:StripEnf", "--out", str(tmp_path / "o"),
    ) == 2


@pytest.mark.parametrize("duration", ["9", "14"])  # one STFT window, two windows
def test_estimate_reports_the_stft_hop(tmp_path, duration, capsys):
    gen, est = tmp_path / "gen", tmp_path / "est"
    assert run("generate", "--duration", duration, "--sample-rate", "1000", "--seed", "1",
               "--out", str(gen)) == 0
    assert run("estimate", "--stream", str(gen / "stream.json"), "--window", "8.001",
               "--overlap", "0.3", "--out", str(est)) == 0
    # at the 500 Hz working rate the window rounds to 4000 samples and its hop
    # to 2800: 5.6 s, not 8.001 * (1 - 0.3) = 5.6007 s
    series = json.loads((est / "enf.json").read_text())
    assert (series["start_time_s"], series["step_s"]) == (4.0, 5.6)
    assert len(series["values_hz"]) == int(duration) // 7
    if duration == "9":
        # enf.csv records no step, so its one row cannot be read back on any clock
        csv = str(est / "enf.csv")
        assert run("detect", "--local", csv, "--truth", csv, "--out", str(tmp_path / "d")) == 2
        assert "one row holds no step" in capsys.readouterr().err


def test_detect_flow_and_exit_codes(tmp_path):
    gen = tmp_path / "gen"
    run("generate", "--duration", "40", "--sample-rate", "8000", "--seed", "9",
        "--out", str(gen))
    est = tmp_path / "est"
    run("estimate", "--stream", str(gen / "stream.json"), "--out", str(est))
    det = tmp_path / "det"
    assert run(
        "detect", "--local", str(est / "enf.csv"), "--truth", str(est / "enf.csv"),
        "--window", "12", "--shift", "4", "--out", str(det),
    ) == 0
    rep = json.loads((det / "report.json").read_text())
    assert rep["overall_verdict"] == "Genuine"
    assert (det / "windows.csv").read_text().startswith("start_s,end_s,corr,verdict")

    # truth.csv is on a different clock than the estimate -> config error
    assert run(
        "detect", "--local", str(est / "enf.csv"), "--truth", str(gen / "truth.csv"),
        "--out", str(tmp_path / "d2"),
    ) == 2


def test_detect_names_a_window_under_three_samples(tmp_path, capsys):
    csv = str(tmp_path / "enf.csv")
    save_enf_csv(EnfSeries(0.0, 1.0, 60.0 + 0.01 * np.sin(np.arange(30.0))), csv)
    assert run("detect", "--local", csv, "--truth", csv, "--window", "2", "--shift", "1",
               "--out", str(tmp_path / "d")) == 2
    err = capsys.readouterr().err
    assert "window_s=2.0 holds 2 samples at the series step 1.0 s; a window needs >= 3" in err


def test_consensus_sim_outputs(tmp_path):
    out = tmp_path / "c"
    assert run(
        "consensus-sim", "--committee", "6", "--byzantine", "1", "--dim", "24",
        "--rounds", "4", "--behavior", "offset:1.0", "--seed", "5", "--out", str(out),
    ) == 0
    lines = (out / "rounds.jsonl").read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert set(first) == {"round", "ground_truth_id", "honest_agreement", "scores"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["agreement_rate"] == 1.0


def test_configuration_errors_exit_2(tmp_path):
    # committee below the quorum bound
    assert run("consensus-sim", "--committee", "4", "--byzantine", "1",
               "--out", str(tmp_path / "x")) == 2
    # malformed forge spec
    assert run("generate", "--duration", "10", "--forge", "1:2",
               "--out", str(tmp_path / "y")) == 2
    # estimator overlap outside [0, 1)
    gen = tmp_path / "gen"
    run("generate", "--duration", "20", "--sample-rate", "8000", "--seed", "1",
        "--out", str(gen))
    assert run("estimate", "--stream", str(gen / "stream.json"), "--overlap", "1.5",
               "--out", str(tmp_path / "z")) == 2
    # a committee-size list with one distinct size, which no slope can be fitted to
    assert run("bench", "--k-list", "10,10", "--dim", "16", "--trials", "3") == 2
    # a corpus too short to place its 45 s forgeries
    assert run("roc", "--streams", "2", "--duration", "60", "--windows", "8",
               "--out", str(tmp_path / "r")) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--harmonics", "x"),
        ("generate", "--forge", "1:2:NoSuchMode"),
        ("estimate", "--stream", "missing.json", "--harmonics", "x"),
        ("bench", "--k-list", "a,b"),
        ("roc", "--windows", "8,x"),
        ("consensus-sim", "--behavior", "offset:abc"),
        ("consensus-sim", "--behavior", "clone:zz"),
        ("consensus-sim", "--behavior", "random:5"),
        ("consensus-sim", "--behavior", "silent:x"),
        ("consensus-sim", "--behavior", "honest:-1"),
        ("consensus-sim", "--behavior", "mystery"),
        ("consensus-sim", "--behavior", "offset:nan"),
        ("consensus-sim", "--behavior", "offset:inf"),
        ("consensus-sim", "--behavior", "offset:-inf"),
        ("consensus-sim", "--behavior", "clone:inf"),
        ("consensus-sim", "--behavior", "clone:nan"),
        # the FFT size and the flicker depth are fixed, not flags
        ("estimate", "--stream", "missing.json", "--fft-size", "64"),
        ("generate", "--kind", "video", "--mod-depth", "0.1"),
        # estimate and detect draw no random numbers, so take no seed
        ("estimate", "--stream", "missing.json", "--seed", "7"),
        ("detect", "--local", "missing.csv", "--truth", "missing.csv", "--seed", "7"),
    ],
)
def test_malformed_argument_strings_exit_2(tmp_path, argv):
    """Rejected at parse time: no output directory is made, and the missing
    stream of the estimate case is never opened (that would exit 3)."""
    out = tmp_path / "o"
    argv = argv if argv[0] == "bench" else argv + ("--out", str(out))
    assert run(*argv) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("generate",),
        ("consensus-sim",),
        ("scenario", "--config", "missing.json"),
        ("bench",),
        ("roc",),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2_at_parse_time(tmp_path, argv):
    """numpy takes only seeds >= 0: no output directory is made, no input opened."""
    out = tmp_path / "o"
    argv = argv if argv[0] == "bench" else argv + ("--out", str(out))
    assert run(*argv, "--seed", "-1") == 2
    assert not out.exists()


def test_a_call_that_exits_2_leaves_the_next_call_unchanged(tmp_path):
    """main parses with one parser per process: a call rejected at parse time, after
    setting other flags of the same subcommand, changes no byte of the next call."""
    argv = ("consensus-sim", "--committee", "6", "--byzantine", "1", "--dim", "24",
            "--rounds", "2", "--seed", "5", "--out")
    cli.build_parser.cache_clear()
    assert run(*argv, str(tmp_path / "alone")) == 0
    cli.build_parser.cache_clear()
    assert run("consensus-sim", "--rounds", "7", "--behavior", "offset:0.5", "--dim", "30",
               "--seed", "-1", "--out", str(tmp_path / "bad")) == 2
    assert run(*argv, str(tmp_path / "after")) == 0
    assert cli.build_parser() is cli.build_parser()
    alone, after = sorted((tmp_path / "alone").iterdir()), sorted((tmp_path / "after").iterdir())
    assert [p.name for p in alone] == [p.name for p in after] and alone
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(alone, after))


def _assert_within_truth(series, truth):
    lo, hi = truth.values_hz.min(), truth.values_hz.max()
    assert lo <= series.values_hz.min() and series.values_hz.max() <= hi


def test_estimate_reads_the_streams_nominal(tmp_path):
    gen = tmp_path / "gen"
    assert run("generate", "--nominal", "50", "--sample-rate", "1000", "--seed", "1",
               "--out", str(gen)) == 0
    truth = load_enf_csv(str(gen / "truth.csv"))
    assert run("estimate", "--stream", str(gen / "stream.json"), "--out", str(tmp_path / "e")) == 0
    _assert_within_truth(load_enf_csv(str(tmp_path / "e" / "enf.csv")), truth)
    _assert_within_truth(estimate_enf(load_stream(str(gen / "stream.json"))), truth)
    # an explicit nominal that contradicts the header is a configuration error
    assert run("estimate", "--stream", str(gen / "stream.json"), "--nominal", "60",
               "--out", str(tmp_path / "e60")) == 2


def test_estimate_takes_nominal_flag_when_header_has_none(tmp_path):
    gen = tmp_path / "gen"
    run("generate", "--nominal", "50", "--sample-rate", "1000", "--seed", "1", "--out", str(gen))
    bare = dataclasses.replace(load_stream(str(gen / "stream.json")), meta={})
    save_stream(bare, str(tmp_path / "bare.json"))
    assert run("estimate", "--stream", str(tmp_path / "bare.json"), "--nominal", "50",
               "--out", str(tmp_path / "e")) == 0
    _assert_within_truth(load_enf_csv(str(tmp_path / "e" / "enf.csv")),
                         load_enf_csv(str(gen / "truth.csv")))


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--window", "nan"),
        ("--window", "inf"),
        ("--band-halfwidth", "nan"),
        ("--window", "0.05"),  # bins 7.8 Hz apart: the 59.5-60.5 Hz band holds none
    ],
)
def test_estimator_values_not_finite_and_positive_exit_2(tmp_path, small_inputs, flag, value):
    assert run("estimate", "--stream", str(small_inputs / "stream.json"), flag, value,
               "--out", str(tmp_path / "o")) == 2


def test_estimate_names_the_band_fault(tmp_path, small_inputs, capsys):
    # bins 7.8 Hz apart at the 500 Hz working rate: the band lies inside the
    # spectrum but holds no bin
    assert run("estimate", "--stream", str(small_inputs / "stream.json"), "--window", "0.05",
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "harmonic order 1" in err and "holds 0 bins" in err
    assert "outside spectrum" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--duration", "nan"),
        ("generate", "--duration", "inf"),
        ("generate", "--truth-step", "nan"),
        ("generate", "--sample-rate", "nan"),
        ("generate", "--sample-rate", "inf"),
        ("generate", "--kind", "video", "--fps", "nan"),
        ("generate", "--kind", "video", "--fps", "inf"),
        ("consensus-sim", "--round-duration", "nan"),
        ("consensus-sim", "--round-duration", "inf"),
        ("consensus-sim", "--noise", "-1"),
        ("consensus-sim", "--noise", "nan"),
        ("generate", "--snr", "nan"),
        ("generate", "--snr=-inf"),
        ("generate", "--harmonics", "1:nan"),
        ("generate", "--harmonics", "0:1"),
        ("generate", "--kind", "video", "--snr", "nan"),
        ("generate", "--nominal", "nan"),
        ("generate", "--drift", "nan"),
        ("generate", "--drift", "inf"),
        ("generate", "--max-dev", "nan"),
        ("estimate", "--stream", "{inputs}/nan_audio.json"),
        ("estimate", "--stream", "{inputs}/nan_video.json"),
        # headers the stream records reject: a truth cut to 10 of 20 s, and rates that
        # are not finite and > 0 or that the payload does not span at the truth's length
        ("estimate", "--stream", "{inputs}/cut_truth.json"),
        ("estimate", "--stream", "{inputs}/rate_0.json"),
        ("estimate", "--stream", "{inputs}/rate_nan.json"),
        ("estimate", "--stream", "{inputs}/rate_2000.json"),
        ("estimate", "--stream", "{inputs}/fps_0.json"),
        ("estimate", "--stream", "{inputs}/fps_50.json"),
        ("detect", "--local", "{inputs}/nan_times.csv", "--truth", "{inputs}/nan_times.csv"),
        # a repeated order breaks the closed-form hum power; 1e200**2 overflows float64
        ("generate", "--harmonics", "1:1.0,1:0.5"),
        ("generate", "--harmonics", "1:1e200"),
        # a header holding a number as a JSON string
        ("estimate", "--stream", "{inputs}/rate_str.json"),
        ("estimate", "--stream", "{inputs}/step_str.json"),
    ],
)
def test_non_finite_times_and_rates_exit_2(tmp_path, small_inputs, argv):
    argv = [a.format(inputs=small_inputs) for a in argv]
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    assert not any(out.iterdir())


@pytest.mark.parametrize("mode", ["StripEnf", "ReplaceEnf"])
def test_forged_segment_that_rounds_to_no_sample_exits_2(tmp_path, capsys, mode):
    # 1e-4 s is a tenth of a sample at 1 kHz: no value would be forged under the label
    out = tmp_path / "o"
    assert run("generate", "--duration", "30", "--sample-rate", "1000",
               "--forge", f"10:10.0001:{mode}", "--out", str(out)) == 2
    assert "segment (10.0, 10.0001) holds no value at 1000.0" in capsys.readouterr().err
    assert not (out / "stream.json").exists()


@pytest.mark.parametrize("snr", ["3090", "-3240", "-800"])
def test_snr_beyond_float_range_exits_2_and_writes_no_stream(tmp_path, snr):
    # 10^(snr/10) overflows float64 at +3090 dB and is 0 at -3240 dB; at -800 dB
    # the noise overflows the float32 payload
    out = tmp_path / "o"
    assert run("generate", "--duration", "10", "--sample-rate", "1000", f"--snr={snr}",
               "--out", str(out)) == 2
    assert not (out / "stream.f32").exists()


def test_estimate_of_a_band_above_nyquist_exits_2(tmp_path, capsys):
    # audio at 200 Hz: a 100 Hz Nyquist, below harmonic 2's 120 Hz band
    gen = tmp_path / "low"
    assert run("generate", "--sample-rate", "200", "--harmonics", "1", "--duration", "30",
               "--out", str(gen)) == 0
    assert run("estimate", "--stream", str(gen / "stream.json"), "--harmonics", "2",
               "--out", str(tmp_path / "e")) == 2
    assert "harmonic order 2: band [119.0, 121.0] Hz outside spectrum" in capsys.readouterr().err


def test_estimate_of_a_global_shutter_header_exits_2(tmp_path, capsys):
    # a video file that records a global shutter holds one sample per frame,
    # not rows; it is refused rather than read as rows
    gen = tmp_path / "gen"
    assert run("generate", "--kind", "video", "--height", "16", "--duration", "10",
               "--out", str(gen)) == 0
    path = gen / "stream.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "shutter": "GlobalCCD"}))
    assert run("estimate", "--stream", str(path), "--out", str(tmp_path / "e")) == 2
    assert "unsupported video shutter: 'GlobalCCD'" in capsys.readouterr().err


def test_harmonics_1_to_5_generate_and_estimate(tmp_path):
    gen = tmp_path / "gen"
    assert run("generate", "--harmonics", "1:1.0,2:0.5,3:0.3,4:0.2,5:0.2", "--sample-rate",
               "1000", "--duration", "60", "--seed", "3", "--out", str(gen)) == 0
    meta = json.loads((gen / "stream.json").read_text())["meta"]
    assert meta["harmonics"] == [[1, 1.0], [2, 0.5], [3, 0.3], [4, 0.2], [5, 0.2]]
    # harmonic 5's band ends at 302.5 Hz, so the estimator reads it at 1 kHz
    assert run("estimate", "--stream", str(gen / "stream.json"), "--harmonics", "1,2,3,4,5",
               "--out", str(tmp_path / "e")) == 0
    _assert_within_truth(load_enf_csv(str(tmp_path / "e" / "enf.csv")),
                         load_enf_csv(str(gen / "truth.csv")))


def test_missing_input_exits_3(tmp_path):
    assert run("estimate", "--stream", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")) == 3


@pytest.fixture(scope="module")
def saved_streams(tmp_path_factory):
    """A 20 s 1 kHz audio stream and a 4 s 25 fps x 16-row video stream, as generate writes them."""
    root = tmp_path_factory.mktemp("saved")
    assert run("generate", "--duration", "20", "--sample-rate", "1000", "--out",
               str(root / "audio")) == 0
    assert run("generate", "--kind", "video", "--duration", "4", "--height", "16", "--out",
               str(root / "video")) == 0
    return root


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("audio", lambda h: {**h, "n_samples": 20000.9}),
        ("audio", lambda h: {**h, "n_samples": "20000"}),
        ("audio", lambda h: {**h, "n_samples": "x"}),
        ("audio", _without("kind")),
        ("audio", _without("truth")),
        ("video", lambda h: {**h, "frame_height": 16.0}),
        ("video", _without("n_frames")),
        ("audio", lambda h: {**h, "truth": {**h["truth"], "values_hz": list(
            map(str, h["truth"]["values_hz"]))}}),
        ("audio", lambda h: {**h, "forged_intervals": [["a", 1]]}),
        ("audio", lambda h: [h]),
        ("audio", lambda h: {**h, "meta": [h["meta"]]}),
    ],
    ids=["n_samples-fraction", "n_samples-str", "n_samples-x", "no-kind", "no-truth",
         "frame_height-float", "no-n_frames", "values_hz-str", "forged_intervals-str",
         "header-list", "meta-list"],
)
def test_malformed_stream_header_exits_2_before_estimation(
    tmp_path, monkeypatch, capsys, saved_streams, kind, edit
):
    """A header that parses as JSON but breaks the format save_stream writes is bad
    input: it exits 2, and nothing is estimated (that would exit 3 here) or written."""
    monkeypatch.setattr(cli, "estimate_enf", _boom)
    header = json.loads((saved_streams / kind / "stream.json").read_text())
    path = tmp_path / "stream.json"
    path.write_text(json.dumps(edit(header)))
    (tmp_path / "stream.f32").write_bytes((saved_streams / kind / "stream.f32").read_bytes())
    out = tmp_path / "o"
    assert run("estimate", "--stream", str(path), "--out", str(out)) == 2
    assert not (out / "enf.csv").exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_unreadable_stream_files_exit_3(tmp_path, saved_streams):
    """A header that is not JSON, or a payload that is not there, cannot be read at all."""
    path = tmp_path / "stream.json"
    path.write_text((saved_streams / "audio" / "stream.json").read_text()[:-20])
    assert run("estimate", "--stream", str(path), "--out", str(tmp_path / "o")) == 3
    path.write_text((saved_streams / "audio" / "stream.json").read_text())
    assert not (tmp_path / "stream.f32").exists()
    assert run("estimate", "--stream", str(path), "--out", str(tmp_path / "o")) == 3


SCENARIO = {
    "participants": 5,
    "deepfaked_participants": [4],
    "grid": {"drift_std_hz": 0.005, "max_dev_hz": 0.5},
    "estimator": {"stft_window_s": 8.0, "stft_overlap_frac": 0.875},
    "committee": {"K": 5, "f": 1, "d": 60, "round_duration_s": 60.0},
    "rounds": 2,
    "snr_db": 30.0,
    "forgery_len_s": 30.0,
}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A header-less 1 kHz stream and a truth CSV, for commands that load inputs first."""
    root = tmp_path_factory.mktemp("inputs")
    run("generate", "--duration", "20", "--sample-rate", "1000", "--out", str(root))
    stream = load_stream(str(root / "stream.json"))
    save_stream(dataclasses.replace(stream, meta={}), str(root / "bare.json"))
    # non-finite payloads, as a foreign .f32 file may hold: save_stream refuses
    # to write them, so each payload is overwritten after a finite save
    save_stream(stream, str(root / "nan_audio.json"))
    payload = stream.samples.astype("<f4")
    payload[100] = np.nan
    payload.tofile(root / "nan_audio.f32")
    video = embed_video(stream.truth, 25.0, 20, 20.0)
    save_stream(video, str(root / "nan_video.json"))
    np.full(video.frames.size, np.nan, dtype="<f4").tofile(root / "nan_video.f32")
    # finite payloads under edited headers, as a hand edit or a foreign writer may leave
    header = json.loads((root / "stream.json").read_text())
    cut = {**header["truth"], "values_hz": header["truth"]["values_hz"][:10]}
    for name, s, fields in [("cut_truth", stream, {"truth": cut}),
                            ("rate_0", stream, {"sample_rate_hz": 0.0}),
                            ("rate_nan", stream, {"sample_rate_hz": float("nan")}),
                            ("rate_2000", stream, {"sample_rate_hz": 2000.0}),
                            ("rate_str", stream, {"sample_rate_hz": "1000"}),
                            ("step_str", stream, {"truth": {**header["truth"], "step_s": "1.0"}}),
                            ("fps_0", video, {"fps": 0.0}), ("fps_50", video, {"fps": 50.0})]:
        path = root / f"{name}.json"
        save_stream(s, str(path))
        path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    (root / "nan_times.csv").write_text("time_s,freq_hz\n" + "nan,60.0\n" * 20)
    return root


# command -> (module, callee that receives the configs, leading arguments)
_CONFIG_CALLEES = {
    "generate": (cli, "gen_enf_truth", ()),
    "estimate": (cli, "estimate_enf", ("--stream", "{inputs}/bare.json")),
    "detect": (cli, "sliding_window_detect",
               ("--local", "{inputs}/truth.csv", "--truth", "{inputs}/truth.csv")),
    "consensus-sim": (cli, "simulate_rounds", ()),
    "roc": (harness, "roc_sweep", ()),
}


# (command, flag, value, config field, the value the field reads)
_CONFIG_FLAGS = [
    ("generate", "--nominal", "50", "nominal_hz", 50.0),
    ("generate", "--drift", "0.01", "drift_std_hz", 0.01),
    ("generate", "--max-dev", "0.5", "max_dev_hz", 0.5),
    ("generate", "--seed", "7", "seed", 7),
    ("estimate", "--nominal", "50", "nominal_hz", 50.0),
    ("estimate", "--harmonics", "1,2", "harmonics", (1, 2)),
    ("estimate", "--band-halfwidth", "0.4", "band_halfwidth_hz", 0.4),
    ("estimate", "--window", "12", "stft_window_s", 12.0),
    ("estimate", "--overlap", "0.75", "stft_overlap_frac", 0.75),
    ("detect", "--window", "12", "window_s", 12.0),
    ("detect", "--shift", "4", "shift_s", 4.0),
    ("detect", "--threshold", "0.7", "threshold", 0.7),
    ("consensus-sim", "--committee", "12", "K", 12),
    ("consensus-sim", "--byzantine", "2", "f", 2),
    ("consensus-sim", "--dim", "60", "d", 60),
    ("consensus-sim", "--round-duration", "120", "round_duration_s", 120.0),
    ("consensus-sim", "--noise", "0.01", "noise_std", 0.01),
    ("roc", "--streams", "6", "n_streams", 6),
    ("roc", "--duration", "90", "duration_s", 90.0),
    ("roc", "--snr", "15", "snr_db", 15.0),
    ("roc", "--seed", "7", "seed", 7),
]


@pytest.mark.parametrize("command, flag, value, field, expected", _CONFIG_FLAGS)
def test_config_flag_reaches_its_field(
    tmp_path, monkeypatch, small_inputs, command, flag, value, field, expected
):
    """Each flag named after a config field sets that field on the object the
    command passes on (a dest that names no field would be dropped silently)."""
    module, callee, lead = _CONFIG_CALLEES[command]
    seen = []

    def capture(*args, **kwargs):
        seen.extend(args)
        raise RuntimeError("captured")

    monkeypatch.setattr(module, callee, capture)
    lead = [a.format(inputs=small_inputs) for a in lead]
    run(command, *lead, flag, value, "--out", str(tmp_path / "o"))
    # the configs are the dataclass arguments, and the observers consensus-sim passes
    objs = [o for a in seen for o in (a if isinstance(a, list) else [a])]
    values = [getattr(o, field) for o in objs if dataclasses.is_dataclass(o) and hasattr(o, field)]
    assert values and all(v == expected for v in values)


def test_every_configured_flag_is_in_the_field_table():
    """Every optional flag without a default of its own, the ones _given reads into a
    config, is in _CONFIG_FLAGS under its subcommand, so the test above covers it."""
    listed = {(command, flag) for command, flag, *_ in _CONFIG_FLAGS}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    configured = {(command, max(action.option_strings, key=len))
                  for command, parser in sub.choices.items() for action in parser._actions
                  if action.option_strings and not action.required
                  and action.default is argparse.SUPPRESS
                  and not isinstance(action, argparse._HelpAction)}
    assert configured and configured <= listed, sorted(configured - listed)


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (cli, "estimate_enf", ("estimate", "--stream", "{tmp}/gen/stream.json")),
        (cli, "simulate_rounds", ("consensus-sim", "--committee", "6", "--byzantine", "1")),
        (harness, "run_scenario", ("scenario", "--config", "{tmp}/scen.json")),
    ],
    ids=["estimate", "consensus-sim", "scenario"],
)
def test_unexpected_pipeline_failure_exits_3(tmp_path, monkeypatch, module, name, argv):
    """Any exception other than a configuration error is a pipeline failure."""
    run("generate", "--duration", "20", "--sample-rate", "8000", "--out", str(tmp_path / "gen"))
    (tmp_path / "scen.json").write_text(json.dumps(SCENARIO))
    monkeypatch.setattr(module, name, _boom)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(*argv, "--out", str(tmp_path / "o")) == 3


def test_scenario_command(tmp_path):
    cfgp = tmp_path / "scen.json"
    cfgp.write_text(json.dumps(SCENARIO))
    out = tmp_path / "s"
    assert run("scenario", "--config", str(cfgp), "--seed", "4", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tp"] == 1 and summary["fp"] == 0
    assert (out / "reports.json").exists()
    assert len((out / "rounds.jsonl").read_text().splitlines()) == 2

    cfgp.write_text(json.dumps({"participants": 5, "no_such_knob": 1}))
    assert run("scenario", "--config", str(cfgp), "--out", str(tmp_path / "s2")) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"grid": {"bogus": 1}},
        {"committee": {"K": 5}},
        [1, 2],
        {**SCENARIO, "rounds": 1, "forgery_len_s": 56.0},
    ],
    ids=["unknown-nested-field", "missing-nested-field", "not-an-object", "unplaceable-forgery"],
)
def test_malformed_scenario_config_exits_2(tmp_path, config):
    cfgp = tmp_path / "scen.json"
    cfgp.write_text(json.dumps(config))
    assert run("scenario", "--config", str(cfgp), "--out", str(tmp_path / "s")) == 2


@pytest.mark.parametrize(
    "change",
    [
        {"committee": {**SCENARIO["committee"], "K": 5.0}},
        {"committee": {**SCENARIO["committee"], "d": 60.0}},
        {"committee": {**SCENARIO["committee"], "f": 1.0}},
        {"rounds": 2.0},
        {"byzantine": 0.5},
        {"seed": 1.5},
        {"estimator": {**SCENARIO["estimator"], "harmonics": [1.5]}},
    ],
    ids=["K", "d", "f", "rounds", "byzantine", "seed", "harmonics"],
)
def test_scenario_whole_number_given_a_fraction_exits_2(tmp_path, change, capsys):
    cfgp = tmp_path / "scen.json"
    cfgp.write_text(json.dumps({**SCENARIO, **change}))
    assert run("scenario", "--config", str(cfgp), "--out", str(tmp_path / "s")) == 2
    assert "and an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"snr_db": "20"}, "snr_db, unless +inf, must be a finite number, got '20'"),
        ({"snr_db": None}, "snr_db, unless +inf, must be a finite number, got None"),
        ({"sample_rate_hz": "1000"}, "sample_rate_hz must be finite and > 0, got '1000'"),
        ({"estimator": {**SCENARIO["estimator"], "fft_size": 16384}},
         "unexpected keyword argument 'fft_size'"),
        ({"harmonics": [[1, "x"]]}, "harmonic amplitudes must be a finite number, got 'x'"),
        ({"harmonics": [[1, 1.0, 2.0]]}, "harmonics must be (order, amplitude) pairs"),
        ({"forgery_len_s": "30"}, "forgery length must be finite and > 0, got '30'"),
    ],
    ids=["snr-str", "snr-null", "rate-str", "fft-unknown", "amplitude-str",
         "triple", "forgery-str"],
)
def test_scenario_number_of_the_wrong_kind_exits_2_before_synthesis(
        tmp_path, monkeypatch, capsys, change, message):
    # each field is checked where its config is built, so no truth or stream is made
    monkeypatch.setattr(harness, "gen_enf_truth", _boom)
    monkeypatch.setattr(harness, "embed_audio", _boom)
    cfgp = tmp_path / "scen.json"
    cfgp.write_text(json.dumps({**SCENARIO, **change}))
    out = tmp_path / "s"
    assert run("scenario", "--config", str(cfgp), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


def test_scenario_with_disagreeing_nominal_hz_exits_2(tmp_path):
    cfgp = tmp_path / "scen.json"
    cfgp.write_text(json.dumps({**SCENARIO, "grid": {**SCENARIO["grid"], "nominal_hz": 50.0}}))
    assert run("scenario", "--config", str(cfgp), "--out", str(tmp_path / "s")) == 2


def test_bench_prints_json_to_stdout_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("bench", "--k-list", "8,16", "--dim", "32", "--trials", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_list"] == [8, 16]
    assert "slope" in payload and len(payload["latencies_s"]) == 2
    assert "d_doubling_ratio" not in payload
    assert run("bench", "--k-list", "8,16", "--dim", "32", "--trials", "3",
               "--d-ratio-k", "8") == 0
    ratio = json.loads(capsys.readouterr().out)["d_doubling_ratio"]
    assert np.isfinite(ratio) and ratio > 0
    assert list(tmp_path.iterdir()) == []  # no files, timings are not reproducible


def test_roc_command(tmp_path):
    out = tmp_path / "r"
    assert run(
        "roc", "--windows", "8,16", "--streams", "4", "--duration", "90",
        "--snr", "15", "--seed", "2", "--out", str(out),
    ) == 0
    rows = json.loads((out / "roc.json").read_text())
    assert [r["window_s"] for r in rows] == [8.0, 16.0]
    csv = (out / "auc.csv").read_text().splitlines()
    assert csv[0] == "window_s,auc"
    assert len(csv) == 3
    # degenerate sweep: window longer than the streams
    assert run("roc", "--windows", "120", "--streams", "4", "--duration", "90",
               "--out", str(tmp_path / "r2")) == 2
