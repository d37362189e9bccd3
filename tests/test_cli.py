"""CLI smoke tests via in-process main(); exit-code contract: 0 ok,
2 bad configuration, 3 pipeline failure. Byte-level determinism of the
output files is exercised in the acceptance suite."""

import dataclasses
import json

import numpy as np
import pytest

from enfnet import ShutterType, cli, embed_video, harness
from enfnet.cli import main
from enfnet.enf_estimation import estimate_enf
from enfnet.stream_io import load_enf_csv, load_stream, save_stream


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
    ],
)
def test_malformed_argument_strings_exit_2(tmp_path, argv):
    """Rejected at parse time: no output directory is made, and the missing
    stream of the estimate case is never opened (that would exit 3)."""
    out = tmp_path / "o"
    argv = argv if argv[0] == "bench" else argv + ("--out", str(out))
    assert run(*argv) == 2
    assert not out.exists()


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
        ("--window", "0.05"),  # bins 3.9 Hz apart: the 59.5-60.5 Hz band holds none
    ],
)
def test_estimator_values_not_finite_and_positive_exit_2(tmp_path, small_inputs, flag, value):
    assert run("estimate", "--stream", str(small_inputs / "stream.json"), flag, value,
               "--out", str(tmp_path / "o")) == 2


def test_estimate_names_the_band_fault(tmp_path, small_inputs, capsys):
    # bins 7.8 Hz apart at the 500 Hz working rate: the band lies inside the
    # spectrum but holds no bin
    assert run("estimate", "--stream", str(small_inputs / "stream.json"), "--window", "0.05",
               "--fft-size", "64", "--out", str(tmp_path / "o")) == 2
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
        ("generate", "--kind", "video", "--mod-depth", "nan"),
        ("estimate", "--stream", "{inputs}/nan_audio.json"),
        ("estimate", "--stream", "{inputs}/nan_video.json"),
    ],
)
def test_non_finite_times_and_rates_exit_2(tmp_path, small_inputs, argv):
    argv = [a.format(inputs=small_inputs) for a in argv]
    assert run(*argv, "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("snr", ["3090", "-3240", "-800"])
def test_snr_beyond_float_range_exits_2_and_writes_no_stream(tmp_path, snr):
    # 10^(snr/10) overflows float64 at +3090 dB and is 0 at -3240 dB; at -800 dB
    # the noise overflows the float32 payload
    out = tmp_path / "o"
    assert run("generate", "--duration", "10", "--sample-rate", "1000", f"--snr={snr}",
               "--out", str(out)) == 2
    assert not (out / "stream.f32").exists()


def test_estimate_of_a_band_above_nyquist_exits_2(tmp_path):
    # a GlobalCCD stream has one sample per frame: 12.5 Hz Nyquist at 25 fps
    gen = tmp_path / "ccd"
    assert run("generate", "--kind", "video", "--shutter", "GlobalCCD", "--fps", "25",
               "--height", "16", "--duration", "30", "--out", str(gen)) == 0
    assert run("estimate", "--stream", str(gen / "stream.json"), "--harmonics", "2",
               "--out", str(tmp_path / "e")) == 2


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
    video = embed_video(stream.truth, 25.0, 20, ShutterType.RollingCMOS, 20.0)
    save_stream(video, str(root / "nan_video.json"))
    np.full(video.frames.size, np.nan, dtype="<f4").tofile(root / "nan_video.f32")
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


@pytest.mark.parametrize(
    "command, flag, value, field, expected",
    [
        ("generate", "--nominal", "50", "nominal_hz", 50.0),
        ("generate", "--drift", "0.01", "drift_std_hz", 0.01),
        ("generate", "--max-dev", "0.5", "max_dev_hz", 0.5),
        ("generate", "--seed", "7", "seed", 7),
        ("estimate", "--nominal", "50", "nominal_hz", 50.0),
        ("estimate", "--harmonics", "1,2", "harmonics", (1, 2)),
        ("estimate", "--band-halfwidth", "0.4", "band_halfwidth_hz", 0.4),
        ("estimate", "--window", "12", "stft_window_s", 12.0),
        ("estimate", "--overlap", "0.75", "stft_overlap_frac", 0.75),
        ("estimate", "--fft-size", "65536", "fft_size", 65536),
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
    ],
)
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
