"""Command-line interface.

Subcommands: generate, estimate, consensus-sim, detect, scenario, bench, roc.
generate, consensus-sim, scenario, bench and roc take --seed; estimate and
detect draw no random numbers. Identical invocations write byte-identical
output files. bench prints to stdout only (wall-clock timings are not
reproducible, so they never land in files).

Every flag that sets a field of a library config class (GridConfig,
EstimatorConfig, DetectorConfig, CommitteeConfig, Honest, CorpusConfig) has
that field as its ``dest`` and no default of its own: a flag left off the
command line takes the config class's default. ``estimate`` starts from
``default_config_for(stream)``, so it reads the nominal frequency from the
stream header, and an explicit --nominal that disagrees with it exits 2.

Exit codes follow the rule in ``errors``: 0 success, 2 an InvalidArgumentError
(invalid configuration/arguments), 3 any other pipeline error. Structured
argument strings (--harmonics, --forge, --behavior, --k-list, --windows) and
--seed are parsed by argparse, so malformed ones and a negative seed exit 2
before any work starts; main() returns the code instead of raising SystemExit.
Every config and record checks its numbers where it is built: a whole-number
field takes only an integer at or above its bound (``errors._whole``; K 5.0 exits
2), a real-valued one only a finite real number above its bound (``errors._real``;
NaN, inf, a JSON string or null exits 2; max_dev_hz and snr_db may be +inf). So a
scenario config or input file that breaks either exits 2 before any synthesis or
estimation, as does a scenario config whose nested configs name unknown fields or
miss required ones or whose top level is not a JSON object, a detect --shift
shorter than the step of the series it reads, and a stream whose truth does not
span its payload. A parsed stream header or ENF CSV row that breaks the format
``stream_io`` writes exits 2; a file that cannot be opened or is not JSON exits 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import harness, stream_io
from .detection import DetectorConfig, sliding_window_detect
from .enf_estimation import EstimatorConfig, default_config_for, estimate_enf
from .errors import InvalidArgumentError, _whole
from .media_synth import (
    ForgeryMode,
    GridConfig,
    embed_audio,
    embed_video,
    forge_segments,
    gen_enf_truth,
)
from .poenf_consensus import CommitteeConfig, Honest, parse_behavior, simulate_rounds


def _spec(parse, want):
    """argparse ``type=`` for a structured string: malformed text exits 2 at parse time."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: want {want}") from exc

    return convert


def _parse_harmonics(text):
    # "1:1.0,2:0.5" -> [(1, 1.0), (2, 0.5)]
    out = []
    for part in text.split(","):
        k, _, amp = part.partition(":")
        out.append((int(k), float(amp) if amp else 1.0))
    return out


def _parse_forge(text):
    # "60:90:ReplaceEnf;100:110:StripEnf"; "" -> no forgery
    jobs = []
    for part in text.split(";") if text else []:
        bits = part.split(":")
        if len(bits) != 3:
            raise InvalidArgumentError(f"bad forge spec: {part!r} (want start:end:mode)")
        jobs.append((float(bits[0]), float(bits[1]), ForgeryMode(bits[2])))
    return jobs


def _parse_ints(text):
    return [int(k) for k in text.split(",")]


def _parse_floats(text):
    return [float(w) for w in text.split(",")]


def _given(args, cls):
    """The fields of config class ``cls`` set on the command line."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name in args}


def _round_record(rr, **extra):
    return {"round": rr.round, "ground_truth_id": rr.ground_truth_id,
            "honest_agreement": rr.honest_agreement, **extra}


def cmd_generate(args):
    truth = gen_enf_truth(GridConfig(**_given(args, GridConfig)), args.duration, args.truth_step)
    if args.kind == "audio":
        stream = embed_audio(truth, args.sample_rate, args.harmonics, args.snr, seed=args.seed + 1)
    else:
        stream = embed_video(truth, args.fps, args.height, args.snr, seed=args.seed + 1)
    # one call per mode, in order of first mention: StripEnf draws are numbered
    # per segment and ReplaceEnf resynthesizes once
    for mode in dict.fromkeys(mode for _, _, mode in args.forge):
        segments = [(a, b) for a, b, m in args.forge if m is mode]
        stream = forge_segments(stream, segments, mode, seed=args.seed + 2)
    stream_io.save_stream(stream, os.path.join(args.out, "stream.json"))
    stream_io.save_enf_csv(truth, os.path.join(args.out, "truth.csv"))
    return 0


def cmd_estimate(args):
    stream = stream_io.load_stream(args.stream)
    cfg = dataclasses.replace(default_config_for(stream), **_given(args, EstimatorConfig))
    series = estimate_enf(stream, cfg)
    stream_io.save_enf_csv(series, os.path.join(args.out, "enf.csv"))
    stream_io.save_enf_json(series, os.path.join(args.out, "enf.json"))
    return 0


def cmd_consensus_sim(args):
    cfg = CommitteeConfig(**_given(args, CommitteeConfig))
    observers = [Honest(**_given(args, Honest)) for _ in range(cfg.K - cfg.f)]
    observers += [dataclasses.replace(args.behavior) for _ in range(cfg.f)]
    # run_round reseeds the grid with [seed, round_no]
    results, summary = simulate_rounds(GridConfig(), observers, cfg, args.rounds, args.seed)
    stream_io.save_jsonl(
        os.path.join(args.out, "rounds.jsonl"),
        (_round_record(rr, scores={str(k): v for k, v in rr.scores.items()}) for rr in results),
    )
    stream_io.dump_json(summary, os.path.join(args.out, "summary.json"))
    return 0


def _report_to_dict(rep):
    return {
        "overall_verdict": rep.overall_verdict.value,
        "forged_intervals": [[float(a), float(b)] for a, b in rep.forged_intervals],
        "windows": [{"start_s": w.start_s, "end_s": w.end_s, "corr": w.corr,
                     "verdict": w.verdict.value} for w in rep.windows],
    }


def cmd_detect(args):
    local = stream_io.load_enf_csv(args.local)
    truth = stream_io.load_enf_csv(args.truth)
    rep = sliding_window_detect(local, truth, DetectorConfig(**_given(args, DetectorConfig)))
    stream_io.dump_json(_report_to_dict(rep), os.path.join(args.out, "report.json"))
    stream_io.save_csv(os.path.join(args.out, "windows.csv"),
                       ("start_s", "end_s", "corr", "verdict"),
                       ((w.start_s, w.end_s, w.corr, w.verdict.value) for w in rep.windows))
    return 0


_NESTED_CONFIGS = {
    "grid": GridConfig,
    "estimator": EstimatorConfig,
    "detector": DetectorConfig,
    "committee": CommitteeConfig,
}


def _scenario_from_json(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"bad scenario config: want an object, got {type(raw).__name__}")
    try:
        kw = {k: _NESTED_CONFIGS[k](**v) if k in _NESTED_CONFIGS else v for k, v in raw.items()}
        return harness.ScenarioConfig(**kw)
    except TypeError as exc:
        raise InvalidArgumentError(f"bad scenario config: {exc}") from exc


def cmd_scenario(args):
    cfg = _scenario_from_json(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    res = harness.run_scenario(cfg)
    stream_io.dump_json(res["summary"], os.path.join(args.out, "summary.json"))
    stream_io.dump_json({str(p): _report_to_dict(rep) for p, rep in res["reports"].items()},
                        os.path.join(args.out, "reports.json"))
    stream_io.save_jsonl(os.path.join(args.out, "rounds.jsonl"), map(_round_record, res["rounds"]))
    return 0


def cmd_bench(args):
    res = harness.bench_consensus(args.k_list, args.dim, args.trials, args.seed)
    payload = dataclasses.asdict(res)
    if args.d_ratio_k:
        payload["d_doubling_ratio"] = harness.bench_d_ratio(
            args.d_ratio_k, args.dim, args.trials, args.seed
        )
    # stdout only: timings are hardware noise, keeping them out of files
    # preserves run-to-run byte determinism of everything under --out
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_roc(args):
    cc = harness.CorpusConfig(**_given(args, harness.CorpusConfig))
    table = harness.roc_sweep(args.windows, cc)
    stream_io.dump_json(
        [
            {"window_s": row["window_s"], "auc": row["auc"],
             "points": [[t if np.isfinite(t) else None, tp, fp] for t, tp, fp in row["points"]]}
            for row in table
        ],
        os.path.join(args.out, "roc.json"),
    )
    stream_io.save_csv(os.path.join(args.out, "auc.csv"), ("window_s", "auc"),
                       ((row["window_s"], row["auc"]) for row in table))
    return 0


@functools.cache  # every add_argument asks the terminal its size: build once per process
def build_parser():
    p = argparse.ArgumentParser(prog="enfnet", description="ENF deepfake detection toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    # a flag whose dest names a config field has no default: an absent flag leaves
    # the field out of _given(args, cls), so the config class supplies it
    configured = {"argument_default": argparse.SUPPRESS}
    # numpy seeds its generators from integers >= 0 only
    seed = _spec(lambda text: _whole(int(text), "seed", 0), "an integer >= 0")

    g = sub.add_parser("generate", help="synthesize an ENF-bearing stream", **configured)
    g.add_argument("--kind", choices=["audio", "video"], default="audio")
    g.add_argument("--duration", type=float, default=120.0)
    g.add_argument("--truth-step", type=float, default=1.0)
    g.add_argument("--seed", type=seed, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--nominal", dest="nominal_hz", type=float)
    g.add_argument("--drift", dest="drift_std_hz", type=float)
    g.add_argument("--max-dev", dest="max_dev_hz", type=float)
    g.add_argument("--sample-rate", type=float, default=44100.0)
    g.add_argument("--harmonics", type=_spec(_parse_harmonics, "order[:amp],..."),
                   default=harness.DEFAULT_HARMONICS)
    g.add_argument("--snr", type=float, default=20.0)
    g.add_argument("--fps", type=float, default=25.0)
    g.add_argument("--height", type=int, default=360)
    g.add_argument("--forge", type=_spec(_parse_forge, "start:end:mode[;...]"), default="",
                   help="start:end:mode[;...] e.g. 60:90:ReplaceEnf")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("estimate", help="recover the ENF series from a stream file", **configured)
    e.add_argument("--stream", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--nominal", dest="nominal_hz", type=float,
                   help="default: the stream header's nominal_hz")
    e.add_argument("--harmonics", type=_spec(_parse_ints, "comma-separated integer orders"),
                   help="comma-separated orders; default by stream kind")
    e.add_argument("--band-halfwidth", dest="band_halfwidth_hz", type=float)
    e.add_argument("--window", dest="stft_window_s", type=float)
    e.add_argument("--overlap", dest="stft_overlap_frac", type=float)
    e.set_defaults(func=cmd_estimate)

    c = sub.add_parser("consensus-sim", help="run seeded PoENF consensus rounds", **configured)
    c.add_argument("--committee", dest="K", type=int, default=10)
    c.add_argument("--byzantine", dest="f", type=int, default=3)
    c.add_argument("--dim", dest="d", type=int, default=720)
    c.add_argument("--rounds", type=int, default=100)
    c.add_argument("--round-duration", dest="round_duration_s", type=float)
    c.add_argument("--behavior", default="offset:1.0", type=_spec(
        parse_behavior, "honest[:noise], offset[:hz], random, clone[:hz] or silent"))
    c.add_argument("--noise", dest="noise_std", type=float)
    c.add_argument("--seed", type=seed, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_consensus_sim)

    d = sub.add_parser("detect", help="sliding-window comparison of two ENF CSVs", **configured)
    d.add_argument("--local", required=True)
    d.add_argument("--truth", required=True)
    d.add_argument("--window", dest="window_s", type=float)
    d.add_argument("--shift", dest="shift_s", type=float)
    d.add_argument("--threshold", type=float)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_detect)

    s = sub.add_parser("scenario", help="full conference scenario from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=seed, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_scenario)

    b = sub.add_parser("bench", help="consensus latency scaling benchmark (stdout only)")
    b.add_argument("--k-list", type=_spec(_parse_ints, "comma-separated integers"),
                   default="10,20,50,100,200")
    b.add_argument("--dim", type=int, default=720)
    b.add_argument("--trials", type=int, default=5)
    b.add_argument("--d-ratio-k", type=int, default=0,
                   help="also measure the d-doubling latency ratio at this K")
    b.add_argument("--seed", type=seed, default=0)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("roc", help="ROC/AUC sweep over detector window sizes", **configured)
    r.add_argument("--windows", type=_spec(_parse_floats, "comma-separated seconds"),
                   default="8,16,32")
    r.add_argument("--streams", dest="n_streams", type=int)
    r.add_argument("--duration", dest="duration_s", type=float)
    r.add_argument("--snr", dest="snr_db", type=float)
    r.add_argument("--seed", type=seed)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_roc)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return exc.code
    try:
        if "out" in args:
            os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure, an unopenable or non-JSON input included
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
