"""Command-line interface.

Subcommands: generate, estimate, consensus-sim, detect, scenario, bench, roc.
Every subcommand takes --seed; identical invocations write byte-identical
output files. bench prints to stdout only (wall-clock timings are not
reproducible, so they never land in files).

Exit codes: 0 success, 2 invalid configuration/arguments, 3 pipeline error.
Structured argument strings (--harmonics, --forge, --k-list, --windows) are
parsed by argparse, so malformed ones exit 2 before any work starts; main()
returns the code instead of raising SystemExit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import harness, stream_io
from .detection import DetectorConfig, Verdict, sliding_window_detect
from .enf_estimation import EstimatorConfig, estimate_enf
from .errors import ConfigurationError, InvalidArgumentError, QuorumError
from .media_synth import (
    ForgeryMode,
    GridConfig,
    ShutterType,
    embed_audio,
    embed_video,
    forge_segments,
    gen_enf_truth,
)
from .poenf_consensus import CommitteeConfig, Honest, parse_behavior, simulate_rounds


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


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


def _parse_orders(text):
    # "1,2" -> (1, 2); "" -> None (default for the stream kind)
    return tuple(int(k) for k in text.split(",")) if text else None


def _parse_ints(text):
    return [int(k) for k in text.split(",")]


def _parse_floats(text):
    return [float(w) for w in text.split(",")]


def cmd_generate(args):
    out = _ensure_out(args.out)
    grid = GridConfig(
        nominal_hz=args.nominal, drift_std_hz=args.drift, max_dev_hz=args.max_dev, seed=args.seed
    )
    truth = gen_enf_truth(grid, args.duration, args.truth_step)
    if args.kind == "audio":
        stream = embed_audio(
            truth, args.sample_rate, args.harmonics, args.snr,
            seed=args.seed + 1, grid=grid,
        )
    else:
        stream = embed_video(
            truth, args.fps, args.height, ShutterType(args.shutter), args.snr,
            seed=args.seed + 1, mod_depth=args.mod_depth, grid=grid,
        )
    for a, b, mode in args.forge:
        stream = forge_segments(stream, [(a, b)], mode, seed=args.seed + 2)
    stream_io.save_stream(stream, os.path.join(out, "stream.json"))
    stream_io.save_enf_csv(truth, os.path.join(out, "truth.csv"))
    return 0


def cmd_estimate(args):
    out = _ensure_out(args.out)
    stream = stream_io.load_stream(args.stream)
    harmonics = args.harmonics
    if harmonics is None:
        from .enf_estimation import default_config_for

        cfg = default_config_for(stream)
        harmonics = cfg.harmonics
    cfg = EstimatorConfig(
        nominal_hz=args.nominal,
        harmonics=harmonics,
        band_halfwidth_hz=args.band_halfwidth,
        stft_window_s=args.window,
        stft_overlap_frac=args.overlap,
        fft_size=args.fft_size,
        audio_target_rate_hz=args.target_rate,
    )
    series = estimate_enf(stream, cfg)
    stream_io.save_enf_csv(series, os.path.join(out, "enf.csv"))
    stream_io.save_enf_json(series, os.path.join(out, "enf.json"))
    return 0


def cmd_consensus_sim(args):
    out = _ensure_out(args.out)
    cfg = CommitteeConfig(K=args.committee, f=args.byzantine, d=args.dim,
                          round_duration_s=args.round_duration)
    behavior = parse_behavior(args.behavior)
    observers = [Honest(noise_std=args.noise) for _ in range(cfg.K - args.byzantine)]
    observers += [dataclasses.replace(behavior) for _ in range(args.byzantine)]
    grid = GridConfig(seed=args.seed)
    results, summary = simulate_rounds(grid, observers, cfg, rounds=args.rounds, seed=args.seed)
    with open(os.path.join(out, "rounds.jsonl"), "w") as fh:
        for rr in results:
            fh.write(
                json.dumps(
                    {
                        "round": rr.round,
                        "ground_truth_id": rr.ground_truth_id,
                        "honest_agreement": rr.honest_agreement,
                        "scores": {str(k): v for k, v in rr.scores.scores.items()},
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    stream_io.dump_json(summary, os.path.join(out, "summary.json"))
    return 0


def _report_to_dict(rep):
    return {
        "overall_verdict": rep.overall_verdict.value,
        "forged_intervals": [[float(a), float(b)] for a, b in rep.forged_intervals],
        "windows": [
            {
                "start_s": w.start_s,
                "end_s": w.end_s,
                "corr": w.corr,
                "verdict": w.verdict.value,
            }
            for w in rep.windows
        ],
    }


def cmd_detect(args):
    out = _ensure_out(args.out)
    local = stream_io.load_enf_csv(args.local)
    truth = stream_io.load_enf_csv(args.truth)
    cfg = DetectorConfig(window_s=args.window, shift_s=args.shift, threshold=args.threshold)
    rep = sliding_window_detect(local, truth, cfg)
    stream_io.dump_json(_report_to_dict(rep), os.path.join(out, "report.json"))
    with open(os.path.join(out, "windows.csv"), "w") as fh:
        fh.write("start_s,end_s,corr,verdict\n")
        for w in rep.windows:
            fh.write(f"{w.start_s!r},{w.end_s!r},{w.corr!r},{w.verdict.value}\n")
    return 0


def _scenario_from_json(path):
    with open(path) as fh:
        raw = json.load(fh)
    kw = dict(raw)
    if "grid" in kw:
        kw["grid"] = GridConfig(**kw["grid"])
    if "estimator" in kw:
        est = dict(kw["estimator"])
        if "harmonics" in est:
            est["harmonics"] = tuple(est["harmonics"])
        kw["estimator"] = EstimatorConfig(**est)
    if "detector" in kw:
        kw["detector"] = DetectorConfig(**kw["detector"])
    if "committee" in kw:
        kw["committee"] = CommitteeConfig(**kw["committee"])
    if "deepfaked_participants" in kw:
        kw["deepfaked_participants"] = set(kw["deepfaked_participants"])
    if "harmonics" in kw:
        kw["harmonics"] = tuple((int(k), float(a)) for k, a in kw["harmonics"])
    try:
        return harness.ScenarioConfig(**kw)
    except TypeError as exc:
        raise ConfigurationError(f"bad scenario config: {exc}") from exc


def cmd_scenario(args):
    out = _ensure_out(args.out)
    cfg = _scenario_from_json(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    res = harness.run_scenario(cfg)
    stream_io.dump_json(res["summary"], os.path.join(out, "summary.json"))
    stream_io.dump_json(
        {str(p): _report_to_dict(rep) for p, rep in res["reports"].items()},
        os.path.join(out, "reports.json"),
    )
    with open(os.path.join(out, "rounds.jsonl"), "w") as fh:
        for rr in res["rounds"]:
            fh.write(
                json.dumps(
                    {
                        "round": rr.round,
                        "ground_truth_id": rr.ground_truth_id,
                        "honest_agreement": rr.honest_agreement,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return 0


def cmd_bench(args):
    res = harness.bench_consensus(args.k_list, args.dim, args.trials, args.seed)
    payload = {
        "k_list": res.k_list,
        "latencies_s": res.latencies_s,
        "slope": res.slope,
        "d": res.d,
    }
    if args.d_ratio_k:
        payload["d_doubling_ratio"] = harness.bench_d_ratio(
            args.d_ratio_k, args.dim, args.trials, args.seed
        )
    # stdout only: timings are hardware noise, keeping them out of files
    # preserves run-to-run byte determinism of everything under --out
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_roc(args):
    out = _ensure_out(args.out)
    cc = harness.CorpusConfig(
        n_streams=args.streams,
        duration_s=args.duration,
        snr_db=args.snr,
        seed=args.seed,
    )
    table = harness.roc_sweep(args.windows, cc)
    stream_io.dump_json(
        [
            {"window_s": row["window_s"], "auc": row["auc"],
             "points": [[t if np.isfinite(t) else None, tp, fp] for t, tp, fp in row["points"]]}
            for row in table
        ],
        os.path.join(out, "roc.json"),
    )
    with open(os.path.join(out, "auc.csv"), "w") as fh:
        fh.write("window_s,auc\n")
        for row in table:
            fh.write(f"{row['window_s']!r},{row['auc']!r}\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="enfnet", description="ENF deepfake detection toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize an ENF-bearing stream")
    g.add_argument("--kind", choices=["audio", "video"], default="audio")
    g.add_argument("--duration", type=float, default=120.0)
    g.add_argument("--truth-step", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--nominal", type=float, default=60.0)
    g.add_argument("--drift", type=float, default=0.005)
    g.add_argument("--max-dev", type=float, default=0.05)
    g.add_argument("--sample-rate", type=float, default=44100.0)
    g.add_argument("--harmonics", type=_spec(_parse_harmonics, "order[:amp],..."),
                   default="1:1.0,2:0.5,3:0.33")
    g.add_argument("--snr", type=float, default=20.0)
    g.add_argument("--fps", type=float, default=25.0)
    g.add_argument("--height", type=int, default=360)
    g.add_argument("--shutter", default="RollingCMOS",
                   choices=[s.value for s in ShutterType])
    g.add_argument("--mod-depth", type=float, default=0.1)
    g.add_argument("--forge", type=_spec(_parse_forge, "start:end:mode[;...]"), default="",
                   help="start:end:mode[;...] e.g. 60:90:ReplaceEnf")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("estimate", help="recover the ENF series from a stream file")
    e.add_argument("--stream", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--nominal", type=float, default=60.0)
    e.add_argument("--harmonics", type=_spec(_parse_orders, "comma-separated integer orders"),
                   default="", help="comma-separated orders; default by stream kind")
    e.add_argument("--band-halfwidth", type=float, default=0.5)
    e.add_argument("--window", type=float, default=8.0)
    e.add_argument("--overlap", type=float, default=0.5)
    e.add_argument("--fft-size", type=int, default=None)
    e.add_argument("--target-rate", type=float, default=1000.0)
    e.set_defaults(func=cmd_estimate)

    c = sub.add_parser("consensus-sim", help="run seeded PoENF consensus rounds")
    c.add_argument("--committee", type=int, default=10)
    c.add_argument("--byzantine", type=int, default=3)
    c.add_argument("--dim", type=int, default=720)
    c.add_argument("--rounds", type=int, default=100)
    c.add_argument("--round-duration", type=float, default=360.0)
    c.add_argument("--behavior", default="offset:1.0")
    c.add_argument("--noise", type=float, default=0.005)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_consensus_sim)

    d = sub.add_parser("detect", help="sliding-window comparison of two ENF CSVs")
    d.add_argument("--local", required=True)
    d.add_argument("--truth", required=True)
    d.add_argument("--window", type=float, default=16.0)
    d.add_argument("--shift", type=float, default=5.0)
    d.add_argument("--threshold", type=float, default=0.8)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_detect)

    s = sub.add_parser("scenario", help="full conference scenario from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_scenario)

    b = sub.add_parser("bench", help="consensus latency scaling benchmark (stdout only)")
    b.add_argument("--k-list", type=_spec(_parse_ints, "comma-separated integers"),
                   default="10,20,50,100,200")
    b.add_argument("--dim", type=int, default=720)
    b.add_argument("--trials", type=int, default=5)
    b.add_argument("--d-ratio-k", type=int, default=0,
                   help="also measure the d-doubling latency ratio at this K")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("roc", help="ROC/AUC sweep over detector window sizes")
    r.add_argument("--windows", type=_spec(_parse_floats, "comma-separated seconds"),
                   default="8,16,32")
    r.add_argument("--streams", type=int, default=24)
    r.add_argument("--duration", type=float, default=120.0)
    r.add_argument("--snr", type=float, default=10.0)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_roc)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return exc.code
    try:
        return args.func(args)
    except (ConfigurationError, InvalidArgumentError, QuorumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure, unreadable or corrupt inputs included
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
