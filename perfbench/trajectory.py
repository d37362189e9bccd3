"""Repeat the benchmark over seeds and summarise it; optionally record a trajectory entry.

    python3 perfbench/trajectory.py --seeds 101-110 --seconds 20 [--trace-seeds 101,102]
        [--record LABEL]

Runs ``run.py`` once per workload of BENCHMARK.json and per seed, one process at a time. For
every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median. ``--trace-seeds`` adds
traced runs whose per-layer medians form the layer table. ``--record``
appends the summary to ``perfbench/trajectory.json`` under LABEL.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
TRAJECTORY = HERE / "trajectory.json"


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(workload, seed, seconds, trace):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL)
    with open(RESULTS / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return json.load(fh)


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def table(runs, key):
    """metric -> summary over the runs' ``key`` tables."""
    out = {}
    for name, (_, unit) in runs[0][key].items():
        values = [r[key][name][0] for r in runs]
        out[name] = dict(summarise(values), unit=unit, n=len(values))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seeds_arg, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace-seeds", type=seeds_arg, default=[])
    p.add_argument("--record", metavar="LABEL")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    entry = {"label": args.record, "seconds": args.seconds, "seeds": args.seeds,
             "trace_seeds": args.trace_seeds, "workloads": {}}
    for wl in whys:
        runs = [run_once(wl, s, args.seconds, 0) for s in args.seeds]
        entry["env"] = runs[0]["env"]
        summary = {"why": whys[wl],
                   "failures": sum(len(r["failures"]) for r in runs),
                   "end_to_end": table(runs, "end_to_end"), "named": table(runs, "named")}
        print(f"# {wl}: {len(runs)} runs, {summary['failures']} failures")
        for name, s in {**summary["end_to_end"], **summary["named"]}.items():
            flag = ""
            if name in bounds and s["spread"] > bounds[name] / 3:
                flag = f"  <- above a third of bound {bounds[name]}"
            print(f"{name:<34} median {s['median']:>12.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} spread {s['spread']:.4f}{flag}")
        if args.trace_seeds:
            traced = [run_once(wl, s, args.seconds, 1) for s in args.trace_seeds]
            summary["per_layer"] = {k: {"median": v["median"], "unit": v["unit"]}
                                    for k, v in table(traced, "per_layer").items()}
            summary["top_self"] = [r["top_self"] for r in traced]
            summary["traced_failures"] = sum(len(r["failures"]) for r in traced)
            print(f"# {wl}: largest self time in traced runs: {summary['top_self']}, "
                  f"{summary['traced_failures']} failures")
        entry["workloads"][wl] = summary
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")


if __name__ == "__main__":
    main()
