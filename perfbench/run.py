"""Layered benchmark for enfnet: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

enfnet is imported from ``src/`` of the checkout that holds this file.
A workload runs in this single process as a closed loop, one item in flight
at a time, until ``--seconds`` have passed and at least the workload's
quality items have run. ``all`` runs each workload in its own process.

With ``--trace 0`` the run reports end-to-end metrics (median and tail of
item latency, throughput, set-up time, peak RSS, error rate and the
workload's quality metrics). With ``--trace 1`` every item runs twice, once
untraced and once under the span tracer: the traced copy gives the
per-layer table, the pairs give the tracing overhead, and the two copies
must produce identical quality records. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results and spans are written under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("corpus_roc", "conference_44k", "committee_rounds", "cli_video")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
clock = time.perf_counter


IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import enfnet; print(time.perf_counter() - t0)")


def import_package():
    """Import enfnet from this checkout's src/; return the seconds each of
    SETUP_REPEATS imports took: this one, then fresh interpreters."""
    if not (SRC / "enfnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no enfnet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import enfnet
    times = [clock() - t0]
    if Path(enfnet.__file__).resolve().parent != (SRC / "enfnet").resolve():
        raise SystemExit(f"error: imported enfnet from {enfnet.__file__}, not {SRC}")
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)], check=True,
                             stdout=subprocess.PIPE, text=True, timeout=60).stdout
        times.append(float(out))
    return times


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


class Loop:
    """Runs one workload as a closed loop; collects timings, records and failures."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.latencies = []  # seconds, successful untraced items
        self.traced_latencies = []
        self.media_s = 0.0
        self.records = {}  # item -> record, first quality_items items
        self.attempted = 0
        self.failed = 0  # items with any failure
        self.failures = []  # one message per failure

    def _one(self, i, traced):
        """Run and check item i; returns (outcome, seconds), or (None, None) on failure."""
        if traced:
            self.tracer.item = i
            self.tracer.install()
        t0 = clock()
        try:
            out = self.wl.run(i)
            dt = clock() - t0
        except Exception as exc:
            self.failures.append(f"item {i}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            outcome = self.wl.check(i, out)
        except Exception as exc:
            self.failures.append(f"item {i}: check raised {type(exc).__name__}: {exc}")
            return None, None
        self.failures += outcome.failures
        return (None, None) if outcome.failures else (outcome, dt)

    def step(self, i):
        self.attempted += 1
        n_fail = len(self.failures)
        if self.tracer is None:
            outcome, dt = self._one(i, traced=False)
        else:
            # alternate which copy runs first, so warm caches favour neither
            if i % 2:
                traced, dt_traced = self._one(i, traced=True)
            outcome, dt = self._one(i, traced=False)
            if not i % 2:
                traced, dt_traced = self._one(i, traced=True)
            if outcome is not None and traced is not None and traced.record != outcome.record:
                self.failures.append(f"item {i}: traced and untraced outputs differ")
        if len(self.failures) > n_fail:
            return False
        if self.tracer is not None:
            self.traced_latencies.append(dt_traced)
        self.latencies.append(dt)
        self.media_s += outcome.media_s
        if i < self.wl.quality_items:
            self.records[i] = outcome.record
        return True

    def run(self, seconds):
        """Run items while the next one, as long as the last, ends within
        ``seconds``; always run at least the quality items."""
        t_start = clock()
        last = 0.0
        i = 0
        while True:
            now = clock()
            if i >= self.wl.quality_items and now - t_start + last > seconds:
                return
            self.failed += not self.step(i)
            last = clock() - now
            i += 1


def end_to_end(loop, setup_s):
    wl = loop.wl
    lat_ms = [1000.0 * t for t in loop.latencies]
    busy = sum(loop.latencies)
    label = wl.item_label
    # the bounded metrics: every workload has them, and none reads 0
    metrics = {
        "item_ms_p50": (percentile(lat_ms, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    named = {
        f"{label}_ms_p50": metrics["item_ms_p50"],
        f"{label}_ms_p90": (percentile(lat_ms, 90), "ms"),
        "error_rate": (loop.failed / loop.attempted, "1"),
        "items": (len(lat_ms), "count"),
    }
    if loop.media_s:
        named["media_s_per_s"] = (loop.media_s / busy, "s/s")
    if loop.records:
        named.update(wl.quality([loop.records[k] for k in sorted(loop.records)]))
    return metrics, named


def per_layer(loop):
    from tracer import TARGETS, layer_totals

    wl, tracer = loop.wl, loop.tracer
    n = max(len(loop.traced_latencies), 1)
    totals = layer_totals(tracer.spans)
    c = tracer.counters
    metrics = {}
    for module, names in TARGETS.items():
        for name in names:
            metrics[f"{name}.self_ms"] = (1000.0 * totals.get(name, (0.0, 0))[0] / n, "ms")
    calls = {name: totals.get(name, (0.0, 0))[1] for name in ("spectrogram", "embed_audio",
                                                             "compute_scores")}
    rounds = n * wl.rounds_per_item
    bins = c["spectrogram.bins_computed"]
    metrics.update({
        "spectrogram.calls": (calls["spectrogram"] / n, "count"),
        "spectrogram.bins_computed": (bins / n, "count"),
        "spectrogram.band_bin_ratio": (c["spectrogram.band_bins"] / bins if bins else 0.0,
                                       "ratio"),
        "spectrogram.mb_computed": (c["spectrogram.mb_computed"] / n, "MB"),
        "embed_audio.calls": (calls["embed_audio"] / n, "count"),
        "samples_synthesized": (c["samples_synthesized"] / n, "count"),
        "compute_scores.calls_per_round": (calls["compute_scores"] / rounds if rounds else 0.0,
                                           "count"),
        "validate_transaction.rejected": (c["validate_transaction.rejected"] / n, "count"),
        "sliding_window_detect.windows": (c["sliding_window_detect.windows"] / n, "count"),
        "mb_written": (c["mb_written"] / n, "MB"),
        "trace.overhead_ms": (1000.0 * percentile(
            [t - u for t, u in zip(loop.traced_latencies, loop.latencies)], 50), "ms"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    })
    for module in TARGETS:
        metrics[f"{module}.errors"] = (c[f"{module}.errors"], "count")
    return metrics


def print_table(title, metrics):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")


def run_workload(args):
    import_s = import_package()
    import workloads
    from tracer import Tracer

    env = environment()
    print(f"# env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}")
    OUT.mkdir(exist_ok=True)
    t0 = clock()
    wl = workloads.make(args.workload, args.seed, str(OUT / f"work-{args.workload}-{os.getpid()}"))
    fixture_s = clock() - t0
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            wl.setup()
            setups.append(clock() - t0)
        setup_s = statistics.median(import_s) + fixture_s + statistics.median(setups)
        tracer = Tracer() if args.trace else None
        loop = Loop(wl, tracer)
        loop.run(args.seconds)
    finally:
        wl.close()

    for line in loop.failures[:20]:
        print(f"failure: {line}", file=sys.stderr)
    metrics, named = end_to_end(loop, setup_s)
    print_table(f"{wl.name} seed {args.seed}: end to end (untraced items)", metrics)
    print_table(f"{wl.name} seed {args.seed}: workload metrics", named)
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "setup": {"import_s": import_s, "fixture_s": fixture_s, "warmup_s": setups},
              "end_to_end": metrics, "named": named, "failures": loop.failures,
              "item_ms": [1000.0 * t for t in loop.latencies]}
    if tracer is not None:
        layers = per_layer(loop)
        print_table(f"{wl.name} seed {args.seed}: per layer (traced items, per item)", layers)
        top = max((k for k in layers if k.endswith(".self_ms")), key=lambda k: layers[k][0])
        print(f"# largest self time: {top[:-len('.self_ms')]}")
        result.update(per_layer=layers, top_self=top[:-len(".self_ms")])
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.write(OUT / "spans" / f"{wl.name}-seed{args.seed}.jsonl")
        metrics = layers
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    # one thread per process; numpy reads these when import_package() loads it
    os.environ.update({var: "1" for var in THREAD_VARS})
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
