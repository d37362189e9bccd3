"""Tests of the benchmark itself: workloads at tiny sizes, the tracer and the runner.

Run with: python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import enfnet
import run
import workloads
from tracer import Tracer, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name, tmp_path):
    if name == "corpus_roc":
        return workloads.CorpusRoc(3, streams_per_item=2, duration_s=120.0, quality_items=1)
    if name == "conference_44k":
        return workloads.Conference44k(3, participants=5, byzantine=1, round_s=12.0,
                                       forgery_s=4.0, quality_items=1)
    if name == "committee_rounds":
        return workloads.CommitteeRounds(3, K=9, f=3, d=24, quality_items=2)
    return workloads.CliVideo(3, str(tmp_path / "work"), duration_s=60.0, height=32,
                              quality_items=1)


def run_tiny(wl, trace):
    wl.setup()
    loop = run.Loop(wl, Tracer() if trace else None)
    try:
        loop.run(seconds=0.0)
    finally:
        wl.close()
    return loop


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_runs_clean_traced_and_untraced(name, tmp_path):
    loop = run_tiny(tiny(name, tmp_path), trace=False)
    assert loop.failed == 0 and loop.failures == []
    metrics, named = run.end_to_end(loop, 1.0)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(metrics)
    assert all(v > 0 for v, _ in metrics.values())
    assert named["error_rate"][0] == 0.0

    traced = run_tiny(tiny(name, tmp_path), trace=True)
    assert traced.failed == 0 and traced.failures == []  # includes traced == untraced outputs
    assert traced.records == loop.records  # quality metrics come from these alone
    layers = run.per_layer(traced)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers)
    assert all(layers[f"{m}.errors"][0] == 0 for m in ("enf_estimation", "cli", "stream_io"))


def test_metric_names_and_units_are_well_formed():
    entries = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]
    names = [e["name"] for e in entries]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", e["unit"]) for e in entries
               if "unit" in e)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in \
        BENCHMARK["end_to_end"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 is covered once
        ("leaf", 2.0, 3.0, 1, 0),
        ("late", 9.0, 12.0, 0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_wraps_every_binding_and_catches_internal_calls():
    original = enfnet.media_synth.embed_audio
    truth = enfnet.gen_enf_truth(enfnet.GridConfig(seed=1), 10.0, 1.0)
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (enfnet, enfnet.media_synth, enfnet.harness, enfnet.cli):
            assert mod.embed_audio is not original
        assert hasattr(enfnet.cli.main, "__wrapped__")
        tracer.item = 7
        stream = enfnet.embed_audio(truth, 1000.0, [(1, 1.0)], 20.0, seed=1)
        enfnet.forge_segments(stream, [(2.0, 5.0)], enfnet.ForgeryMode.ReplaceEnf, seed=2)
    finally:
        tracer.uninstall()
    assert enfnet.harness.embed_audio is original and enfnet.embed_audio is original
    names = [s[0] for s in tracer.spans]
    forge = names.index("forge_segments")
    assert [s[0] for s in tracer.spans if s[3] == forge] == ["gen_enf_truth", "embed_audio"]
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.counters["samples_synthesized"] == 20000


class MissingStream(workloads.CliVideo):
    def commands(self, case_seed, duration_s):
        cmds = super().commands(case_seed, duration_s)
        if case_seed % 2:  # every other case estimates a stream that does not exist
            cmds[2][cmds[2].index("--stream") + 1] = self._path("missing", "stream.json")
        return cmds


def test_failed_cli_case_counts_in_error_rate(tmp_path):
    wl = MissingStream(4, str(tmp_path / "work"), duration_s=60.0, height=32, quality_items=4)
    loop = run_tiny(wl, trace=True)
    assert loop.attempted == 4 and loop.failed == 2
    _, named = run.end_to_end(loop, 1.0)
    assert named["error_rate"][0] == 0.5
    assert any("estimate" in f and "exited 3" in f for f in loop.failures)
    layers = run.per_layer(loop)
    # per failing case: load_stream in estimate, then load_enf_csv in both detects
    assert layers["stream_io.errors"][0] == 6 and layers["cli.errors"][0] == 6


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "committee_rounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
