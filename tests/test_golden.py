"""Golden outputs: the CLI cases of cli_cases, run in-process through cli.main,
against the outputs recorded in tests/golden/manifest.json.

Keys, integers, strings and verdicts must match exactly and floats within
math.isclose(rel_tol=REL_TOL, abs_tol=ABS_TOL): numpy picks its SIMD kernels
by CPU, so bytes that match on one host are not promised on another. A .f32
payload is recorded as its length, mean, std, min and max; the estimates made
from it cover its content. A change that moves an output on purpose rewrites
the manifest with ``PYTHONPATH=src python tests/golden/rewrite_manifest.py``,
which prints every file that moved and its largest relative move.
"""

import json
import math
from pathlib import Path

import numpy as np

from enfnet import cli

from cli_cases import CASES, GOLDEN_EXTRA, write_scenario

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
REL_TOL, ABS_TOL = 1e-9, 1e-12


def _cell(text):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _summary(path):
    """What the manifest records of one output file."""
    if path.suffix == ".f32":
        x = np.fromfile(path, dtype="<f4").astype(float)
        return {"len": len(x), "mean": float(np.mean(x)), "std": float(np.std(x)),
                "min": float(np.min(x)), "max": float(np.max(x))}
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    if path.suffix == ".csv":
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]
    raise ValueError(f"no summary rule for {path.name}")


def run_cases(tmp_path):
    """{case: {file name: summary}} of every case, each written under tmp_path."""
    scen = write_scenario(tmp_path)
    dirs, out = {}, {}
    for name, argv in CASES + GOLDEN_EXTRA:
        d = tmp_path / name
        assert cli.main([a.format(d=d, scen=scen, **dirs) for a in argv]) == 0, name
        dirs[name] = str(d)
        out[name] = {p.name: _summary(p) for p in sorted(d.iterdir())}
    return out


def diffs(old, new, where=""):
    """(where, old, new) for each leaf of new that differs from old. A changed key
    set, list length or type is one leaf."""
    if type(old) is not type(new):
        yield where, old, new
    elif isinstance(old, dict):
        if old.keys() != new.keys():
            yield f"{where} keys", sorted(old), sorted(new)
        else:
            for k in old:
                yield from diffs(old[k], new[k], f"{where}/{k}")
    elif isinstance(old, list):
        if len(old) != len(new):
            yield f"{where} length", len(old), len(new)
        else:
            for i, (a, b) in enumerate(zip(old, new)):
                yield from diffs(a, b, f"{where}[{i}]")
    elif old != new and not (isinstance(old, float) and math.isnan(old) and math.isnan(new)):
        yield where, old, new


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    golden = json.loads(MANIFEST.read_text())
    moved = [
        (where, old, new) for where, old, new in diffs(golden, run_cases(tmp_path))
        if not (isinstance(old, float)
                and math.isclose(old, new, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    ]
    assert not moved, f"{len(moved)} values moved, first {moved[:5]}"
