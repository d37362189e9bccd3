"""Rewrite tests/golden/manifest.json from this tree's CLI outputs, and print
every output file that moved with its largest relative move.

    PYTHONPATH=src python tests/golden/rewrite_manifest.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import MANIFEST, diffs, run_cases  # noqa: E402


def _relative_move(old, new):
    if isinstance(old, float) and isinstance(new, float):
        return abs(new - old) / max(abs(old), abs(new))
    return math.inf  # a key, length, type, string or integer that changed


def main():
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = run_cases(Path(tmp))
    for case, files in new.items():
        for name, summary in files.items():
            if name not in old.get(case, {}):
                print(f"{case}/{name}: new")
                continue
            moves = [_relative_move(a, b)
                     for _, a, b in diffs(old[case][name], summary)]
            if moves:
                print(f"{case}/{name}: {len(moves)} values moved, "
                      f"largest relative move {max(moves):.3g}")
    gone = [f"{c}/{n}" for c, files in old.items() for n in files if n not in new.get(c, {})]
    if gone:
        print("no longer written:", ", ".join(gone))
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
