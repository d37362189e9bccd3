"""enfnet runs on numpy alone: no import, estimate, score or CLI command loads
scipy, which only the tests use, as an oracle. Each test runs in a fresh child
interpreter, since this one has long since loaded scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import enfnet

_SRC_ROOT = str(Path(enfnet.__file__).resolve().parent.parent)
# any scipy submodule loads the scipy package first
_HEAVY = ("scipy", "scipy.signal", "scipy.spatial")

# prints, after each step, which of _HEAVY the child has loaded
_PRELUDE = f"""
import json, sys
def mark(step):
    print(json.dumps([step, [m for m in {_HEAVY!r} if m in sys.modules]]))
"""


def _loaded_after_each_step(script, *args):
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _SRC_ROOT + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def test_import_and_cli_without_resampling_or_scoring_load_no_heavy_scipy(tmp_path):
    loaded = _loaded_after_each_step("""
import os
import enfnet
mark("import enfnet")
from enfnet import cli
mark("import enfnet.cli")
gen, det = os.path.join(sys.argv[1], "gen"), os.path.join(sys.argv[1], "det")
assert cli.main(["generate", "--duration", "30", "--sample-rate", "1000", "--seed", "1",
                 "--out", gen]) == 0
mark("generate")
truth = os.path.join(gen, "truth.csv")
assert cli.main(["detect", "--local", truth, "--truth", truth, "--out", det]) == 0
mark("detect")
""", str(tmp_path))
    assert loaded == {step: [] for step in ("import enfnet", "import enfnet.cli", "generate",
                                            "detect")}


def test_estimates_that_resample_load_no_scipy(tmp_path):
    # 44.1 kHz audio and 25 fps x 360-row (9 kHz) video, both read at 500 Hz
    loaded = _loaded_after_each_step("""
import os
from enfnet import GridConfig, cli, embed_audio, embed_video, estimate_enf, gen_enf_truth
grid = GridConfig(seed=1)
truth = gen_enf_truth(grid, 30.0, 1.0)
estimate_enf(embed_audio(truth, 44_100.0, [(1, 1.0)], 30.0, grid=grid))
estimate_enf(embed_video(truth, 25.0, 360, 30.0, grid=grid))
mark("estimate_enf")
for kind in (["--sample-rate", "44100"], ["--kind", "video", "--fps", "25", "--height", "360"]):
    gen, est = os.path.join(sys.argv[1], "gen" + kind[1]), os.path.join(sys.argv[1], "est" + kind[1])
    assert cli.main(["generate", "--duration", "30", "--seed", "1", "--out", gen, *kind]) == 0
    assert cli.main(["estimate", "--stream", os.path.join(gen, "stream.json"),
                     "--out", est]) == 0
mark("cli estimate")
""", str(tmp_path))
    assert loaded == {"estimate_enf": [], "cli estimate": []}


# a small conference: 5 participants, one 30 s round scored by a committee of 5
_SCENARIO = {"participants": 5, "deepfaked_participants": [4],
             "committee": {"K": 5, "f": 1, "d": 20, "round_duration_s": 30.0}, "rounds": 1}


def test_scoring_loads_no_scipy(tmp_path):
    (tmp_path / "scen.json").write_text(json.dumps(_SCENARIO))
    loaded = _loaded_after_each_step("""
import os
import numpy as np
from enfnet import CommitteeConfig, cli
from enfnet.poenf_consensus import EnfTransaction, TransactionPool, compute_scores
pool = TransactionPool(round=0)
for v in range(5):
    pool.insert(EnfTransaction(v, 0, np.full(8, 60.0 + v)))
compute_scores(pool, CommitteeConfig(K=5, f=1, d=8))
mark("compute_scores")
assert cli.main(["consensus-sim", "--rounds", "3", "--out", os.path.join(sys.argv[1], "sim")]) == 0
mark("consensus-sim")
assert cli.main(["scenario", "--config", os.path.join(sys.argv[1], "scen.json"),
                 "--out", os.path.join(sys.argv[1], "scen")]) == 0
mark("scenario")
""", str(tmp_path))
    assert loaded == {"compute_scores": [], "consensus-sim": [], "scenario": []}


def test_commands_run_with_scipy_blocked(tmp_path):
    """With scipy unimportable, as where it is not installed, every command that
    synthesises, estimates or scores exits 0."""
    (tmp_path / "scen.json").write_text(json.dumps(_SCENARIO))
    loaded = _loaded_after_each_step("""
import os
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from enfnet import cli
out = lambda name: os.path.join(sys.argv[1], name)
codes = [
    cli.main(["consensus-sim", "--rounds", "3", "--out", out("sim")]),
    cli.main(["scenario", "--config", out("scen.json"), "--out", out("scen")]),
    cli.main(["generate", "--duration", "30", "--sample-rate", "44100", "--seed", "1",
              "--out", out("gen")]),
    cli.main(["estimate", "--stream", os.path.join(out("gen"), "stream.json"),
              "--out", out("est")]),
]
print(json.dumps(["exit codes", codes]))
""", str(tmp_path))
    assert loaded == {"exit codes": [0, 0, 0, 0]}
