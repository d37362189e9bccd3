"""A fixed set of CLI invocations that covers every file-producing subcommand.

Criterion 8 runs CASES twice and compares the bytes; the golden test runs
CASES plus GOLDEN_EXTRA once and compares the outputs with
tests/golden/manifest.json. In each argv, "{d}" is the case's output directory,
"{scen}" the scenario file and "{<case>}" the output directory of an earlier
case.
"""

import json

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

CASES = [
    ("gen_g", ["generate", "--duration", "30", "--sample-rate", "8000",
               "--snr", "20", "--seed", "7", "--out", "{d}"]),
    ("gen_f", ["generate", "--duration", "30", "--sample-rate", "8000",
               "--snr", "20", "--seed", "7", "--forge", "10:18:ReplaceEnf", "--out", "{d}"]),
    # a 1 s hop, so each 12 s detect window correlates 12 estimates
    ("est_g", ["estimate", "--stream", "{gen_g}/stream.json", "--overlap", "0.875",
               "--seed", "7", "--out", "{d}"]),
    ("est_f", ["estimate", "--stream", "{gen_f}/stream.json", "--overlap", "0.875",
               "--seed", "7", "--out", "{d}"]),
    ("detect", ["detect", "--local", "{est_f}/enf.csv", "--truth", "{est_g}/enf.csv",
                "--window", "12", "--shift", "4", "--seed", "7", "--out", "{d}"]),
    ("consensus", ["consensus-sim", "--committee", "6", "--byzantine", "1", "--dim", "30",
                   "--rounds", "5", "--behavior", "offset:1.0", "--seed", "7", "--out", "{d}"]),
    ("scenario", ["scenario", "--config", "{scen}", "--seed", "7", "--out", "{d}"]),
    ("roc", ["roc", "--windows", "8,16", "--streams", "4", "--duration", "90",
             "--snr", "15", "--seed", "7", "--out", "{d}"]),
]

# pin the estimator's default config, and the rolling-shutter path with both
# forgery modes
GOLDEN_EXTRA = [
    ("est_d", ["estimate", "--stream", "{gen_f}/stream.json", "--seed", "7", "--out", "{d}"]),
    ("gen_v", ["generate", "--kind", "video", "--duration", "12", "--fps", "25",
               "--height", "48", "--snr", "20", "--seed", "7",
               "--forge", "3:5:ReplaceEnf;7:9:StripEnf", "--out", "{d}"]),
]


def write_scenario(tmp_path):
    """The scenario file the "scenario" case reads, written under tmp_path."""
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(SCENARIO))
    return path
