"""Workload definitions. Each drives enfnet through its public functions.

A workload builds its inputs from the seed alone. ``run(i)`` is the timed
item; ``check(i, out)`` verifies the outputs outside the timed region and
returns an :class:`Outcome`. Quality metrics are computed from the first
``quality_items`` items only, so they do not depend on how many items fit
into the measured time and read the same in traced and untraced runs.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import enfnet
from enfnet import cli

NOMINAL_HZ = 60.0


@dataclass
class Outcome:
    media_s: float  # seconds of media the item analysed
    record: dict  # deterministic outputs the quality metrics are built from
    failures: list = field(default_factory=list)  # failed output checks


class Workload:
    """Defaults shared by the workloads below."""

    rounds_per_item = 0  # consensus rounds in one item

    def close(self):
        """Release what setup() made."""


def _finite_near_nominal(values, what):
    v = np.asarray(values, dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v)):
        return [f"{what}: empty or non-finite"]
    if np.any(np.abs(v - NOMINAL_HZ) > 1.0):
        return [f"{what}: outside +-1 Hz of nominal"]
    return []


def _check_estar(rr, K, d, what):
    fails = _finite_near_nominal(rr.ground_truth_enf.values_hz, what)
    if len(rr.ground_truth_enf) != d:
        fails.append(f"{what}: E* length {len(rr.ground_truth_enf)} != d={d}")
    if not 0 <= rr.ground_truth_id < K:
        fails.append(f"{what}: winner {rr.ground_truth_id} not a committee member")
    return fails


def _read_enf_csv(path):
    """(n, 2) array of time_s, freq_hz from an enfnet ENF CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def auc_fake_below(genuine, fake):
    """Area under the ROC of 'fake iff score < t': P(fake < genuine), ties half."""
    g = np.asarray(genuine, dtype=float)[None, :]
    f = np.asarray(fake, dtype=float)[:, None]
    return float(np.mean((f < g) + 0.5 * (f == g)))


class CorpusRoc(Workload):
    """make_detection_corpus, then stream_score + roc_curve per window, then
    localization_accuracy: the calls roc_sweep makes, one small corpus per item."""

    name = "corpus_roc"
    item_label = "corpus"
    windows_s = (8.0, 16.0, 32.0)

    def __init__(self, seed, streams_per_item=4, duration_s=300.0, quality_items=10):
        self.seed = seed
        self.streams_per_item = streams_per_item
        self.duration_s = duration_s
        self.quality_items = quality_items

    def _config(self, seed, n_streams, duration_s):
        return enfnet.CorpusConfig(
            n_streams=n_streams, duration_s=duration_s, snr_db=-10.0,
            grid=enfnet.GridConfig(max_dev_hz=0.5), seed=seed,
        )

    def _item(self, cc):
        entries = enfnet.make_detection_corpus(cc)
        labels = [e.forged for e in entries]
        per_window = {}
        for w in self.windows_s:
            det = enfnet.DetectorConfig(window_s=w, shift_s=cc.shift_s)
            scores = [enfnet.stream_score(e, det) for e in entries]
            genuine = [s for s, lab in zip(scores, labels) if not lab]
            fake = [s for s, lab in zip(scores, labels) if lab]
            _, auc = enfnet.roc_curve(genuine, fake)
            per_window[w] = (genuine, fake, auc)
        loc = enfnet.localization_accuracy(
            entries, enfnet.DetectorConfig(window_s=16.0, shift_s=cc.shift_s))
        return entries, per_window, loc

    def setup(self):
        # warm-up: the same calls on a two-stream, 120 s corpus
        self._item(self._config(10**6 + self.seed, 2, 120.0))

    def run(self, i):
        return self._item(self._config(self.seed * 1000 + i, self.streams_per_item,
                                       self.duration_s))

    def check(self, i, out):
        entries, per_window, (hits, total, _) = out
        fails = []
        sq_err, n_bins = 0.0, 0
        for e in entries:
            fails += _finite_near_nominal(e.local.values_hz, f"corpus {i} estimate")
            if not e.forged:
                sq_err += float(np.sum((e.local.values_hz - e.reference.values_hz) ** 2))
                n_bins += len(e.local)
        for w, (genuine, fake, auc) in per_window.items():
            if abs(auc - auc_fake_below(genuine, fake)) > 1e-9:
                fails.append(f"corpus {i}: roc_curve AUC at {w} s disagrees with rank AUC")
        genuine16, fake16, _ = per_window[16.0]
        record = {"genuine16": genuine16, "fake16": fake16, "sq_err": sq_err,
                  "n_bins": n_bins, "hits": hits, "forged": total}
        return Outcome(len(entries) * self.duration_s, record, fails)

    def quality(self, records):
        genuine = [s for r in records for s in r["genuine16"]]
        fake = [s for r in records for s in r["fake16"]]
        rmse = np.sqrt(sum(r["sq_err"] for r in records) / sum(r["n_bins"] for r in records))
        return {
            "auc": (auc_fake_below(genuine, fake), "1"),
            "enf_rmse_mhz": (1000.0 * float(rmse), "mHz"),
            "loc_hit_rate": (sum(r["hits"] for r in records)
                             / sum(r["forged"] for r in records), "1"),
        }


class Conference44k(Workload):
    """run_scenario on 44.1 kHz audio: 10 participants, 2 deepfaked, K=10, f=3.

    The grid clamp is the wide 0.5 Hz of corpus_roc: on the default 0.05 Hz
    clamp the truth is flat for whole detector windows, a flat window
    correlates to 0, and genuine streams read Fake."""

    name = "conference_44k"
    item_label = "scenario"
    rounds_per_item = 2

    def __init__(self, seed, participants=10, byzantine=3, round_s=60.0, forgery_s=40.0,
                 quality_items=2):
        self.seed = seed
        self.sizes = (participants, byzantine, round_s, forgery_s)
        self.quality_items = quality_items

    def _config(self, seed, participants, byzantine, round_s, forgery_s):
        rng = np.random.default_rng([seed, 7])
        fakes = {int(p) for p in rng.choice(participants, size=2, replace=False)}
        return enfnet.ScenarioConfig(
            participants=participants, byzantine=byzantine, deepfaked_participants=fakes,
            committee=enfnet.CommitteeConfig(K=participants, f=byzantine, d=int(round_s),
                                             round_duration_s=round_s),
            grid=enfnet.GridConfig(max_dev_hz=0.5), rounds=self.rounds_per_item, seed=seed,
            sample_rate_hz=44100.0, forgery_len_s=forgery_s,
        )

    def setup(self):
        # warm-up: a five-participant conference of two 12 s rounds
        enfnet.run_scenario(self._config(10**6 + self.seed, 5, 1, 12.0, 4.0))

    def run(self, i):
        cfg = self._config(self.seed * 1000 + i, *self.sizes)
        return cfg, enfnet.run_scenario(cfg)

    def check(self, i, out):
        cfg, res = out
        s = res["summary"]
        fails = []
        if s["tp"] + s["fp"] + s["tn"] + s["fn"] != cfg.participants:
            fails.append(f"scenario {i}: confusion counts do not sum to participants")
        if len(res["rounds"]) != cfg.rounds:
            fails.append(f"scenario {i}: {len(res['rounds'])} rounds, expected {cfg.rounds}")
        for rr in res["rounds"]:
            fails += _check_estar(rr, cfg.committee.K, cfg.committee.d,
                                  f"scenario {i} round {rr.round}")
        record = {"verdict_errors": s["fp"] + s["fn"],
                  "honest_win_rate": s["honest_win_rate"],
                  "agreement_rate": s["agreement_rate"]}
        return Outcome(cfg.participants * cfg.rounds * cfg.committee.round_duration_s, record,
                       fails)

    def quality(self, records):
        return {
            "verdict_errors": (sum(r["verdict_errors"] for r in records), "count"),
            "honest_win_rate": (float(np.mean([r["honest_win_rate"] for r in records])), "1"),
            "agreement_rate": (float(np.mean([r["agreement_rate"] for r in records])), "1"),
        }


class CommitteeRounds(Workload):
    """run_round at K=100, f=32, d=720 with four byzantine behaviours."""

    name = "committee_rounds"
    item_label = "round"
    rounds_per_item = 1

    def __init__(self, seed, K=100, f=32, d=720, quality_items=40):
        self.seed = seed
        self.quality_items = quality_items
        self.cfg = enfnet.CommitteeConfig(K=K, f=f, d=d)
        self.grid = enfnet.GridConfig(seed=seed)
        kinds = [enfnet.OffsetVector(1.0), enfnet.RandomVector(),
                 enfnet.ColludingClone(), enfnet.Silent()]
        byz = [kinds[j % len(kinds)] for j in range(f)]
        observers = [enfnet.Honest() for _ in range(K - f)] + byz
        order = np.random.default_rng([seed, 11]).permutation(K)
        self.observers = [observers[j] for j in order]
        self.honest = {v for v, b in enumerate(self.observers) if isinstance(b, enfnet.Honest)}

    def setup(self):
        enfnet.run_round(self.grid, self.observers, self.cfg, seed=self.seed, round_no=10**6)

    def run(self, i):
        return enfnet.run_round(self.grid, self.observers, self.cfg, seed=self.seed,
                                round_no=i)

    def check(self, i, rr):
        fails = _check_estar(rr, self.cfg.K, self.cfg.d, f"round {i}")
        record = {"honest_win": int(rr.ground_truth_id in self.honest),
                  "agreement": int(rr.honest_agreement)}
        return Outcome(0.0, record, fails)  # no media: consensus only

    def quality(self, records):
        return {
            "honest_win_rate": (float(np.mean([r["honest_win"] for r in records])), "1"),
            "agreement_rate": (float(np.mean([r["agreement"] for r in records])), "1"),
        }


class CliVideo(Workload):
    """Genuine and forged rolling-shutter videos through the CLI, file to file,
    on the wide 0.5 Hz grid clamp for the reason given in Conference44k."""

    name = "cli_video"
    item_label = "case"
    forged_s = 30.0  # length of the ReplaceEnf span in the forged video
    files = {
        "generate": ("stream.json", "stream.f32", "truth.csv"),
        "estimate": ("enf.csv", "enf.json"),
        "detect": ("report.json", "windows.csv"),
    }

    def __init__(self, seed, workdir, duration_s=120.0, height=360, quality_items=10):
        self.seed = seed
        self.workdir = workdir
        self.duration_s = duration_s
        self.height = height
        self.quality_items = quality_items

    def _path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def commands(self, case_seed, duration_s):
        """The CLI invocations of one case, in order."""
        a = int(np.random.default_rng([case_seed, 5]).integers(
            duration_s / 6, duration_s - duration_s / 6 - self.forged_s))
        video = ["--kind", "video", "--duration", repr(duration_s), "--fps", "25",
                 "--height", str(self.height), "--max-dev", "0.5", "--seed", str(case_seed)]
        est = ["--window", "8", "--overlap", "0.875"]
        return [
            ["generate", *video, "--out", self._path("genuine")],
            ["generate", *video, "--forge", f"{a}:{a + self.forged_s:g}:ReplaceEnf",
             "--out", self._path("forged")],
            ["estimate", "--stream", self._path("genuine", "stream.json"), *est,
             "--out", self._path("est_genuine")],
            ["estimate", "--stream", self._path("forged", "stream.json"), *est,
             "--out", self._path("est_forged")],
            ["detect", "--local", self._path("est_genuine", "enf.csv"),
             "--truth", self._path("reference.csv"), "--out", self._path("det_genuine")],
            ["detect", "--local", self._path("est_forged", "enf.csv"),
             "--truth", self._path("reference.csv"), "--out", self._path("det_forged")],
        ]

    def _write_reference(self):
        # grid truth resampled onto the estimate clock, as detect requires; plain
        # numpy I/O, so the benchmark's own step adds no spans or counters
        truth = _read_enf_csv(self._path("genuine", "truth.csv"))
        times = _read_enf_csv(self._path("est_genuine", "enf.csv"))[:, 0]
        ref = np.interp(times, truth[:, 0], truth[:, 1])
        with open(self._path("reference.csv"), "w") as fh:
            fh.write("time_s,freq_hz\n")
            fh.writelines(f"{t!r},{v!r}\n" for t, v in zip(times.tolist(), ref.tolist()))

    def _case(self, case_seed, duration_s):
        cmds = self.commands(case_seed, duration_s)
        codes = [cli.main(argv) for argv in cmds[:4]]
        if all(c == 0 for c in codes):
            self._write_reference()
        return codes + [cli.main(argv) for argv in cmds[4:]]

    def _clear(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def setup(self):
        self._clear()
        self._case(10**6 + self.seed, 60.0)  # warm-up: a 60 s case
        self._clear()

    def run(self, i):
        return self._case(self.seed * 1000 + i, self.duration_s)

    def check(self, i, codes):
        try:
            return self._check(i, codes)
        finally:
            self._clear()  # no case can pass on a previous case's files

    def _check(self, i, codes):
        fails = []
        for argv, code in zip(self.commands(0, self.duration_s), codes):
            out = argv[argv.index("--out") + 1]
            if code != 0:
                fails.append(f"case {i}: {argv[0]} -> {os.path.basename(out)} exited {code}")
                continue
            missing = [f for f in self.files[argv[0]] if not os.path.exists(os.path.join(out, f))]
            if missing:
                fails.append(f"case {i}: {argv[0]} did not write {missing}")
        if fails:
            return Outcome(2 * self.duration_s, {}, fails)
        est = {}
        for kind in ("genuine", "forged"):
            est[kind] = _read_enf_csv(self._path(f"est_{kind}", "enf.csv"))[:, 1]
            fails += _finite_near_nominal(est[kind], f"case {i} {kind} estimate")
        # reference.csv is the grid truth on the genuine estimate's clock
        err = est["genuine"] - _read_enf_csv(self._path("reference.csv"))[:, 1]
        with open(self._path("det_genuine", "report.json")) as fh:
            fp = json.load(fh)["overall_verdict"] != "Genuine"
        with open(self._path("det_forged", "report.json")) as fh:
            fn = json.load(fh)["overall_verdict"] != "Fake"
        record = {"verdict_errors": int(fp) + int(fn), "sq_err": float(np.sum(err ** 2)),
                  "n_bins": len(err)}
        return Outcome(2 * self.duration_s, record, fails)

    def quality(self, records):
        rmse = np.sqrt(sum(r["sq_err"] for r in records) / sum(r["n_bins"] for r in records))
        return {"verdict_errors": (sum(r["verdict_errors"] for r in records), "count"),
                "enf_rmse_mhz": (1000.0 * float(rmse), "mHz")}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CorpusRoc, Conference44k, CommitteeRounds, CliVideo)}


def make(name, seed, workdir):
    if name == CliVideo.name:
        return CliVideo(seed, workdir)
    return WORKLOADS[name](seed)
