"""End-to-end scenario runner, benchmarks, and evaluation corpora.

Ties the synthedia, estimation, consensus, and detection modules together:
conference-style scenarios with deepfaked participants, the consensus
latency/scaling benchmark, labeled detection corpora, ROC sweeps over
detector window sizes, and forged-interval localization scoring.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .detection import DetectorConfig, Verdict, roc_curve, sliding_window_detect
from .enf_estimation import EstimatorConfig, estimate_enf
from .errors import ConfigurationError, InvalidArgumentError
from .media_synth import (
    AudioStream,
    EnfSeries,
    ForgeryMode,
    GridConfig,
    embed_audio,
    forge_segments,
    gen_enf_truth,
)
from .poenf_consensus import (
    CommitteeConfig,
    EnfTransaction,
    Honest,
    OffsetVector,
    RoundResult,
    TransactionPool,
    compute_scores,
    play_round,
    round_rates,
    select_ground_truth,
)

DEFAULT_HARMONICS: Tuple[Tuple[int, float], ...] = ((1, 1.0), (2, 0.5), (3, 0.33))
# a corpus forgery lasts a whole number of seconds drawn from these bounds
_FORGERY_LEN_BOUNDS_S: Tuple[float, float] = (30.0, 45.0)


@dataclass
class ScenarioConfig:
    participants: int = 10
    byzantine: int = 0
    deepfaked_participants: Set[int] = field(default_factory=set)
    grid: GridConfig = field(default_factory=GridConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    committee: CommitteeConfig = field(
        default_factory=lambda: CommitteeConfig(K=5, f=1, d=60, round_duration_s=60.0)
    )
    rounds: int = 2
    seed: int = 0
    # synthesis knobs not named by the committee/grid configs
    snr_db: float = 20.0
    sample_rate_hz: float = 1000.0
    harmonics: Tuple[Tuple[int, float], ...] = DEFAULT_HARMONICS
    forgery_len_s: Optional[float] = None

    def __post_init__(self):
        self.deepfaked_participants = set(self.deepfaked_participants)
        if self.byzantine > self.committee.f:
            raise ConfigurationError("byzantine count exceeds committee.f")
        if self.committee.K > self.participants:
            raise ConfigurationError("committee.K exceeds participant count")
        if not self.deepfaked_participants <= set(range(self.participants)):
            raise ConfigurationError("deepfaked_participants outside participant id range")
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        # a forgery starts at least 5 s into the conference and ends 5 s before its end
        room = self.duration_s - 10.0
        if self.deepfaked_participants and not 0.0 < self.forgery_span_s <= room:
            raise ConfigurationError(
                f"forgery length {self.forgery_span_s} s outside (0, {room}] for a "
                f"{self.duration_s} s conference"
            )
        nominals = {c.nominal_hz for c in (self.grid, self.estimator, self.committee)}
        if len(nominals) > 1:
            raise ConfigurationError(
                f"grid, estimator and committee disagree on nominal_hz: {sorted(nominals)}"
            )

    @property
    def duration_s(self) -> float:
        return self.rounds * self.committee.round_duration_s

    @property
    def forgery_span_s(self) -> float:
        """forgery_len_s, defaulting to a quarter of the conference up to 45 s."""
        if self.forgery_len_s is None:
            return min(45.0, self.duration_s / 4.0)
        return self.forgery_len_s


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Simulate one conference: shared grid, per-participant media, consensus,
    and per-participant detection against the consensus ground truth.

    Returns {"reports": {pid: DetectionReport}, "rounds": [RoundResult],
    "summary": {...}} with a stream-level confusion count in the summary.
    """
    com = cfg.committee
    grid = dataclasses.replace(cfg.grid, seed=[cfg.seed, 0])
    truth = gen_enf_truth(grid, cfg.duration_s, step_s=1.0)

    forged_at: Dict[int, Tuple[float, float]] = {}
    estimates: Dict[int, EnfSeries] = {}
    for p in range(cfg.participants):
        stream = embed_audio(
            truth, cfg.sample_rate_hz, cfg.harmonics, cfg.snr_db, seed=[cfg.seed, 1, p], grid=grid
        )
        if p in cfg.deepfaked_participants:
            rng = np.random.default_rng([cfg.seed, 2, p])
            flen = cfg.forgery_span_s
            lo, hi = 5.0, cfg.duration_s - 5.0 - flen
            a = float(lo + (hi - lo) * rng.random())
            stream = forge_segments(
                stream, [(a, a + flen)], ForgeryMode.ReplaceEnf, seed=cfg.seed * 1000 + p
            )
            forged_at[p] = (a, a + flen)
        estimates[p] = estimate_enf(stream, cfg.estimator)

    n_honest = com.K - cfg.byzantine
    observers = [Honest(0.0)] * n_honest + [OffsetVector(1.0)] * cfg.byzantine
    step = com.round_duration_s / com.d
    rounds: List[RoundResult] = []
    for r in range(cfg.rounds):
        proof_times = r * com.round_duration_s + step * np.arange(com.d)  # E*'s own clock
        bases = [estimates[v].at(proof_times) for v in range(com.K)]
        rounds.append(play_round(observers, bases, com, r, [cfg.seed, 3, r]))

    estar = EnfSeries(0.0, step, np.concatenate([rr.ground_truth_enf.values_hz for rr in rounds]))
    reports = {}
    tp = fp = tn = fn = 0
    for p in range(cfg.participants):
        est = estimates[p]
        ref = EnfSeries(est.start_time_s, est.step_s, estar.at(est.times()))
        rep = sliding_window_detect(est, ref, cfg.detector)
        reports[p] = rep
        flagged = rep.overall_verdict is Verdict.Fake
        faked = p in cfg.deepfaked_participants
        tp += int(flagged and faked)
        fp += int(flagged and not faked)
        tn += int(not flagged and not faked)
        fn += int(not flagged and faked)

    honest_committee = set(range(n_honest)) - cfg.deepfaked_participants
    summary = {
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
        "participants": cfg.participants,
        **round_rates(rounds, range(n_honest)),
        "quorum_of_fakes_warning": len(honest_committee) < 2 * com.f + 3,
        "forged_intervals_truth": {str(p): list(iv) for p, iv in forged_at.items()},
    }
    return {"reports": reports, "rounds": rounds, "summary": summary}


# --------------------------------------------------------------------------
# consensus latency benchmark


@dataclass
class BenchResult:
    k_list: List[int]
    latencies_s: List[float]
    slope: float
    d: int


def _bench_pool(K: int, d: int, seed) -> Tuple[TransactionPool, CommitteeConfig]:
    cfg = CommitteeConfig(K=K, f=0, d=d, round_duration_s=float(d))
    rng = np.random.default_rng(seed)
    pool = TransactionPool(round=0)
    vectors = cfg.nominal_hz + rng.normal(0.0, 0.01, size=(K, d))
    for v in range(K):
        pool.entries[v] = EnfTransaction(v, 0, vectors[v])
    return pool, cfg


def _score_once(pool, cfg) -> float:
    """Wall time of one scoring and selection over pool."""
    t0 = time.perf_counter()
    select_ground_truth(compute_scores(pool, cfg), pool)
    return time.perf_counter() - t0


def _time_round(pool, cfg, trials: int) -> float:
    # min over trials after one warm-up: the lower envelope is the stable
    # steady-state latency, unlike the mean/median which soak up scheduler noise
    _score_once(pool, cfg)
    return float(min(_score_once(pool, cfg) for _ in range(trials)))


def bench_consensus(K_list: Sequence[int], d: int, trials: int, seed: int) -> BenchResult:
    """Time scoring + selection on a pre-filled pool per committee size.

    Latency per K is the best of `trials` timed runs after a warm-up; slope
    is the least-squares fit of log(latency) against log(K).
    """
    if len(K_list) < 2:
        raise InvalidArgumentError("K_list needs at least 2 sizes")
    if trials < 3:
        raise InvalidArgumentError("trials must be >= 3")
    lats = []
    for K in K_list:
        pool, cfg = _bench_pool(int(K), int(d), [seed, int(K)])
        lats.append(_time_round(pool, cfg, trials))
    slope = float(np.polyfit(np.log(np.asarray(K_list, float)), np.log(lats), 1)[0])
    return BenchResult(k_list=[int(k) for k in K_list], latencies_s=lats, slope=slope, d=int(d))


def bench_d_ratio(K: int, d: int, trials: int, seed: int) -> float:
    """Latency ratio when d doubles at fixed K (expected ~2 for O(K^2 d)).

    The two pools' runs alternate, so a drift in host speed reaches both sides
    alike; each keeps its best run after the first pass, the warm-up.
    """
    pools = [_bench_pool(K, dd, [seed, dd]) for dd in (d, 2 * d)]
    runs = [[_score_once(pool, cfg) for pool, cfg in pools] for _ in range(max(trials, 3) + 1)]
    best = np.min(runs[1:], axis=0)
    return float(best[1] / best[0])


# --------------------------------------------------------------------------
# labeled detection corpora


@dataclass
class CorpusConfig:
    n_streams: int = 24
    duration_s: float = 120.0
    snr_db: float = 10.0
    sample_rate_hz: float = 1000.0
    harmonics: Tuple[Tuple[int, float], ...] = DEFAULT_HARMONICS
    grid: GridConfig = field(default_factory=GridConfig)
    estimator: EstimatorConfig = field(
        default_factory=lambda: EstimatorConfig(stft_window_s=16.0, stft_overlap_frac=0.9375)
    )
    shift_s: float = 5.0
    seed: int = 0

    def __post_init__(self):
        hi = _FORGERY_LEN_BOUNDS_S[1]
        # make_detection_corpus draws a forgery's whole-second start from [20, D - 20 - len)
        if self.duration_s < hi + 41.0:
            raise ConfigurationError(
                f"duration_s={self.duration_s} too short for forgeries up to {hi} s: "
                f"need >= {hi + 41.0}"
            )


@dataclass
class CorpusEntry:
    local: EnfSeries
    reference: EnfSeries  # grid truth resampled onto the estimate clock
    injected: Optional[Tuple[float, float]]  # ground-truth forged interval; None if genuine

    @property
    def forged(self) -> bool:
        return self.injected is not None


def make_detection_corpus(cc: CorpusConfig) -> List[CorpusEntry]:
    """Labeled streams, alternating genuine/forged, estimated and aligned."""
    entries: List[CorpusEntry] = []
    for i in range(cc.n_streams):
        grid = dataclasses.replace(cc.grid, seed=[cc.seed, i])
        truth = gen_enf_truth(grid, cc.duration_s, step_s=1.0)
        stream = embed_audio(
            truth, cc.sample_rate_hz, cc.harmonics, cc.snr_db, seed=[cc.seed, i, 1], grid=grid
        )
        injected = None
        if i % 2 == 1:
            rng = np.random.default_rng([cc.seed, i, 2])
            flo, fhi = _FORGERY_LEN_BOUNDS_S
            flen = float(rng.integers(int(flo), int(fhi) + 1))
            a = float(rng.integers(20, int(cc.duration_s - 20 - flen)))
            injected = (a, a + flen)
            stream = forge_segments(
                stream, [injected], ForgeryMode.ReplaceEnf, seed=cc.seed * 100003 + i
            )
        est = estimate_enf(stream, cc.estimator)
        ref = EnfSeries(est.start_time_s, est.step_s, truth.at(est.times()))
        entries.append(CorpusEntry(local=est, reference=ref, injected=injected))
    return entries


def stream_score(entry: CorpusEntry, det: DetectorConfig) -> float:
    """Per-stream detection score: the minimum window correlation."""
    rep = sliding_window_detect(entry.local, entry.reference, det)
    return min(w.corr for w in rep.windows)


def roc_sweep(window_list: Sequence[float], corpus_cfg: CorpusConfig):
    """ROC/AUC per detector window size over one shared labeled corpus."""
    if not window_list:
        raise InvalidArgumentError("window_list must contain at least one size")
    if max(window_list) >= corpus_cfg.duration_s:
        raise InvalidArgumentError("corpus too short for the largest window")
    entries = make_detection_corpus(corpus_cfg)
    labels = [e.forged for e in entries]
    if all(labels) or not any(labels):
        raise InvalidArgumentError("single-class corpus: ROC undefined")
    out = []
    for w in window_list:
        det = DetectorConfig(window_s=float(w), shift_s=corpus_cfg.shift_s)
        scores = [stream_score(e, det) for e in entries]
        genuine = [s for s, lab in zip(scores, labels) if not lab]
        fake = [s for s, lab in zip(scores, labels) if lab]
        points, auc = roc_curve(genuine, fake)
        out.append({"window_s": float(w), "auc": auc, "points": points})
    return out


def localization_accuracy(
    entries: Sequence[CorpusEntry], det: DetectorConfig, tol_s: Optional[float] = None
):
    """Boundary accuracy of reported forged intervals against injected truth.

    For each forged entry, the reported intervals overlapping the tolerance
    zone of the injected interval are enveloped (min start, max end) and both
    boundary errors must fall within tol_s (default: one shift).
    """
    tol = det.shift_s if tol_s is None else tol_s
    hits = 0
    total = 0
    errors = []
    for e in entries:
        if not e.forged:
            continue
        total += 1
        a, b = e.injected
        rep = sliding_window_detect(e.local, e.reference, det)
        cands = [(s, t) for s, t in rep.forged_intervals if t > a - tol and s < b + tol]
        if not cands:
            errors.append((np.nan, np.nan))
            continue
        s = min(c[0] for c in cands)
        t = max(c[1] for c in cands)
        errors.append((s - a, t - b))
        if abs(s - a) <= tol and abs(t - b) <= tol:
            hits += 1
    return hits, total, errors
