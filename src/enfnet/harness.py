"""End-to-end scenario runner, benchmarks, and evaluation corpora.

Ties the synthesis, estimation, consensus, and detection modules together:
conference-style scenarios with deepfaked participants, the consensus
latency/scaling benchmark, labeled detection corpora, ROC sweeps over
detector window sizes, and forged-interval localization scoring.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .detection import DetectorConfig, Verdict, roc_curve, sliding_window_detect
from .enf_estimation import EstimatorConfig, estimate_enf
from .errors import InvalidArgumentError, _real, _whole
from .media_synth import (
    EnfSeries,
    ForgeryMode,
    GridConfig,
    _harmonic_spec,
    _same_nominal,
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


def _check_hum(cfg) -> None:
    """The hum fields ScenarioConfig and CorpusConfig share, checked as they are built:
    a sample_rate_hz finite and > 0, an snr_db finite or +inf, a valid harmonic spec."""
    _real(cfg.sample_rate_hz, "sample_rate_hz", 0)
    if cfg.snr_db != np.inf:  # +inf is noiseless
        _real(cfg.snr_db, "snr_db, unless +inf,", -np.inf)
    _harmonic_spec(cfg.harmonics)


def _estimate_stream(cfg, truth, seed, splice, forge_seed) -> EnfSeries:
    """Embed truth's hum as cfg sets it, replace its ENF over splice unless None, estimate."""
    stream = embed_audio(truth, cfg.sample_rate_hz, cfg.harmonics, cfg.snr_db, seed=seed)
    if splice is not None:
        stream = forge_segments(stream, [splice], ForgeryMode.ReplaceEnf, seed=forge_seed)
    return estimate_enf(stream, cfg.estimator)


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
        self.participants = _whole(self.participants, "participants", 1)
        self.byzantine = _whole(self.byzantine, "byzantine", 0)
        self.rounds = _whole(self.rounds, "rounds", 1)
        self.seed = _whole(self.seed, "seed", 0)
        self.deepfaked_participants = set(self.deepfaked_participants)
        _check_hum(self)
        if self.byzantine > self.committee.f:
            raise InvalidArgumentError("byzantine count exceeds committee.f")
        if self.committee.K > self.participants:
            raise InvalidArgumentError("committee.K exceeds participant count")
        if not self.deepfaked_participants <= set(range(self.participants)):
            raise InvalidArgumentError("deepfaked_participants outside participant id range")
        # a forgery starts at least 5 s into the conference and ends 5 s before its end
        room = self.duration_s - 10.0
        if self.deepfaked_participants and _real(self.forgery_span_s, "forgery length", 0) > room:
            raise InvalidArgumentError(
                f"forgery length {self.forgery_span_s} s outside (0, {room}] for a "
                f"{self.duration_s} s conference"
            )
        _same_nominal(grid=self.grid, estimator=self.estimator, committee=self.committee)

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
    truth = gen_enf_truth(dataclasses.replace(cfg.grid, seed=[cfg.seed, 0]), cfg.duration_s, 1.0)

    forged_at: Dict[int, Tuple[float, float]] = {}
    estimates: Dict[int, EnfSeries] = {}
    for p in range(cfg.participants):
        if p in cfg.deepfaked_participants:
            rng = np.random.default_rng([cfg.seed, 2, p])
            flen = cfg.forgery_span_s
            lo, hi = 5.0, cfg.duration_s - 5.0 - flen
            a = float(lo + (hi - lo) * rng.random())
            forged_at[p] = (a, a + flen)
        estimates[p] = _estimate_stream(
            cfg, truth, [cfg.seed, 1, p], forged_at.get(p), cfg.seed * 1000 + p
        )

    n_honest = com.K - cfg.byzantine
    # Honest(0.0) proofs are their bases exactly, so an honest E* does not depend on
    # the round's draws
    observers = [Honest(0.0)] * n_honest + [OffsetVector(1.0)] * cfg.byzantine
    step = com.round_duration_s / com.d
    rounds: List[RoundResult] = []
    for r in range(cfg.rounds):
        proof_times = r * com.round_duration_s + step * np.arange(com.d)  # E*'s own clock
        bases = [estimates[v].at(proof_times) for v in range(com.K)]
        rounds.append(play_round(observers, bases, com, r, [cfg.seed, 3, r]))

    estar = EnfSeries(0.0, step, np.concatenate([rr.ground_truth_enf.values_hz for rr in rounds]))
    reports = {}
    for p, est in estimates.items():
        ref = EnfSeries(est.start_time_s, est.step_s, estar.at(est.times()))
        reports[p] = sliding_window_detect(est, ref, cfg.detector)
    flagged = {p for p, rep in reports.items() if rep.overall_verdict is Verdict.Fake}
    faked = cfg.deepfaked_participants

    honest_committee = set(range(n_honest)) - faked
    summary = {
        "tp": len(flagged & faked),
        "fp": len(flagged - faked),
        "tn": cfg.participants - len(flagged | faked),
        "fn": len(faked - flagged),
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
        pool.insert(EnfTransaction(v, 0, vectors[v]))
    return pool, cfg


# a sample repeats scoring until it has run this long, so a single stall or
# burst of host speed is averaged into the sample instead of setting it
_MIN_SAMPLE_S = 0.010


def _latency_samples(pools, trials: int) -> np.ndarray:
    """Seconds per scoring and selection: one sample per pass (row) and pool (column).

    Each of the `trials` passes visits the pools in order, so a drift in host
    speed reaches all of them alike. A visit scores the pool once to warm it,
    then takes one sample: scoring and selection repeat until _MIN_SAMPLE_S
    has passed, and the sample is the mean time per call.
    """
    out = np.empty((_whole(trials, "trials", 3), len(pools)))
    for row in out:
        for i, (pool, cfg) in enumerate(pools):
            select_ground_truth(compute_scores(pool, cfg), pool)
            calls, elapsed, t0 = 0, 0.0, time.perf_counter()
            while elapsed < _MIN_SAMPLE_S:
                select_ground_truth(compute_scores(pool, cfg), pool)
                calls += 1
                elapsed = time.perf_counter() - t0
            row[i] = elapsed / calls
    return out


def bench_consensus(K_list: Sequence[int], d: int, trials: int, seed: int) -> BenchResult:
    """Time scoring + selection on a pre-filled pool per committee size.

    Latency per K is its best sample (see :func:`_latency_samples`): the
    minimum is the stable estimate on a noisy host (Chen and Revels, "Robust
    benchmarking in noisy environments", 2016). slope is the least-squares fit
    of log(latency) against log(K), so K_list needs two distinct sizes.
    """
    if len({int(k) for k in K_list}) < 2:
        raise InvalidArgumentError(f"K_list needs at least 2 distinct sizes, got {list(K_list)}")
    pools = [_bench_pool(int(K), int(d), [seed, int(K)]) for K in K_list]
    lats = _latency_samples(pools, trials).min(axis=0).tolist()
    slope = float(np.polyfit(np.log(np.asarray(K_list, float)), np.log(lats), 1)[0])
    return BenchResult(k_list=[int(k) for k in K_list], latencies_s=lats, slope=slope, d=int(d))


def bench_d_ratio(K: int, d: int, trials: int, seed: int) -> float:
    """Latency ratio when d doubles at fixed K (expected ~2 for O(K^2 d)).

    The two pools are sampled as in :func:`bench_consensus`, and the ratio is
    the median over passes of the ratio within one pass: its two samples are
    adjacent in time, so a drift in host speed between passes cancels, and
    the median ignores a pass that a stall hit.
    """
    pools = [_bench_pool(K, dd, [seed, dd]) for dd in (d, 2 * d)]
    samples = _latency_samples(pools, trials)
    return float(np.median(samples[:, 1] / samples[:, 0]))


# --------------------------------------------------------------------------
# labeled detection corpora


@dataclass
class CorpusConfig:
    sample_rate_hz: ClassVar[float] = 1000.0
    harmonics: ClassVar[Tuple[Tuple[int, float], ...]] = DEFAULT_HARMONICS
    shift_s: ClassVar[float] = DetectorConfig.shift_s

    n_streams: int = 24
    duration_s: float = 120.0
    snr_db: float = 10.0
    grid: GridConfig = field(default_factory=GridConfig)
    estimator: EstimatorConfig = field(
        default_factory=lambda: EstimatorConfig(stft_window_s=16.0, stft_overlap_frac=0.9375)
    )
    seed: int = 0

    def __post_init__(self):
        _same_nominal(grid=self.grid, estimator=self.estimator)
        # 0 and 1 streams pass here: roc_sweep names them single-class
        self.n_streams = _whole(self.n_streams, "n_streams", 0)
        self.seed = _whole(self.seed, "seed", 0)
        _check_hum(self)
        hi = _FORGERY_LEN_BOUNDS_S[1]
        # make_detection_corpus draws a forgery's whole-second start from [20, D - 20 - len)
        _real(self.duration_s, f"duration_s, for forgeries up to {hi} s,", hi + 41.0, closed=True)


@dataclass
class CorpusEntry:
    local: EnfSeries
    reference: EnfSeries  # grid truth resampled onto the estimate clock
    injected: Optional[Tuple[float, float]]  # ground-truth forged interval; None if genuine

    @property
    def forged(self) -> bool:
        return self.injected is not None


def _corpus_entry(cc: CorpusConfig, i: int, forged: bool) -> CorpusEntry:
    """Stream i of cc, genuine or with one ReplaceEnf splice, seeded by cc.seed and i alone."""
    truth = gen_enf_truth(dataclasses.replace(cc.grid, seed=[cc.seed, i]), cc.duration_s, 1.0)
    injected = None
    if forged:
        rng = np.random.default_rng([cc.seed, i, 2])
        flo, fhi = _FORGERY_LEN_BOUNDS_S
        flen = float(rng.integers(int(flo), int(fhi) + 1))
        a = float(rng.integers(20, int(cc.duration_s - 20 - flen)))
        injected = (a, a + flen)
    est = _estimate_stream(cc, truth, [cc.seed, i, 1], injected, cc.seed * 100003 + i)
    ref = EnfSeries(est.start_time_s, est.step_s, truth.at(est.times()))
    return CorpusEntry(local=est, reference=ref, injected=injected)


def make_detection_corpus(cc: CorpusConfig) -> List[CorpusEntry]:
    """Labeled streams alternating genuine/forged; entry i depends only on cc.seed and i."""
    return [_corpus_entry(cc, i, forged=i % 2 == 1) for i in range(cc.n_streams)]


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
    # labels alternate genuine/forged, so two streams are the first with both classes
    if corpus_cfg.n_streams < 2:
        raise InvalidArgumentError(
            f"n_streams={corpus_cfg.n_streams} gives a single-class corpus: ROC undefined"
        )
    # every window is checked before the corpus is built
    dets = [DetectorConfig(window_s=float(w), shift_s=corpus_cfg.shift_s) for w in window_list]
    entries = make_detection_corpus(corpus_cfg)
    labels = [e.forged for e in entries]
    out = []
    for det in dets:
        scores = [stream_score(e, det) for e in entries]
        genuine = [s for s, lab in zip(scores, labels) if not lab]
        fake = [s for s, lab in zip(scores, labels) if lab]
        points, auc = roc_curve(genuine, fake)
        out.append({"window_s": det.window_s, "auc": auc, "points": points})
    return out


def localization_accuracy(entries: Sequence[CorpusEntry], det: DetectorConfig):
    """Boundary accuracy of reported forged intervals against injected truth.

    For each forged entry, the reported intervals overlapping the tolerance
    zone of the injected interval are enveloped (min start, max end) and both
    boundary errors must fall within the tolerance, one detector shift.
    """
    tol = det.shift_s
    errors = []
    for e in entries:
        if not e.forged:
            continue
        a, b = e.injected
        rep = sliding_window_detect(e.local, e.reference, det)
        cands = [(s, t) for s, t in rep.forged_intervals if t > a - tol and s < b + tol]
        if not cands:
            errors.append((np.nan, np.nan))
            continue
        errors.append((min(c[0] for c in cands) - a, max(c[1] for c in cands) - b))
    hits = sum(abs(ds) <= tol and abs(dt) <= tol for ds, dt in errors)  # NaN never hits
    return hits, len(errors), errors
