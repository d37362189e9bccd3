"""Proof-of-ENF committee consensus.

Validators 0..K-1 broadcast (id, round, ENF vector) proofs each round;
every validator scores the pooled proofs, one score per id, with a
Krum-style multi-neighbor squared-distance rule and adopts the
minimum-score proof as the round's ground truth E*. Byzantine behaviors are pluggable and the
whole round driver is deterministic in its seed.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError, QuorumError, _real, _seed, _whole
from .media_synth import EnfSeries, GridConfig, _same_nominal, gen_enf_truth


@dataclass
class CommitteeConfig:
    K: int
    f: int
    d: int
    round_duration_s: float = 360.0
    nominal_hz: float = 60.0

    def __post_init__(self):
        self.f = _whole(self.f, "f", 0)
        self.d = _whole(self.d, "d", 2)
        self.K = _whole(self.K, "K, at least 2f+3,", 2 * self.f + 3)
        _real(self.round_duration_s, "round_duration_s", 0)
        _real(self.nominal_hz, "nominal_hz", 0)

    @property
    def vector_lo(self) -> float:
        return self.nominal_hz - 1.0

    @property
    def vector_hi(self) -> float:
        return self.nominal_hz + 1.0


@dataclass
class EnfTransaction:
    validator_id: int
    round: int
    enf_vector: np.ndarray

    def __post_init__(self):
        self.enf_vector = np.asarray(self.enf_vector, dtype=float)


@dataclass
class TransactionPool:
    round: int
    entries: Dict[int, EnfTransaction] = field(default_factory=dict)

    def insert(self, tx: EnfTransaction):
        if tx.round != self.round:
            raise InvalidArgumentError("transaction round does not match pool round")
        if tx.validator_id in self.entries:
            raise InvalidArgumentError("duplicate entry for validator")
        self.entries[tx.validator_id] = tx

    def __len__(self):
        return len(self.entries)


@dataclass
class RoundResult:
    round: int
    ground_truth_id: int
    ground_truth_enf: EnfSeries
    scores: Dict[int, float]
    honest_agreement: bool


class RejectReason(Enum):
    NotMember = "NotMember"
    StaleRound = "StaleRound"
    Duplicate = "Duplicate"
    Malformed = "Malformed"


@dataclass
class ValidationResult:
    reason: Optional[RejectReason] = None

    @property
    def accepted(self) -> bool:
        return self.reason is None


def validate_transaction(
    tx: EnfTransaction, pool: TransactionPool, cfg: CommitteeConfig
) -> ValidationResult:
    """Admission control for one broadcast transaction into pool.

    Checks, in order: the sender is a committee member (an id in 0..K-1),
    the transaction is for the pool's round, the sender has no entry in the
    pool yet, and the vector is well-formed (length d, finite, within +-1 Hz
    of nominal).
    """
    if tx.validator_id not in range(cfg.K):
        return ValidationResult(RejectReason.NotMember)
    if tx.round != pool.round:
        return ValidationResult(RejectReason.StaleRound)
    if tx.validator_id in pool.entries:
        return ValidationResult(RejectReason.Duplicate)
    v = tx.enf_vector
    # a NaN makes min() NaN, which fails the comparison; an infinity fails a bound
    if v.ndim != 1 or len(v) != cfg.d or not (cfg.vector_lo <= v.min() and v.max() <= cfg.vector_hi):
        return ValidationResult(RejectReason.Malformed)
    return ValidationResult()


def compute_scores(pool: TransactionPool, cfg: CommitteeConfig) -> Dict[int, float]:
    """Krum-style score: sum of squared distances to the (n-f-2) nearest proofs.

    Returns validator id -> score, ids ascending. Lower is more central;
    deterministic given the pool contents, independent of insertion order.

    Squared distances come from the Gram form ||a||^2 + ||b||^2 - 2 a.b of
    the proofs centred on nominal_hz. Centring keeps the terms near the
    size of the distances (admitted proofs lie within +-1 Hz of nominal),
    so the cancellation error stays a few ulps of ||a||^2 + ||b||^2. The
    norms are the Gram matrix's own diagonal, so identical proofs are
    exactly 0 apart and tie. The Gram matrix is summed by einsum without
    optimize, not by `@`: BLAS would block the d-term sums by thread count,
    and the scores' bytes must not depend on it.
    """
    n = len(pool)
    required = 2 * cfg.f + 3
    if n < required:
        raise QuorumError(n, required)
    ids = sorted(pool.entries)
    v = np.array([pool.entries[i].enf_vector for i in ids]) - cfg.nominal_hz
    gram = np.einsum("ij,kj->ik", v, v)
    norms = gram.diagonal()
    dist = norms[:, None] + norms[None, :] - 2.0 * gram
    np.maximum(dist, 0.0, out=dist)  # cancellation can leave a distance just below 0
    np.fill_diagonal(dist, np.inf)
    m = n - cfg.f - 2
    sums = np.sort(dist, axis=1)[:, :m].sum(axis=1)
    return {i: float(s) for i, s in zip(ids, sums)}


def select_ground_truth(scores: Dict[int, float], pool: TransactionPool) -> Tuple[int, np.ndarray]:
    """Minimum-score proof wins; ties break to the lowest validator id."""
    if not scores:
        raise InvalidArgumentError("empty score table")
    best = min(scores.values())
    winner = min(i for i, s in scores.items() if s == best)
    return winner, pool.entries[winner].enf_vector


# --------------------------------------------------------------------------
# byzantine behaviors


@dataclass
class Honest:
    noise_std: float = 0.005

    def __post_init__(self):
        _real(self.noise_std, "noise_std", 0, closed=True)


@dataclass
class RandomVector:
    pass


@dataclass
class OffsetVector:
    delta_hz: float = 1.0

    def __post_init__(self):
        _real(self.delta_hz, "delta_hz", -np.inf)


@dataclass
class ColludingClone:
    target_hz: Optional[float] = None  # None -> nominal_hz + 0.9

    def __post_init__(self):
        if self.target_hz is not None:
            _real(self.target_hz, "target_hz", -np.inf)


@dataclass
class Silent:
    pass


def make_transaction(behavior, base, validator_id, round_no, normal, uniform, cfg):
    """Produce (or withhold) one transaction per the validator's behavior.

    normal and uniform are the validator's own d-rows of standard-normal and
    [0, 1) draws; a behavior reads the one it needs.
    """
    if isinstance(behavior, Silent):
        return None
    # the arithmetic runs in place on a fresh product: a + b is b + a, bit for bit
    if isinstance(behavior, Honest):
        vec = behavior.noise_std * normal
        vec += base
    elif isinstance(behavior, OffsetVector):
        vec = 0.005 * normal
        vec += base
        vec += behavior.delta_hz
    elif isinstance(behavior, RandomVector):  # Generator.uniform's rule
        vec = cfg.vector_lo + (cfg.vector_hi - cfg.vector_lo) * uniform
    elif isinstance(behavior, ColludingClone):
        target = behavior.target_hz
        vec = np.full(cfg.d, cfg.nominal_hz + 0.9 if target is None else float(target))
    else:
        raise InvalidArgumentError(f"unknown behavior: {behavior!r}")
    return EnfTransaction(validator_id, round_no, np.clip(vec, cfg.vector_lo, cfg.vector_hi, out=vec))


# CLI behavior spec name -> class; a class with a field takes one argument, which it checks
_BEHAVIORS = {"honest": Honest, "offset": OffsetVector, "random": RandomVector,
              "clone": ColludingClone, "silent": Silent}


def parse_behavior(spec: str):
    """Parse a CLI behavior spec like 'offset:1.0', 'random', 'clone:60.9', 'silent'."""
    name, _, arg = spec.partition(":")
    cls = _BEHAVIORS.get(name.strip().lower())
    if cls is None:
        raise InvalidArgumentError(f"unknown behavior spec: {spec!r}")
    if not arg:
        return cls()
    if not fields(cls):
        raise InvalidArgumentError(f"behavior {name!r} takes no argument, got {spec!r}")
    return cls(float(arg))


def consensus_round(
    txs: Iterable[EnfTransaction],
    cfg: CommitteeConfig,
    round_no: int,
    honest_ids: Iterable[int],
    views: Optional[Mapping[int, TransactionPool]] = None,
) -> RoundResult:
    """Admit, score and select one round's proofs; check honest agreement.

    The submitted transactions are validated into the shared pool in
    validator-id order (submission order within one id), against the
    committee 0..K-1. The shared pool is scored once and its minimum-score
    proof is E*. ``views`` maps an honest validator to the pool it received;
    every honest validator it leaves out received the shared pool. Each
    distinct view (by identity) is scored once, the shared pool's scores are
    reused, and honest_agreement records whether every honest validator's
    view selects the same (id, E*) as the shared pool.
    """
    pool = TransactionPool(round=round_no)
    for tx in sorted(txs, key=lambda t: t.validator_id):
        if validate_transaction(tx, pool, cfg).accepted:
            pool.insert(tx)

    scores = compute_scores(pool, cfg)
    winner, vec = select_ground_truth(scores, pool)

    def agrees(view: TransactionPool) -> bool:
        if view is pool:
            return True
        w, e = select_ground_truth(compute_scores(view, cfg), view)
        return w == winner and np.array_equal(e, vec)

    views = views or {}
    distinct = {id(view): view for view in (views.get(v, pool) for v in honest_ids)}
    agreement = bool(distinct) and all(agrees(view) for view in distinct.values())
    estar = EnfSeries(round_no * cfg.round_duration_s, cfg.round_duration_s / cfg.d, vec)
    return RoundResult(round_no, winner, estar, scores, agreement)


def play_round(
    observers: Sequence,
    bases: Sequence[np.ndarray],
    cfg: CommitteeConfig,
    round_no: int,
    seed: int | Sequence[int],
) -> RoundResult:
    """One round in which validator v's proof is built from its own view bases[v].

    observers[v] is validator v's behavior; bases[v] is the d-vector it
    measured for the round, read on the round's own clock (the times E*
    reports). The round makes one generator, default_rng(seed), and draws a
    (K, d) standard-normal block and then a (K, d) uniform block from it, in
    full whatever the behaviors; row v of each is validator v's noise
    (:func:`make_transaction`), so a proof depends only on the seed, its
    validator's index, behavior and base. The honest validators are those
    whose behavior is :class:`Honest`, and the round is decided by
    :func:`consensus_round` under full delivery. K observers, K bases each
    1-D of length d, and a seed as numpy takes it (a whole number >= 0 or a
    non-empty list of them) are required; anything else raises
    InvalidArgumentError before any draw.
    """
    if len(observers) != cfg.K:
        raise InvalidArgumentError(f"need exactly K={cfg.K} observers, got {len(observers)}")
    if len(bases) != cfg.K:
        raise InvalidArgumentError(f"need exactly K={cfg.K} bases, got {len(bases)}")
    for v, base in enumerate(bases):
        if np.shape(base) != (cfg.d,):
            raise InvalidArgumentError(f"bases[{v}] must be 1-D of length d={cfg.d}, "
                                       f"got shape {np.shape(base)}")
    seed = _seed(seed)
    honest_ids = [v for v, b in enumerate(observers) if isinstance(b, Honest)]
    n_byz = cfg.K - len(honest_ids)
    if n_byz > cfg.f:
        raise InvalidArgumentError(f"{n_byz} byzantine observers exceed f={cfg.f}")
    # both blocks in one buffer: as two arrays, glibc handed their pages back to the
    # OS at the end of each round and the next round faulted them in again (417
    # minor page faults a round at K=100, d=720 on x86-64 Linux; one buffer, none)
    normal, uniform = np.empty((2, cfg.K, cfg.d))
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=normal)
    rng.random(out=uniform)
    txs = [make_transaction(b, bases[v], v, round_no, normal[v], uniform[v], cfg)
           for v, b in enumerate(observers)]
    return consensus_round([t for t in txs if t is not None], cfg, round_no, honest_ids)


def run_round(
    grid: GridConfig,
    observers: Sequence,
    cfg: CommitteeConfig,
    seed: int,
    round_no: int = 0,
) -> RoundResult:
    """One full consensus round over freshly generated grid truth.

    The truth is :func:`gen_enf_truth` of grid reseeded with [seed, round_no],
    d steps over the round, and every validator's view of it is that truth:
    :func:`play_round` with seed [seed, round_no, 1]. numpy pads a short seed
    with zeros, so [seed, round_no, 0] would draw the truth's own normals; the
    trailing 1 keeps the proofs' noise independent of the truth. Under full
    delivery every honest validator receives the shared pool, so the pool is
    scored exactly once and honest_agreement compares each honest selection
    with E*.
    """
    _same_nominal(grid=grid, committee=cfg)
    round_seed = [_whole(seed, "seed", 0), _whole(round_no, "round_no", 0)]
    step = cfg.round_duration_s / cfg.d
    truth = gen_enf_truth(replace(grid, seed=round_seed), cfg.round_duration_s, step)
    return play_round(observers, [truth.values_hz] * cfg.K, cfg, round_no, [*round_seed, 1])


def round_rates(results: Sequence[RoundResult], honest_ids: Container[int]) -> dict:
    """The share of rounds whose honest validators agreed, and whose E* an honest one sent."""
    n = len(results)
    return {
        "agreement_rate": sum(rr.honest_agreement for rr in results) / n,
        "honest_win_rate": sum(rr.ground_truth_id in honest_ids for rr in results) / n,
    }


def simulate_rounds(grid, observers, cfg, rounds: int, seed: int):
    """Run consecutive rounds; returns (results, summary dict)."""
    rounds = _whole(rounds, "rounds", 1)
    honest_ids = {i for i, b in enumerate(observers) if isinstance(b, Honest)}
    results = [run_round(grid, observers, cfg, seed=seed, round_no=r) for r in range(rounds)]
    return results, {**round_rates(results, honest_ids), "rounds": rounds}
