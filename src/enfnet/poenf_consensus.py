"""Proof-of-ENF committee consensus.

Validators 0..K-1 broadcast (id, round, ENF vector) proofs each round;
every validator scores the pooled proofs, one score per id, with a
Krum-style multi-neighbor squared-distance rule and adopts the
minimum-score proof as the round's ground truth E*. Byzantine behaviors are pluggable and the
whole round driver is deterministic in its seed.
"""

from __future__ import annotations

import functools
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


def make_transaction(behavior, truth_vals, validator_id, round_no, rng, cfg):
    """Produce (or withhold) one transaction per the validator's behavior."""
    if isinstance(behavior, Silent):
        return None
    # the arithmetic runs in place on the drawn array: a + b is b + a, bit for bit
    if isinstance(behavior, Honest):
        vec = rng.normal(0.0, behavior.noise_std, size=cfg.d)
        vec += truth_vals
    elif isinstance(behavior, OffsetVector):
        vec = rng.normal(0.0, 0.005, size=cfg.d)
        vec += truth_vals
        vec += behavior.delta_hz
    elif isinstance(behavior, RandomVector):
        vec = rng.uniform(cfg.vector_lo, cfg.vector_hi, size=cfg.d)
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx); numpy keeps them
# fixed, since every seed must keep its stream
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _known_state():
    """An ISeedSequence that hands over state words computed beforehand (made on first
    use: numpy.random loads only when a round is played)."""
    from numpy.random.bit_generator import ISeedSequence

    class KnownState(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its four 64-bit words

    return KnownState


def _generators(seed: Sequence[int], K: int) -> list:
    """default_rng([*seed, v]) for v in 0..K-1, byte for byte, without K SeedSequences.

    Entropy word i of validator v is column i: the 32-bit words, lowest first, that
    SeedSequence makes of each entry of [*seed, v]. SeedSequence's pool mixing and
    state generation then run in numpy's order on whole columns, and each validator's
    PCG64 seeds itself from its four 64-bit words, as it would from a SeedSequence.
    """
    u32 = np.uint32
    entropy = []
    for s in seed:
        entropy.append(np.full(K, s & 0xFFFFFFFF, dtype=u32))
        while s := s >> 32:
            entropy.append(np.full(K, s & 0xFFFFFFFF, dtype=u32))
    entropy.append(np.arange(K, dtype=u32))  # K < 2**32: every v is one word
    const = _INIT_A

    def hashmix(x):
        nonlocal const
        x = x ^ u32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        x *= u32(const)
        return x ^ (x >> u32(16))

    def mix(x, y):
        r = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return r ^ (r >> u32(16))

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(K, dtype=u32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for x in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(x))
    state = np.empty((K, 8), dtype="<u4")
    const = _INIT_B
    for i in range(8):
        x = pool[i % 4] ^ u32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        x *= u32(const)
        state[:, i] = x ^ (x >> u32(16))
    known = _known_state()  # 64-bit words pair the 32-bit ones little-endian, as numpy's do
    return [np.random.Generator(np.random.PCG64(known(words)))
            for words in state.view("<u8").astype(np.uint64)]


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
    reports). v's transaction draws from default_rng([*seed, v]), an int seed s
    standing for [s]; the round seeds all K generators at once from the 32-bit
    words numpy's SeedSequence makes of those lists (:func:`_generators`), byte
    for byte. The honest validators are those whose behavior is :class:`Honest`,
    and the round is decided by :func:`consensus_round` under full delivery. K
    observers, K bases each 1-D of length d, and a seed of whole numbers >= 0
    are required; anything else raises InvalidArgumentError before any draw.
    """
    if len(observers) != cfg.K:
        raise InvalidArgumentError(f"need exactly K={cfg.K} observers, got {len(observers)}")
    if len(bases) != cfg.K:
        raise InvalidArgumentError(f"need exactly K={cfg.K} bases, got {len(bases)}")
    for v, base in enumerate(bases):
        if np.shape(base) != (cfg.d,):
            raise InvalidArgumentError(f"bases[{v}] must be 1-D of length d={cfg.d}, "
                                       f"got shape {np.shape(base)}")
    seed = _seed(seed if isinstance(seed, (list, tuple)) else [seed])
    honest_ids = [v for v, b in enumerate(observers) if isinstance(b, Honest)]
    n_byz = cfg.K - len(honest_ids)
    if n_byz > cfg.f:
        raise InvalidArgumentError(f"{n_byz} byzantine observers exceed f={cfg.f}")
    txs = [
        make_transaction(b, bases[v], v, round_no, rng, cfg)
        for v, (b, rng) in enumerate(zip(observers, _generators(seed, cfg.K)))
    ]
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
    :func:`play_round` with seed [seed, round_no]. Under full delivery every
    honest validator receives the shared pool, so the pool is scored exactly
    once and honest_agreement compares each honest selection with E*.
    """
    _same_nominal(grid=grid, committee=cfg)
    round_seed = [_whole(seed, "seed", 0), _whole(round_no, "round_no", 0)]
    step = cfg.round_duration_s / cfg.d
    truth = gen_enf_truth(replace(grid, seed=round_seed), cfg.round_duration_s, step)
    return play_round(observers, [truth.values_hz] * cfg.K, cfg, round_no, round_seed)


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
