"""Acceptance gate: one test per shipping criterion, full-scale sizes.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines; add `-s` to see the measured values. The detection corpora use a wide
clamp (max_dev 0.5 Hz) so the synthetic walk never rails at the boundary: a
railed walk is numerically constant, carries no fingerprint variance, and is
an artifact of the clamp model rather than of grid physics.
"""

import filecmp
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import enfnet
from enfnet import (
    CommitteeConfig,
    CorpusConfig,
    DetectorConfig,
    EnfSeries,
    EnfTransaction,
    EstimatorConfig,
    GridConfig,
    Honest,
    OffsetVector,
    RejectReason,
    TransactionPool,
    bench_consensus,
    bench_d_ratio,
    compute_scores,
    correlation,
    embed_audio,
    embed_video,
    estimate_enf,
    gen_enf_truth,
    localization_accuracy,
    roc_sweep,
    simulate_rounds,
    validate_transaction,
    video_row_signal,
)
from enfnet.harness import DEFAULT_HARMONICS, _corpus_entry

from cli_cases import CASES, write_scenario

WIDE_GRID = GridConfig(drift_std_hz=0.005, max_dev_hz=0.5)


def test_criterion_1_consensus_agreement_and_safety():
    """1000 seeded rounds, K=10 f=3, OffsetVector(+1 Hz) byzantines."""
    cfg = CommitteeConfig(K=10, f=3, d=720, round_duration_s=360.0)
    observers = [Honest() for _ in range(7)] + [OffsetVector(1.0) for _ in range(3)]
    t0 = time.perf_counter()
    _, summary = simulate_rounds(GridConfig(seed=0), observers, cfg, rounds=1000, seed=2024)
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 1: agreement={summary['agreement_rate']:.3f} "
        f"honest_win={summary['honest_win_rate']:.3f} elapsed={elapsed:.1f}s"
    )
    assert summary["agreement_rate"] == 1.0
    assert summary["honest_win_rate"] >= 0.99
    assert elapsed <= 60.0


def test_criterion_2_quadratic_scaling():
    res = bench_consensus([10, 20, 50, 100, 200], d=720, trials=5, seed=0)
    ratio = bench_d_ratio(K=100, d=720, trials=5, seed=0)
    print(f"PASS criterion 2: log-log slope={res.slope:.3f} d-doubling ratio={ratio:.3f}")
    assert 1.7 <= res.slope <= 2.3
    assert 1.5 <= ratio <= 2.5


def test_criterion_3_detection_auc():
    """100 five-minute streams, half forged, SNR 10 dB, window 16 s / shift 5 s."""
    cc = CorpusConfig(
        n_streams=100, duration_s=300.0, snr_db=10.0, seed=2718, grid=WIDE_GRID
    )
    out = roc_sweep([16.0], cc)
    auc = out[0]["auc"]
    print(f"PASS criterion 3: AUC={auc:.4f} (n=100, SNR 10 dB)")
    assert auc >= 0.95


def test_criterion_4_localization():
    """200 five-minute streams, one splice each, SNR 20 dB, estimated at 4 s / 0.75."""
    cc = CorpusConfig(
        n_streams=200, duration_s=300.0, snr_db=20.0, seed=777, grid=WIDE_GRID,
        estimator=EstimatorConfig(stft_window_s=4.0, stft_overlap_frac=0.75),
    )
    entries = [_corpus_entry(cc, i, forged=True) for i in range(cc.n_streams)]
    hits, total, _ = localization_accuracy(entries, DetectorConfig(window_s=16.0, shift_s=5.0))
    print(f"PASS criterion 4: boundaries within +-5 s in {hits}/{total} segments")
    assert total == 200
    assert hits / total >= 0.90


def test_criterion_5_estimator_accuracy():
    const = EnfSeries(0.0, 1.0, np.full(300, 60.0))
    clean = embed_audio(const, 1000.0, DEFAULT_HARMONICS, np.inf, seed=31)
    est = estimate_enf(clean)
    noiseless_err = float(np.max(np.abs(est.values_hz - 60.0)))

    grid = GridConfig(seed=99)
    truth = gen_enf_truth(grid, 300.0, 1.0)
    noisy = embed_audio(truth, 1000.0, DEFAULT_HARMONICS, 20.0, seed=99, grid=grid)
    est = estimate_enf(noisy)
    ref = np.interp(est.times(), truth.times(), truth.values_hz)
    rmse = float(np.sqrt(np.mean((est.values_hz - ref) ** 2)))

    video = embed_video(truth, 25.0, 120, 20.0, seed=99, grid=grid)
    sig, _ = video_row_signal(video)

    print(
        f"PASS criterion 5: noiseless max err={noiseless_err * 1e3:.3f} mHz, "
        f"SNR20 RMSE={rmse * 1e3:.3f} mHz, CMOS samples={sig.shape[0]}"
    )
    assert noiseless_err <= 1e-3
    assert rmse <= 5e-3
    assert sig.shape[0] == video.frames.shape[0] * video.frame_height


def test_criterion_6_cross_modal_consistency():
    grid = GridConfig(seed=55)
    truth = gen_enf_truth(grid, 300.0, 1.0)
    audio = embed_audio(truth, 1000.0, DEFAULT_HARMONICS, 20.0, seed=55, grid=grid)
    video = embed_video(truth, 25.0, 120, 20.0, seed=56, grid=grid)
    ea = estimate_enf(audio)
    ev = estimate_enf(video)
    n = min(len(ea), len(ev))
    c = correlation(ea.values_hz[:n], ev.values_hz[:n])
    print(f"PASS criterion 6: audio/video estimate correlation={c:.4f}")
    assert c > 0.9


def test_criterion_7_unit_identities():
    x = np.array([60.01, 59.99, 60.02, 60.0, 59.97])
    assert abs(correlation(x, x) - 1.0) <= 1e-9
    assert abs(correlation(x, -x) + 1.0) <= 1e-9
    assert abs(correlation(x, 3.0 * x + 1.0) - 1.0) <= 1e-9
    assert abs(correlation(x, -0.5 * x + 2.0) + 1.0) <= 1e-9

    # permutation invariance of the score table
    cfg = CommitteeConfig(K=5, f=1, d=4, round_duration_s=60.0)
    rng = np.random.default_rng(7)
    vecs = 60.0 + rng.normal(0.0, 0.1, size=(5, 4))
    def table(order):
        pool = TransactionPool(round=0)
        for vid, src in enumerate(order):
            pool.insert(EnfTransaction(vid, 0, vecs[src]))
        return compute_scores(pool, cfg)
    base = table(range(5))
    perm = [3, 1, 4, 0, 2]
    permuted = table(perm)
    for vid, src in enumerate(perm):
        assert abs(permuted[vid] - base[src]) <= 1e-9

    # rejection taxonomy, in declared order
    pool = TransactionPool(round=0)
    pool.insert(EnfTransaction(0, 0, np.full(4, 60.0)))
    mk = lambda vid, rnd, vec: EnfTransaction(vid, rnd, vec)
    bad = np.full(4, 99.0)
    assert validate_transaction(mk(9, 5, bad), pool, cfg).reason is RejectReason.NotMember
    assert validate_transaction(mk(0, 5, bad), pool, cfg).reason is RejectReason.StaleRound
    assert validate_transaction(mk(0, 0, bad), pool, cfg).reason is RejectReason.Duplicate
    assert validate_transaction(mk(1, 0, bad), pool, cfg).reason is RejectReason.Malformed
    print("PASS criterion 7: correlation identities, score permutation, rejection order")


_ENFNET_FILE = Path(enfnet.__file__).resolve()
_SRC_ROOT = str(_ENFNET_FILE.parent.parent)


def _child_env():
    inherited = os.environ.get("PYTHONPATH")
    path = _SRC_ROOT + (os.pathsep + inherited if inherited else "")
    return {**os.environ, "PYTHONPATH": path}


def _run_cli(args, cwd):
    # A relative PYTHONPATH (e.g. `src`) does not survive cwd=tmp_path: pass the absolute root.
    return subprocess.run(
        [sys.executable, "-m", "enfnet.cli"] + args,
        cwd=cwd, env=_child_env(), capture_output=True, text=True,
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Every file-producing subcommand, run twice with the same seed."""
    scen = write_scenario(tmp_path)
    probe = subprocess.run(
        [sys.executable, "-c", "import enfnet; print(enfnet.__file__)"],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
    )
    assert probe.returncode == 0, f"child cannot import enfnet:\n{probe.stderr}"
    child_file = Path(probe.stdout.strip()).resolve()
    assert child_file == _ENFNET_FILE, (
        f"child imported {child_file}, not the tree under test {_ENFNET_FILE}"
    )
    paths = {"a": {}, "b": {}}
    for name, argv in CASES:
        for rep in ("a", "b"):
            d = tmp_path / f"{name}-{rep}"
            d.mkdir()
            argv_f = [a.format(d=d, scen=scen, **paths[rep]) for a in argv]
            proc = _run_cli(argv_f, tmp_path)
            assert proc.returncode == 0, f"{name} ({rep}) failed:\n{proc.stderr}"
            paths[rep][name] = str(d)
        da, db = paths["a"][name], paths["b"][name]
        files = sorted(p.name for p in (tmp_path / f"{name}-a").iterdir())
        assert files, f"{name} produced no files"
        match, mismatch, errors = filecmp.cmpfiles(da, db, files, shallow=False)
        assert not mismatch and not errors, f"{name}: non-deterministic files {mismatch or errors}"
    print(f"PASS criterion 8: byte-identical outputs for {len(CASES)} invocations")
