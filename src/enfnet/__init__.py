"""ENF-fingerprint deepfake detection with Proof-of-ENF committee consensus."""

from .detection import (
    DetectionReport,
    DetectorConfig,
    Verdict,
    WindowVerdict,
    correlation,
    merge_fake_windows,
    roc_curve,
    sliding_window_detect,
)
from .enf_estimation import (
    EstimatorConfig,
    PowerSpectrumMatrix,
    combine_and_track,
    estimate_enf,
    harmonic_weights,
    preprocess_audio,
    spectrogram,
    video_row_signal,
)
from .errors import (
    ConfigurationError,
    EnfNetError,
    InvalidArgumentError,
    QuorumError,
)
from .harness import (
    BenchResult,
    CorpusConfig,
    CorpusEntry,
    ScenarioConfig,
    bench_consensus,
    bench_d_ratio,
    localization_accuracy,
    make_detection_corpus,
    roc_sweep,
    run_scenario,
    stream_score,
)
from .media_synth import (
    AudioStream,
    EnfSeries,
    ForgeryMode,
    GridConfig,
    ShutterType,
    VideoLumaStream,
    embed_audio,
    embed_video,
    forge_segments,
    gen_enf_truth,
)
from .poenf_consensus import (
    ColludingClone,
    CommitteeConfig,
    EnfTransaction,
    Honest,
    OffsetVector,
    RandomVector,
    RejectReason,
    RoundResult,
    Silent,
    TransactionPool,
    ValidationResult,
    compute_scores,
    consensus_round,
    make_transaction,
    parse_behavior,
    play_round,
    run_round,
    select_ground_truth,
    simulate_rounds,
    validate_transaction,
)

__version__ = "0.1.0"
