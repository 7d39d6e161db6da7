"""Correlation-weighted decision-level fusion for protective-behavior
recognition from motion-capture and sEMG features."""

from .data import (
    SequenceData,
    SyntheticConfig,
    generate_synthetic,
    make_windows,
    parse_emopain_file,
    serialize_sequence,
    split_train_valid,
)
from .errors import (
    ConfigError,
    DataError,
    InternalError,
    NumericError,
    PainFusionError,
)
from .evaluate import (
    ConfusionMatrix,
    ExperimentConfig,
    ExperimentResult,
    LoocvResult,
    MetricSet,
    confusion,
    loocv,
    metrics,
    run_experiment,
    run_matrix,
)
from .fusion import fuse_batch
from .modality import (
    JointSegmentMap,
    ModalityScheme,
    bifurcated_scheme,
    quadrifurcated_scheme,
    scheme_by_name,
    singular_scheme,
)
from .models import ClassifierSpec, TrainedClassifier, fit, grad_check
from .stats import (
    CorrelationResult,
    FusionWeights,
    NormalityReport,
    average_weights,
    kendall_tau_b,
    modality_weights,
    normal_quantile,
    normality_report,
    pearson_r,
    rank_with_ties,
    spearman_rho,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec",
    "ConfigError",
    "ConfusionMatrix",
    "CorrelationResult",
    "DataError",
    "ExperimentConfig",
    "ExperimentResult",
    "FusionWeights",
    "InternalError",
    "JointSegmentMap",
    "LoocvResult",
    "MetricSet",
    "ModalityScheme",
    "NormalityReport",
    "NumericError",
    "PainFusionError",
    "SequenceData",
    "SyntheticConfig",
    "TrainedClassifier",
    "average_weights",
    "bifurcated_scheme",
    "confusion",
    "fit",
    "fuse_batch",
    "generate_synthetic",
    "grad_check",
    "kendall_tau_b",
    "loocv",
    "make_windows",
    "metrics",
    "modality_weights",
    "normal_quantile",
    "normality_report",
    "parse_emopain_file",
    "pearson_r",
    "quadrifurcated_scheme",
    "rank_with_ties",
    "run_experiment",
    "run_matrix",
    "scheme_by_name",
    "serialize_sequence",
    "singular_scheme",
    "spearman_rho",
    "split_train_valid",
]
