"""Hyperdimensional computing models for seizure detection.

Binary hypervector algebra, EEG feature extraction, HD encoding,
personalized and merged (generalized) class models, hybrid composition,
and episode/duration evaluation on synthetic cohorts.
"""

__version__ = "0.1.0"

# `hypervector.similarity` is not re-exported: `hdseizure.similarity` is
# the submodule of that name.

from .dataio import (
    CohortSpec,
    generate_synthetic_cohort,
    load_model,
    read_cohort,
    read_feature_cohort,
    read_features,
    read_record,
    read_report,
    save_model,
    synthetic_model_cohort,
    write_cohort,
    write_features,
    write_record,
    write_report,
)
from .encoding import Codebooks, build_codebooks, encode_windows, fit_ranges
from .errors import (
    CorruptModelError,
    DegenerateCohortError,
    DegenerateInputError,
    IncompatibleModelsError,
    InsufficientDataError,
    InvalidDimensionError,
    MissingClassError,
    ParseError,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    bayes_postprocess,
    cv_generalized,
    cv_personalized,
    duration_metrics,
    episode_metrics,
    moving_average_postprocess,
    summarize,
    train_personalized,
    transfer_eval,
)
from .features import (
    FeatureConfig,
    FeatureMatrix,
    SignalRecord,
    bandpass_filter,
    extract_features,
)
from .generalization import (
    EvolutionCurve,
    MergeConfig,
    evolution_curve,
    generalize,
    plateau_onset,
    weight_correct,
    weight_wrong,
)
from .hybrid import SelectionSweep, compose_hybrid, sweep_selection
from .hypervector import (
    Accumulator,
    Hypervector,
    bind,
    bundle,
    hamming_distance,
    random_hypervector,
)
from .similarity import (
    SimilarityMatrices,
    pairwise_matrices,
    separability,
    wilcoxon_signed_rank,
)
from .training import ClassModel, TrainConfig, train

__all__ = [
    # dataio
    "CohortSpec", "generate_synthetic_cohort", "load_model", "read_cohort",
    "read_feature_cohort", "read_features", "read_record", "read_report",
    "save_model", "synthetic_model_cohort", "write_cohort", "write_features",
    "write_record", "write_report",
    # encoding
    "Codebooks", "build_codebooks", "encode_windows", "fit_ranges",
    # errors
    "CorruptModelError", "DegenerateCohortError", "DegenerateInputError",
    "IncompatibleModelsError", "InsufficientDataError", "InvalidDimensionError",
    "MissingClassError", "ParseError",
    # evaluation
    "EvalConfig", "EvalReport", "bayes_postprocess", "cv_generalized",
    "cv_personalized", "duration_metrics", "episode_metrics",
    "moving_average_postprocess", "summarize", "train_personalized", "transfer_eval",
    # features
    "FeatureConfig", "FeatureMatrix", "SignalRecord", "bandpass_filter",
    "extract_features",
    # generalization
    "EvolutionCurve", "MergeConfig", "evolution_curve", "generalize",
    "plateau_onset", "weight_correct", "weight_wrong",
    # hybrid
    "SelectionSweep", "compose_hybrid", "sweep_selection",
    # hypervector
    "Accumulator", "Hypervector", "bind", "bundle", "hamming_distance",
    "random_hypervector",
    # similarity
    "SimilarityMatrices", "pairwise_matrices", "separability", "wilcoxon_signed_rank",
    # training
    "ClassModel", "TrainConfig", "train",
]
