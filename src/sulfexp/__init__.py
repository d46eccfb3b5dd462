"""Sulfate-attack expansion modeling for concrete mixtures.

The pipeline classifies mixtures into three expansion-pattern groups
(HN, ML, LL), predicts long-term expansion with a group-specific
regression model, and can refit everything from measured expansion
records: smoothing, failure-point clustering, variable screening,
least-squares fits and the mixture-space classification boundaries.
"""

from .curves import ExpansionSeries, FailurePoint, cluster_features, failure_point, smooth
from .dataio import (
    DatasetManifest,
    SyntheticDataset,
    emit_plot_data,
    generate_synthetic,
    load_bundle,
    load_dataset,
    load_manifest,
    load_mixtures,
    load_series,
    save_bundle,
    write_mixtures,
    write_series,
)
from .errors import NumericalError, SulfexpError, ValidationError
from .clustering import KMeansResult, kmeans, standardize_features
from .mixtures import GroupLabel, Mixture
from .model import (
    HoldoutReport,
    ModelBundle,
    PipelineConfig,
    classify_mixture,
    dataset_hash,
    fit_pipeline,
    default_bundle,
    predict_curve,
    predict_expansion,
    predicted_failure_time,
    refit_r2_report,
    validate_holdout,
)
from .pca import PCAResult, center_and_scale, principal_components, select_dominant_variables
from .regression import GroupModel, OLSFit, fit_group_model, ols_fit
from .svm import LinearBoundary, simplify_axis_parallel, svm_train

__version__ = "0.1.0"

__all__ = [
    "ExpansionSeries", "FailurePoint", "smooth", "failure_point", "cluster_features",
    "KMeansResult", "kmeans", "standardize_features",
    "PCAResult", "center_and_scale", "principal_components", "select_dominant_variables",
    "OLSFit", "GroupModel", "ols_fit", "fit_group_model",
    "LinearBoundary", "svm_train", "simplify_axis_parallel",
    "GroupLabel", "Mixture",
    "ModelBundle", "PipelineConfig", "HoldoutReport",
    "default_bundle", "classify_mixture", "predict_expansion", "predict_curve", "dataset_hash",
    "predicted_failure_time", "fit_pipeline", "validate_holdout", "refit_r2_report",
    "DatasetManifest", "SyntheticDataset",
    "load_mixtures", "load_series", "load_manifest", "load_dataset",
    "save_bundle", "load_bundle", "generate_synthetic", "emit_plot_data",
    "write_mixtures", "write_series",
    "SulfexpError", "ValidationError", "NumericalError",
    "__version__",
]
