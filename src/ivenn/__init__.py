"""Venn prediction on learned distance metrics.

Train a twin network with contrastive loss, group examples into taxonomy
categories in the embedding space, and turn held-out calibration counts
into per-class probability intervals with guaranteed width 1/(N+1).
"""

import types

from ivenn.data import Dataset, SplitSpec, load_csv, save_csv, split, synth_gaussians
from ivenn.ivp import (
    CalibrationTable,
    IvpPrediction,
    calibrate,
    load_table,
    predict,
    predict_many,
    save_table,
)
from ivenn.metrics import (
    CalibrationReport,
    CumulativeCurves,
    EvalBatch,
    accuracy,
    brier,
    build_report,
    cumulative,
    diameter,
    ece_mce,
    nll,
)
from ivenn.mlp import (
    MlpParams,
    TrainConfig,
    contrastive_gradient,
    forward_batch,
    init_params,
    load_params,
    save_params,
    train_classifier,
    train_siamese,
)
from ivenn.pipeline import PipelineError, RunConfig, parse_config, run_pipeline
from ivenn.space import (
    KnnIndex,
    build_centroids,
    build_index,
    knn,
    knn_many,
    nearest_centroid_many,
    silhouette,
)
from ivenn.taxonomy import (
    Taxonomy,
    TaxonomyConfig,
    TaxonomyKind,
    category_count,
    fit_taxonomy,
    resolve_theta,
)

__version__ = "0.1.0"

# every name imported above, but not the submodules that importing them binds
__all__ = sorted(
    n for n, v in globals().items() if not (n[0] == "_" or isinstance(v, types.ModuleType))
) + ["__version__"]
