"""resae: nested-residual autoencoder networks for tabular regression and
classification, implemented from scratch on numpy, with an experiment CLI.
"""

from .data import (
    Dataset,
    SplitIndices,
    generate_simulated,
    generate_spatial_field,
    load_csv,
    simulated_response,
    spatial_features,
    split,
)
from .evaluation import (
    Metrics,
    classification_metrics,
    compare,
    evaluate_model,
    grid_search,
    r2,
    residual_sensitivity,
    rmse_and_nrmse,
    roc_auc,
)
from .matrix import Matrix, Rng, StandardizeStats, standardize_fit_apply
from .network import Network, NetworkSpec, Predictions, build_network
from .training import (
    Adam,
    FittedModel,
    LossSpec,
    Regularizer,
    SgdMomentum,
    SharedSettings,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    fit,
    gradient_check,
    loss_and_head_gradient,
    make_spec,
    train_model,
)

__version__ = "0.1.0"
