"""Instance-dependent partial-label learning via a decompositional generation process."""

from .data import (
    PLLDataset,
    candidate_mask,
    load_dataset,
    occurrence_vector,
    read_sidecar,
    write_dataset,
    write_sidecar,
)
from .distributions import beta_posterior_mean, dirichlet_posterior_mean
from .errors import DataFormatError, DataInvariantError, IdgpError, NumericError
from .evaluation import SplitSpec, accuracy, aggregate, split
from .generation import (
    CleanScorerConfig,
    CorruptionReport,
    candidate_set_density,
    corrupt_instance_dependent,
    corrupt_uniform,
    make_clean_dataset,
    train_clean_scorer,
)
from .network import (
    DenseNet,
    SGDState,
    TransformConfig,
    lambda_transform,
    lambda_transform_pair,
    sgd_step,
)
from .objective import (
    degenerate_uniform_loss,
    map_loss,
    map_upper_bound_batch,
    ml_loss,
    reg_loss,
)
from .trainer import (
    PriorCache,
    TrainConfig,
    fit,
    train_epoch,
)

__version__ = "0.1.0"

__all__ = [
    "CleanScorerConfig",
    "CorruptionReport",
    "DataFormatError",
    "DataInvariantError",
    "DenseNet",
    "IdgpError",
    "NumericError",
    "PLLDataset",
    "PriorCache",
    "SGDState",
    "SplitSpec",
    "TrainConfig",
    "TransformConfig",
    "accuracy",
    "aggregate",
    "beta_posterior_mean",
    "candidate_mask",
    "candidate_set_density",
    "corrupt_instance_dependent",
    "corrupt_uniform",
    "degenerate_uniform_loss",
    "dirichlet_posterior_mean",
    "fit",
    "lambda_transform",
    "lambda_transform_pair",
    "load_dataset",
    "make_clean_dataset",
    "map_loss",
    "map_upper_bound_batch",
    "ml_loss",
    "occurrence_vector",
    "read_sidecar",
    "reg_loss",
    "sgd_step",
    "split",
    "train_clean_scorer",
    "train_epoch",
    "write_dataset",
    "write_sidecar",
]
