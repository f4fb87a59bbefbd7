"""andkit: anchor-neighbourhood curriculum training for unsupervised features.

Trains a small MLP encoder without labels by progressively discovering
sample-anchored neighbourhoods in a memory bank of feature vectors, ranked
by similarity-distribution entropy, and evaluates the learned features with
a weighted kNN classifier, a linear probe, and neighbourhood-consistency
counts.
"""

__version__ = "0.1.0"

from .affinity import build_neighbourhoods, top_k
from .data import BlobSpec, Dataset, generate_blobs, load_dataset, make_batches
from .encoder import EncoderConfig, EncoderParams, forward, init_params, lr_at
from .errors import AndkitError
from .evaluation import EvalReport, knn_accuracy, linear_probe, neighbourhood_consistency
from .losses import round_batch_loss
from .memory import FeatureBank, init_bank, update_batch
from .numerics import SeededRng, l2_normalize
from .pipeline import (
    Checkpoint,
    MetricsRecord,
    RoundPlan,
    TrainConfig,
    load_checkpoint,
    plan_round,
    save_checkpoint,
    select_anchors,
    train,
)

__all__ = [
    "AndkitError",
    "BlobSpec",
    "Checkpoint",
    "Dataset",
    "EncoderConfig",
    "EncoderParams",
    "EvalReport",
    "FeatureBank",
    "MetricsRecord",
    "RoundPlan",
    "SeededRng",
    "TrainConfig",
    "build_neighbourhoods",
    "forward",
    "generate_blobs",
    "init_bank",
    "init_params",
    "knn_accuracy",
    "l2_normalize",
    "linear_probe",
    "load_checkpoint",
    "load_dataset",
    "lr_at",
    "make_batches",
    "neighbourhood_consistency",
    "plan_round",
    "round_batch_loss",
    "save_checkpoint",
    "select_anchors",
    "top_k",
    "train",
    "update_batch",
]
