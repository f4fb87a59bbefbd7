"""andkit: anchor-neighbourhood curriculum training for unsupervised features.

Trains a small MLP encoder without labels by progressively discovering
sample-anchored neighbourhoods in a memory bank of feature vectors, ranked
by similarity-distribution entropy, and evaluates the learned features with
a weighted kNN classifier, a linear probe, and neighbourhood-consistency
counts.
"""

__version__ = "0.1.0"

from .affinity import build_neighbourhoods, entropy, prob_row, top_k
from .data import BlobSpec, Dataset, generate_blobs, load_dataset, make_batches
from .encoder import EncoderConfig, EncoderParams, forward, init_params, lr_at
from .errors import AndkitError
from .evaluation import EvalReport, knn_accuracy, linear_probe, neighbourhood_consistency
from .losses import LossGrad, instance_term, neighbourhood_term, round_batch_loss
from .memory import FeatureBank, all_similarities, init_bank, update_batch
from .numerics import SeededRng, l2_normalize, stable_softmax
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
    "LossGrad",
    "MetricsRecord",
    "RoundPlan",
    "SeededRng",
    "TrainConfig",
    "all_similarities",
    "build_neighbourhoods",
    "entropy",
    "forward",
    "generate_blobs",
    "init_bank",
    "init_params",
    "instance_term",
    "knn_accuracy",
    "l2_normalize",
    "linear_probe",
    "load_checkpoint",
    "load_dataset",
    "lr_at",
    "make_batches",
    "neighbourhood_consistency",
    "neighbourhood_term",
    "plan_round",
    "prob_row",
    "round_batch_loss",
    "save_checkpoint",
    "select_anchors",
    "stable_softmax",
    "top_k",
    "train",
    "update_batch",
]
