"""Label-aware feature quality measurements.

This is the single module allowed to read ground-truth labels. It scores
learned features three ways: a weighted kNN classifier over the memory
bank, a linear softmax probe on frozen features, and class-consistency
counts over anchor neighbourhoods (rows of a member array, anchor first).

The kNN vote follows the similarity-exponential weighting: among the
k_eval most similar bank rows, class c collects sum of exp(s_i / tau) over
neighbours i labelled c, and the best-scoring class wins (ties to the
lower class id). Evaluating training samples excludes the query's own
bank row so self-similarity cannot inflate accuracy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .affinity import top_k
from .data import Dataset
from .encoder import EncoderParams, forward
from .errors import ConfigurationError, ContractError
from .memory import FeatureBank
from .numerics import stable_softmax

DEFAULT_K_EVAL = 10
DEFAULT_EVAL_TAU = 0.07


@dataclass
class EvalReport:
    knn_accuracy: float
    linear_accuracy: float | None
    consistent_count: int
    inconsistent_count: int
    per_class_accuracy: list[float]

    def to_dict(self) -> dict:
        return asdict(self)


def _check_labels(labels) -> np.ndarray:
    if labels is None:
        raise ContractError("labels are required for evaluation")
    return np.asarray(labels, dtype=np.int64)


def weighted_knn_predict(
    query,
    bank: FeatureBank,
    labels,
    k_eval: int = DEFAULT_K_EVAL,
    tau: float = DEFAULT_EVAL_TAU,
    exclude: int | None = None,
) -> int:
    """Class id winning the similarity-weighted vote of the top-k bank rows."""
    labels = _check_labels(labels)
    if labels.size != bank.n:
        raise ContractError(f"{labels.size} labels for a bank of {bank.n} rows")
    sims = bank.features @ np.asarray(query, dtype=np.float64)
    if exclude is not None:
        sims = sims.copy()
        sims[exclude] = -np.inf
    available = bank.n - (1 if exclude is not None else 0)
    if not 1 <= k_eval <= available:
        raise ConfigurationError(f"k_eval must lie in [1, {available}], got {k_eval}")
    top = np.argsort(-sims, kind="stable")[:k_eval]
    weights = np.exp(sims[top] / tau)
    scores = np.zeros(int(labels.max()) + 1)
    np.add.at(scores, labels[top], weights)
    return int(np.argmax(scores))


def knn_predict_batch(
    features,
    bank: FeatureBank,
    labels,
    k_eval: int = DEFAULT_K_EVAL,
    tau: float = DEFAULT_EVAL_TAU,
    leave_one_out: bool = False,
) -> np.ndarray:
    """Vectorised `weighted_knn_predict` over a feature matrix.

    With `leave_one_out`, query row i must correspond to bank row i and is
    excluded from its own candidate set.
    """
    labels = _check_labels(labels)
    feats = np.asarray(features, dtype=np.float64)
    sims = feats @ bank.features.T
    if leave_one_out:
        if feats.shape[0] != bank.n:
            raise ContractError("leave-one-out needs one query per bank row")
        np.fill_diagonal(sims, -np.inf)
    available = bank.n - (1 if leave_one_out else 0)
    if not 1 <= k_eval <= available:
        raise ConfigurationError(f"k_eval must lie in [1, {available}], got {k_eval}")
    top = top_k(sims, k_eval)
    weights = np.exp(np.take_along_axis(sims, top, axis=1) / tau)
    num_classes = int(labels.max()) + 1
    scores = np.zeros((feats.shape[0], num_classes))
    rows = np.repeat(np.arange(feats.shape[0]), k_eval)
    np.add.at(scores, (rows, labels[top].ravel()), weights.ravel())
    return np.argmax(scores, axis=1)


def knn_accuracy(
    split: Dataset,
    params: EncoderParams,
    bank: FeatureBank,
    labels,
    k_eval: int = DEFAULT_K_EVAL,
    tau: float = DEFAULT_EVAL_TAU,
    leave_one_out: bool = False,
) -> float:
    """Fraction of split samples whose weighted kNN vote matches ground truth."""
    truth = _check_labels(split.labels)
    feats, _ = forward(params, split.inputs)
    preds = knn_predict_batch(feats, bank, labels, k_eval, tau, leave_one_out)
    return float((preds == truth).mean())


def per_class_accuracy(predictions, truth) -> list[float]:
    preds = np.asarray(predictions)
    truth = _check_labels(truth)
    out = []
    for c in range(int(truth.max()) + 1):
        mask = truth == c
        out.append(float((preds[mask] == c).mean()) if mask.any() else float("nan"))
    return out


def probe_loss_and_grad(weights, bias, feats, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of an affine probe, with exact gradients."""
    labels = _check_labels(labels)
    logits = feats @ weights.T + bias
    probs = stable_softmax(logits)
    b = feats.shape[0]
    loss = float(-np.log(probs[np.arange(b), labels]).mean())
    gl = probs.copy()
    gl[np.arange(b), labels] -= 1.0
    gl /= b
    return loss, gl.T @ feats, gl.sum(axis=0)


def linear_probe(
    train_split: Dataset,
    test_split: Dataset,
    params: EncoderParams,
    epochs: int = 200,
    lr: float = 0.5,
) -> float:
    """Train one affine layer on frozen features; return test accuracy.

    The probe starts from zeros, so the run is deterministic and zero
    epochs leaves the all-ties probe that predicts class 0 everywhere.
    """
    if epochs < 0:
        raise ConfigurationError(f"probe epochs must be >= 0, got {epochs}")
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigurationError(f"probe lr must be a finite number > 0, got {lr}")
    tr_labels = _check_labels(train_split.labels)
    te_labels = _check_labels(test_split.labels)
    tr_feats, _ = forward(params, train_split.inputs)
    te_feats, _ = forward(params, test_split.inputs)
    num_classes = int(max(tr_labels.max(), te_labels.max())) + 1
    w = np.zeros((num_classes, tr_feats.shape[1]))
    b = np.zeros(num_classes)
    for _ in range(epochs):
        _, gw, gb = probe_loss_and_grad(w, b, tr_feats, tr_labels)
        w -= lr * gw
        b -= lr * gb
    preds = np.argmax(te_feats @ w.T + b, axis=1)
    return float((preds == te_labels).mean())


def consistent_rows(members, labels) -> np.ndarray:
    """Bool mask of the member rows whose members all share the anchor's label."""
    member_labels = _check_labels(labels)[np.asarray(members, dtype=np.int64)]
    return (member_labels == member_labels[:, :1]).all(axis=1)


def neighbourhood_consistency(members, labels) -> tuple[int, int]:
    """Count member rows whose members all share one label vs the rest."""
    consistent = int(consistent_rows(members, labels).sum())
    return consistent, len(members) - consistent


def consistency_curve_csv(metric_rows) -> str:
    """Per-round consistency counts as plot-ready CSV.

    Takes metric dicts (one per epoch, as stored in a metrics JSONL file),
    keeps the first record of every curriculum round that carries counts,
    and emits ``round,consistent_count,inconsistent_count`` lines.
    """
    lines = ["round,consistent_count,inconsistent_count"]
    seen = set()
    for row in metric_rows:
        r = row["round"]
        if r < 1 or r in seen or row.get("consistent_count") is None:
            continue
        seen.add(r)
        lines.append(f"{r},{row['consistent_count']},{row['inconsistent_count']}")
    return "\n".join(lines) + "\n"
