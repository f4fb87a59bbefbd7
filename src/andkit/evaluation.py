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
from dataclasses import dataclass

import numpy as np

from .affinity import row_blocks, top_k
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
    per_class_accuracy: list[float | None]  # None (JSON null): the class has no sample here


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
    k_eval: int | None = None,
    tau: float = DEFAULT_EVAL_TAU,
    leave_one_out: bool = False,
) -> np.ndarray:
    """Vectorised `weighted_knn_predict` over a feature matrix.

    `k_eval` defaults to DEFAULT_K_EVAL, capped at the candidate rows. With
    `leave_one_out`, query row i must correspond to bank row i and is
    excluded from its own candidate set. Weights are shifted by each row's
    best score, exp((s - s_max) / tau), so a small tau cannot overflow them.
    Scores are computed in row blocks on up to two CPUs of the affinity mask
    (`affinity.row_blocks`), so the whole query x bank matrix is never
    held, and the votes do not depend on the worker count.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigurationError(f"tau must be a finite number > 0, got {tau}")
    labels = _check_labels(labels)
    if labels.size != bank.n:
        raise ContractError(f"{labels.size} labels for a bank of {bank.n} rows")
    feats = np.asarray(features, dtype=np.float64)
    if leave_one_out and feats.shape[0] != bank.n:
        raise ContractError("leave-one-out needs one query per bank row")
    available = bank.n - (1 if leave_one_out else 0)
    k_eval = min(DEFAULT_K_EVAL, available) if k_eval is None else k_eval
    if not 1 <= k_eval <= available:
        raise ConfigurationError(f"k_eval must lie in [1, {available}], got {k_eval}")
    top = np.empty((feats.shape[0], k_eval), dtype=np.intp)
    top_sims = np.empty((feats.shape[0], k_eval))

    def block(start, scores):
        block_top = top_k(scores, k_eval)
        top[start:start + scores.shape[0]] = block_top
        top_sims[start:start + scores.shape[0]] = np.take_along_axis(scores, block_top, axis=1)

    row_blocks(feats, bank.features, block, exclude_self=leave_one_out)
    weights = np.exp((top_sims - top_sims[:, :1]) / tau)  # top_k puts the best score first
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
    k_eval: int | None = None,
    leave_one_out: bool = False,
) -> float:
    """Fraction of split samples whose weighted kNN vote matches ground truth."""
    truth = _check_labels(split.labels)
    feats, _ = forward(params, split.inputs)
    preds = knn_predict_batch(feats, bank, labels, k_eval, DEFAULT_EVAL_TAU, leave_one_out)
    return float((preds == truth).mean())


def per_class_accuracy(predictions, truth) -> list[float | None]:
    preds = np.asarray(predictions)
    truth = _check_labels(truth)
    out = []
    for c in range(int(truth.max()) + 1):
        mask = truth == c
        out.append(float((preds[mask] == c).mean()) if mask.any() else None)
    return out


def _probe_probs(weights, bias, feats) -> np.ndarray:
    """Softmax of an affine probe's logits."""
    logits = feats @ weights.T + bias
    return stable_softmax(logits, out=logits)


def _probe_grads(probs, feats, labels) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of the mean cross-entropy; overwrites `probs`."""
    b = feats.shape[0]
    probs[np.arange(b), labels] -= 1.0
    probs /= b
    return probs.T @ feats, probs.sum(axis=0)


def probe_loss_and_grad(weights, bias, feats, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of an affine probe, with exact gradients."""
    labels = _check_labels(labels)
    probs = _probe_probs(weights, bias, feats)
    loss = float(-np.log(probs[np.arange(feats.shape[0]), labels]).mean())
    return (loss, *_probe_grads(probs, feats, labels))


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
        gw, gb = _probe_grads(_probe_probs(w, b, tr_feats), tr_feats, tr_labels)
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
