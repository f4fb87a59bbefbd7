"""Label-aware feature quality measurements.

This is the single module allowed to read ground-truth labels. It scores
learned features three ways: a weighted kNN classifier over the memory
bank, a linear softmax probe on frozen features, and class-consistency
counts over anchor neighbourhoods (rows of a member array, anchor first).

Features are taken by `encode`, which runs the encoder over spans of rows
and keeps no backward cache, so a label-side pass never holds one
whole-input set of layer outputs.

The kNN vote follows the similarity-exponential weighting: among the
k_eval most similar bank rows, class c collects sum of exp(s_i / tau) over
neighbours i labelled c, and the best-scoring class wins (ties to the
lower class id). Evaluating training samples excludes the query's own
bank row so self-similarity cannot inflate accuracy.

The linear probe steps class-major, on one (C, n) probability array, so
each softmax and gradient step is a contiguous length-n vector operation;
it rounds as the sample-major `probe_loss_and_grad` does, bit for bit.
That function and the one-query vote, `weighted_knn_predict`, are test
oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import row_blocks, top_k, top_k_others
from .data import Dataset, label_fault
from .encoder import EncoderParams, forward
from .errors import ConfigurationError, ContractError
from .memory import FeatureBank
from .numerics import check_positive, is_integer

DEFAULT_K_EVAL = 10
DEFAULT_EVAL_TAU = 0.07
# most rows `encode` passes to `forward` at once. On 3000 rows (x86-64,
# OpenBLAS) spans of 128 rows or fewer at layers 32-64-16, and of 172 or fewer
# at 100-33-7, rounded some features differently from one whole-input
# `forward`; every span tried from 256 rows up kept the bits
ENCODE_SPAN = 1024


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
    labels = np.asarray(labels)
    fault = label_fault(labels)
    if fault:
        raise ContractError(fault)
    return labels.astype(np.int64)


def encode(params: EncoderParams, inputs) -> np.ndarray:
    """The unit-norm features of every input row, without a backward cache.

    Rows go through `forward` in near-equal spans of at most ENCODE_SPAN
    rows, so a pass holds the (n, d_out) features and one span's layer
    outputs, and each span's cache is dropped when its features are copied
    out. A span is never shorter than ENCODE_SPAN // 2 rows unless the
    inputs are, since OpenBLAS rounds short products differently from tall
    ones; at the layer sizes measured (see ENCODE_SPAN) every feature row
    keeps the bits of one whole-input `forward`.
    """
    x = np.asarray(inputs, dtype=np.float64)
    n = len(x)
    count = max(1, -(-n // ENCODE_SPAN))
    edges = [n * s // count for s in range(count + 1)]
    feats = np.empty((n, params.layer_sizes[-1]))
    for start, stop in zip(edges, edges[1:]):
        feats[start:stop] = forward(params, x[start:stop])[0]
    return feats


def knn_predict_batch(
    features,
    bank: FeatureBank,
    labels,
    k_eval: int | None = None,
    tau: float = DEFAULT_EVAL_TAU,
    leave_one_out: bool = False,
) -> np.ndarray:
    """The weighted kNN vote of every row of a feature matrix.

    `k_eval` defaults to DEFAULT_K_EVAL, capped at the candidate rows. With
    `leave_one_out`, query row i must correspond to bank row i and is
    excluded from its own candidate set. Weights are shifted by each row's
    best score, exp((s - s_max) / tau), so a small tau cannot overflow them.
    Scores are computed in row blocks on up to two CPUs of the affinity mask
    (`affinity.row_blocks`), and each block is voted on inside its pass,
    so neither the whole query x bank matrix nor any (n, k_eval) array is
    held, and the votes do not depend on the worker count.
    """
    check_positive("tau", tau)
    labels = _check_labels(labels)
    if labels.size != bank.n:
        raise ContractError(f"{labels.size} labels for a bank of {bank.n} rows")
    feats = np.asarray(features, dtype=np.float64)
    if leave_one_out and feats.shape[0] != bank.n:
        raise ContractError("leave-one-out needs one query per bank row")
    available = bank.n - (1 if leave_one_out else 0)
    k_eval = min(DEFAULT_K_EVAL, available) if k_eval is None else k_eval
    if not (is_integer(k_eval) and 1 <= k_eval <= available):
        raise ConfigurationError(f"k_eval must lie in [1, {available}], got {k_eval}")
    num_classes = int(labels.max()) + 1
    preds = np.empty(feats.shape[0], dtype=np.intp)

    def block(start, scores):
        top = top_k_others(scores, start, k_eval) if leave_one_out else top_k(scores, k_eval)
        sims = np.take_along_axis(scores, top, axis=1)
        with np.errstate(over="ignore"):  # a gap past float range at a subnormal tau: weight 0
            weights = np.exp((sims - sims[:, :1]) / tau)  # top_k puts the best score first
        # bincount adds each cell's weights in input order, one at a time, as np.add.at does
        cells = labels[top] + num_classes * np.arange(len(top))[:, None]
        votes = np.bincount(cells.ravel(), weights.ravel(), minlength=len(top) * num_classes)
        preds[start:start + len(top)] = np.argmax(votes.reshape(len(top), num_classes), axis=1)

    row_blocks(feats, bank.features, block)
    return preds


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
    feats = encode(params, split.inputs)
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


def _class_sum(rows) -> np.ndarray:
    """Sum of the rows of a (C, n) array, added in the order numpy's pairwise
    sum takes along a length-C last axis, so it equals the row sums of the
    (n, C) transpose bit for bit: in turn below 8 classes, in 8 running sums
    up to 128, halved above."""
    c = len(rows)
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _class_sum(rows[:half]) + _class_sum(rows[half:])
    if c < 8:
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return total
    whole = c - c % 8
    acc = rows[:8].copy()
    for i in range(8, whole, 8):
        acc += rows[i:i + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in rows[whole:]:
        total += row
    return total


def _fit_probe(feats, labels, num_classes: int, epochs: int, lr: float):
    """Weights and bias after `epochs` full-batch gradient steps from zeros."""
    n = feats.shape[0]
    w = np.zeros((num_classes, feats.shape[1]))
    b = np.zeros(num_classes)
    probs = np.empty((num_classes, n))
    running = np.empty((num_classes, n))
    one_hot = np.zeros((num_classes, n))
    one_hot[labels, np.arange(n)] = 1.0
    for _ in range(epochs):
        np.copyto(probs, (feats @ w.T).T)
        probs += b[:, None]
        probs -= np.maximum.reduce(probs, axis=0)
        np.exp(probs, out=probs)
        probs /= _class_sum(probs)
        probs -= one_hot
        probs /= n
        w -= lr * (probs @ feats)
        b -= lr * np.add.accumulate(probs, axis=1, out=running)[:, -1]
    return w, b


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

    Steps run class-major, on one (C, n) array, and keep the bits of steps
    on `probe_loss_and_grad`: the same `feats @ w.T` product, copied
    transposed; numpy's class-sum order (`_class_sum`); `probs @ feats`
    for its `probs.T @ feats`; and a bias sum that adds the samples in turn.
    """
    if not (is_integer(epochs) and epochs >= 0):
        raise ConfigurationError(f"probe epochs must be an integer >= 0, got {epochs}")
    check_positive("probe lr", lr)
    tr_labels = _check_labels(train_split.labels)
    te_labels = _check_labels(test_split.labels)
    tr_feats = encode(params, train_split.inputs)
    te_feats = tr_feats if test_split is train_split else encode(params, test_split.inputs)
    num_classes = int(max(tr_labels.max(), te_labels.max())) + 1
    w, b = _fit_probe(tr_feats, tr_labels, num_classes, epochs, lr)
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
