"""Reference kernels that the tests hold the package's kernels to.

Each one computes its quantity the plain way, one sample at a time or over
whole arrays in new temporaries, and shares no code path with the kernel it
checks; none of them runs in training, evaluation or the command line.

- `dense_softmax` is the one softmax: exp(x - max x) / sum, row by row.
- Per sample: `prob_row` and `entropy` (a query's similarity distribution
  and its entropy), `all_similarities`, `instance_term` and
  `neighbourhood_term` (one sample's loss and gradient), `weighted_knn_predict`
  (one query's kNN vote) and `probe_loss_and_grad` (the linear probe's loss
  and gradients, sample-major).
- Dense: `dense_entropies` is `pipeline.bank_entropies` without its row
  blocks and exp slices, `dense_batch_loss` is
  `losses.round_batch_loss` without its in-place passes, and `looped_blobs` is
  `data.generate_blobs` before its per-sample loop became one draw. The
  production code must match these three bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from andkit.errors import ConfigurationError, ContractError, DimensionError
from andkit.evaluation import DEFAULT_EVAL_TAU, DEFAULT_K_EVAL, _check_labels
from andkit.memory import FeatureBank
from andkit.numerics import SeededRng, l2_normalize


def dense_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def all_similarities(bank: FeatureBank, query) -> np.ndarray:
    """Cosine scores of a unit query against every bank row (length n)."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (bank.d,):
        raise DimensionError(f"query shape {q.shape} != ({bank.d},)")
    return bank.features @ q


def prob_row(query, bank: FeatureBank, tau: float) -> np.ndarray:
    """Softmax over cosine scores of `query` against the bank, at temperature `tau`."""
    if not tau > 0:
        raise ConfigurationError(f"temperature must be > 0, got {tau}")
    return dense_softmax(all_similarities(bank, query) / tau)


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability row, with 0 * log(0) taken as 0."""
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True)
class LossGrad:
    loss: float
    grad: np.ndarray  # d(loss)/d(fresh feature), length d


def instance_term(i: int, x_i, bank: FeatureBank, tau: float) -> LossGrad:
    """Self-recognition loss -log p_i for a sample treated as its own class."""
    return neighbourhood_term(i, x_i, (i,), bank, tau)


def neighbourhood_term(i: int, x_i, members, bank: FeatureBank, tau: float) -> LossGrad:
    """Neighbourhood-membership loss -log sum of member probabilities.

    `members` lists anchor `i` first and holds no index twice. The loss is
    always at most the instance loss, since the member set contains the
    anchor; with the singleton member set (i,) the two are identical.
    """
    idx = np.asarray(members, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0 or idx[0] != i:
        raise ContractError(f"members {idx.tolist()} must list anchor {i} first")
    if np.unique(idx).size != idx.size:
        raise ContractError(f"duplicate members in {idx.tolist()}")
    p = prob_row(x_i, bank, tau)
    q = p[idx].sum()
    target = np.zeros_like(p)
    target[idx] = p[idx] / q
    grad = (p - target) @ bank.features / tau
    return LossGrad(loss=float(-np.log(q)), grad=grad)


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


def probe_loss_and_grad(weights, bias, feats, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy of an affine probe, with exact gradients (sample-major)."""
    labels = _check_labels(labels)
    rows = np.arange(feats.shape[0])
    probs = dense_softmax(feats @ weights.T + bias)
    loss = float(-np.log(probs[rows, labels]).mean())
    probs[rows, labels] -= 1.0
    probs /= feats.shape[0]
    return loss, probs.T @ feats, probs.sum(axis=0)


def dense_entropies(scores, tau):
    """Row entropies of softmax(scores / tau) in log space, over the whole matrix at once."""
    s = (scores - scores.max(axis=1, keepdims=True)) / tau
    e = np.exp(s)
    z = e.sum(axis=1)
    # einsum, as the production pass uses: (e * s).sum(axis=1) rounds differently
    return np.log(z) - np.einsum("ij,ij->i", e, s) / z


def dense_batch_loss(feats, members, bank, tau):
    """Mean batch loss and gradients in log space, over the whole batch in new arrays.

    The production formula (see `losses`) without its in-place passes; e @ M
    is summed over the same 256-row bank panels, in the same order.
    """
    m = bank.features
    s = (feats / tau) @ m.T
    ms = np.sort(members, axis=1)
    ts = np.take_along_axis(s, ms, axis=1)
    ts[:, 1:][ms[:, 1:] == ms[:, :-1]] = -np.inf  # a repeated index counts once
    mm = ts.max(axis=1)
    t = np.exp(ts - mm[:, None])
    msum = t.sum(axis=1)
    shift = s.max(axis=1)
    e = np.exp(s - shift[:, None])
    z = e.sum(axis=1)
    loss = (shift + np.log(z)) - (mm + np.log(msum))
    em = sum(e[:, c:c + 256] @ m[c:c + 256] for c in range(0, len(m), 256))
    tm = np.einsum("bj,bjd->bd", t / msum[:, None], m[ms])
    return float(loss.mean()), (em / z[:, None] - tm) / (tau * feats.shape[0])


def looped_blobs(spec):
    """(inputs, labels) of a blob spec, drawing each sample's noise on its own."""
    rng = SeededRng(spec.seed)
    centers = [
        l2_normalize(rng.normals(spec.dim)) * spec.center_scale for _ in range(spec.num_classes)
    ]
    inputs, labels = [], []
    for c in range(spec.num_classes):
        for _ in range(spec.per_class):
            inputs.append(centers[c] + spec.noise_sigma * rng.normals(spec.dim))
            labels.append(c)
    return np.array(inputs), np.array(labels, dtype=np.int32)
