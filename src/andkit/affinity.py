"""Similarity distributions, anchor neighbourhoods, and consistency entropy.

A probability row is the temperature-scaled softmax of one query feature's
cosine scores against every memory row. An anchor neighbourhood is one row
of an int member array: the anchor first, then its k most similar bank rows
(ties to the lower index); k = 0 is the singleton, the instance case. A row
is read as a set: a repeated index counts once. The Shannon entropy of a
sample's probability row is the curriculum's difficulty score: a peaked row
means the sample sits in a sparse region with an easily separable, likely
class-pure neighbourhood, while a flat row marks a crowded, ambiguous one.

All log/entropy values use the natural logarithm; only the entropy ordering
matters for curriculum selection, so the base is a free choice.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .memory import FeatureBank, all_similarities
from .numerics import stable_softmax


def prob_row(query, bank: FeatureBank, tau: float) -> np.ndarray:
    """Softmax over cosine scores of `query` against the bank, at temperature `tau`."""
    if not tau > 0:
        raise ConfigurationError(f"temperature must be > 0, got {tau}")
    return stable_softmax(all_similarities(bank, query) / tau)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest scores in each row, best first.

    Equal scores keep ascending index order; this is the one tie rule used
    by planning, kNN evaluation and `inspect`, so runs are reproducible.
    """
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def build_neighbourhoods(bank: FeatureBank, k: int) -> np.ndarray:
    """Exact top-k cosine member array, shape (n, k+1), for every bank row.

    Row i is anchor i followed by the k other rows with the largest inner
    products against row i. Exact O(n^2) search; the bank is desk-scale by
    design.
    """
    n = bank.n
    if not 0 <= k <= n - 1:
        raise ConfigurationError(f"k must lie in [0, {n - 1}], got {k}")
    anchors = np.arange(n, dtype=np.int64)[:, None]
    if k == 0:
        return anchors
    sims = bank.features @ bank.features.T
    np.fill_diagonal(sims, -np.inf)  # the anchor joins explicitly, not via search
    return np.concatenate([anchors, top_k(sims, k)], axis=1)


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability row, with 0 * log(0) taken as 0."""
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())


def entropy_rows(prob_matrix: np.ndarray) -> np.ndarray:
    """Row-wise entropies of a stack of probability rows."""
    p = np.asarray(prob_matrix, dtype=np.float64)
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -(p * logp).sum(axis=1)
