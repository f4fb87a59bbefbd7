"""Similarity distributions, anchor neighbourhoods, and consistency entropy.

A probability row is the temperature-scaled softmax of one query feature's
cosine scores against every memory row. An anchor neighbourhood is one row
of an int member array: the anchor first, then its k most similar bank rows
(ties to the lower index); k = 0 is the singleton, the instance case. A row
is read as a set: a repeated index counts once. The Shannon entropy of a
sample's probability row is the curriculum's difficulty score: a peaked row
means the sample sits in a sparse region with an easily separable, likely
class-pure neighbourhood, while a flat row marks a crowded, ambiguous one.

Every N x N score matrix is computed in blocks of ROW_BLOCK query rows
(`row_blocks`), so planning, kNN evaluation and `inspect` hold O(ROW_BLOCK * N)
scores at a time, and `top_k` selects by partition rather than a full sort.

All log/entropy values use the natural logarithm; only the entropy ordering
matters for curriculum selection, so the base is a free choice.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .memory import FeatureBank, all_similarities
from .numerics import stable_softmax

# query rows per score block; at N = 5000 (d = 16, one BLAS thread) plan plus
# kNN ran within 10% for 128-512 rows and about 40% slower at 1024
ROW_BLOCK = 256


def prob_row(query, bank: FeatureBank, tau: float) -> np.ndarray:
    """Softmax over cosine scores of `query` against the bank, at temperature `tau`."""
    if not tau > 0:
        raise ConfigurationError(f"temperature must be > 0, got {tau}")
    return stable_softmax(all_similarities(bank, query) / tau)


def row_blocks(queries: np.ndarray, keys: np.ndarray, exclude_self: bool = False):
    """Yield (start, queries[start:start + ROW_BLOCK] @ keys.T) over all query rows.

    With `exclude_self`, query row i is key row i and its own score is -inf,
    so it never ranks as its own neighbour.
    """
    for start in range(0, queries.shape[0], ROW_BLOCK):
        block = queries[start:start + ROW_BLOCK] @ keys.T
        if exclude_self:
            rows = np.arange(block.shape[0])
            block[rows, start + rows] = -np.inf
        yield start, block


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest scores in each row, best first.

    Equal scores keep ascending index order; this is the one tie rule used
    by planning, kNN evaluation and `inspect`, so runs are reproducible.
    The result equals ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``:
    a partition finds each row's k-th largest score, the k entries at or
    above it are sorted, and only a row whose k-th score ties beyond k
    entries (or that holds a NaN) is sorted whole.
    """
    rows, m = scores.shape
    if not 1 <= k <= m:
        raise ConfigurationError(f"k must lie in [1, {m}], got {k}")
    kth = np.partition(scores, m - k, axis=1)[:, m - k, None]
    above = scores >= kth
    counts = above.sum(axis=1)
    exact, tied = np.flatnonzero(counts == k), np.flatnonzero(counts != k)
    out = np.empty((rows, k), dtype=np.intp)
    # nonzero lists each row's k columns in ascending order, so the stable
    # sort of their scores breaks ties to the lower index
    cols = np.nonzero(above[exact])[1].reshape(-1, k)
    order = np.argsort(-scores[exact[:, None], cols], axis=1, kind="stable")
    out[exact] = np.take_along_axis(cols, order, axis=1)
    out[tied] = np.argsort(-scores[tied], axis=1, kind="stable")[:, :k]
    return out


def build_neighbourhoods(bank: FeatureBank, k: int) -> np.ndarray:
    """Exact top-k cosine member array, shape (n, k+1), for every bank row.

    Row i is anchor i followed by the k other rows with the largest inner
    products against row i. Exact search over all pairs, one row block at a
    time: O(n^2 d) work and O(ROW_BLOCK * n) memory.
    """
    n = bank.n
    if not 0 <= k <= n - 1:
        raise ConfigurationError(f"k must lie in [0, {n - 1}], got {k}")
    members = np.empty((n, k + 1), dtype=np.int64)
    members[:, 0] = np.arange(n)  # the anchor joins explicitly, not via search
    if k == 0:
        return members
    for start, sims in row_blocks(bank.features, bank.features, exclude_self=True):
        members[start:start + sims.shape[0], 1:] = top_k(sims, k)
    return members


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability row, with 0 * log(0) taken as 0."""
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())


def entropy_rows(prob_matrix: np.ndarray) -> np.ndarray:
    """Row-wise entropies of a stack of probability rows."""
    p = np.asarray(prob_matrix, dtype=np.float64)
    plogp = np.where(p > 0.0, p, 1.0)  # log(1) is exactly 0, so p = 0 adds 0
    np.log(plogp, out=plogp)
    plogp *= p
    return -plogp.sum(axis=1)
