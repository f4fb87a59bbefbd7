"""Similarity distributions, anchor neighbourhoods, and consistency entropy.

A probability row is the temperature-scaled softmax of one query feature's
cosine scores against every memory row. An anchor neighbourhood is one row
of an int member array: the anchor first, then its k most similar bank rows
(ties to the lower index); k = 0 is the singleton, the instance case. A row
is read as a set: a repeated index counts once. The Shannon entropy of a
sample's probability row is the curriculum's difficulty score: a peaked row
means the sample sits in a sparse region with an easily separable, likely
class-pure neighbourhood, while a flat row marks a crowded, ambiguous one.

Every N x N score matrix is computed in row blocks (`row_blocks`), so
planning, kNN evaluation and `inspect` hold O(ROW_BLOCK * N) scores at a
time. `top_k` selects by partition rather than a full sort, and on a wide
row it first keeps only the columns that a bound from group maxima cannot
rule out (about sqrt(N * k) of them), so the kNN and neighbourhood passes
hold no N-wide array beside the scores. The blocks run on up to two CPUs of
the process's affinity mask (`taskset` limits them): the calling thread
walks the first contiguous run of blocks and one helper thread, started and
joined by each call, the other, into score buffers that the calling thread
allocates once per call. Every output row depends only on its own row of
scores, and the blocks are cut by the row count alone, never shorter than
MIN_ROWS rows, so the bytes do not depend on the CPU count. This helper
thread is the package's only one.

All log/entropy values use the natural logarithm; only the entropy ordering
matters for curriculum selection, so the base is a free choice. `entropy`
takes one probability row; the plan (`pipeline.bank_entropies`) takes every
row's entropy straight from its scores, in log space.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import ConfigurationError
from .memory import FeatureBank, all_similarities
from .numerics import stable_softmax

# query rows of scores in flight per call: blocks of at most ROW_BLOCK // 2
# rows, one per worker, so at most two workers. At N = 5000 (d = 16, k = 10,
# one BLAS thread) plan plus kNN ran within 7% for 128-512 rows in flight and
# 28% slower at 1024 with one worker, within 2% for 256-512 with two; the
# entropy pass moves, the narrowed top-k and kNN passes stay within 4% of each
# other from 128 rows up
ROW_BLOCK = 256
# fewest rows in a row block, bar a query matrix with fewer: OpenBLAS takes
# a matrix-vector path for one row, and on x86-64 it rounded blocks of 2-11
# rows differently from taller ones (d = 4 and 16, most bank sizes tried from
# 300 to 5001). Where the bank's row count is not a multiple of 8 it also
# rounded a 128-row block differently from the same rows cut into 64- or
# 32-row blocks (N = 513, 700, 1000, 2500, 9999), so `row_blocks` cuts its
# grid by the row count alone, never by the CPUs
MIN_ROWS = 32
# top_k narrows a row to candidate columns only where it holds at least this
# many columns per wanted one; on (128, m) blocks with k = 10 (one Xeon core)
# the narrowing took m = 400 from 0.39 to 0.49 ms, m = 640 from 0.74 to 0.52
# and m = 5000 from 4.1 to 1.5
PREFILTER = 64


def prob_row(query, bank: FeatureBank, tau: float) -> np.ndarray:
    """Softmax over cosine scores of `query` against the bank, at temperature `tau`."""
    if not tau > 0:
        raise ConfigurationError(f"temperature must be > 0, got {tau}")
    return stable_softmax(all_similarities(bank, query) / tau)


def _cpus() -> int:
    """CPUs in this process's affinity mask, or all CPUs where there are no masks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def row_blocks(queries: np.ndarray, keys: np.ndarray, fn, exclude_self: bool = False,
               scratch: bool = False) -> None:
    """Call fn(start, scores) on every row block of queries @ keys.T.

    `scores` holds queries[start:start + len(scores)] @ keys.T; with `scratch`,
    the call is fn(start, scores, aux), where `aux` is a float64 scratch block
    of the same shape for `fn` to use. The query rows are cut into near-equal
    blocks of at most ROW_BLOCK // 2 rows, a grid that depends on the row count
    alone, so no block is shorter than MIN_ROWS unless the queries are. Where
    the affinity mask holds two CPUs or more and there are two blocks or more,
    the calling thread walks the first half of the blocks and a helper thread
    the second, each into its own buffers (ROW_BLOCK rows of scores in flight);
    else the blocks run inline. `fn` may then run on two threads at once and
    must write only its own rows of any shared output. The helper is joined
    before this returns or raises, and an exception `fn` raises in either
    thread is raised again here.

    With `exclude_self`, query row i is key row i and its own score is -inf,
    so it never ranks as its own neighbour.
    """
    n, m = queries.shape[0], keys.shape[0]
    if n == 0:
        return
    count = -(-n // (ROW_BLOCK // 2))
    edges = [n * b // count for b in range(count + 1)]
    height = -(-n // count)

    def buffers() -> list[np.ndarray]:
        """A run's scores block, then any aux block."""
        return [np.empty((height, m)) for _ in range(2 if scratch else 1)]

    def walk(first, last, scores, *extra) -> None:
        for start, stop in zip(edges[first:last], edges[first + 1:last + 1]):
            block = scores[:stop - start]
            np.matmul(queries[start:stop], keys.T, out=block)
            if exclude_self:
                rows = np.arange(stop - start)
                block[rows, start + rows] = -np.inf
            fn(start, block, *(buf[:stop - start] for buf in extra))

    cut = count // min(_cpus(), 2, count)  # the helper's run starts at block `cut`
    if cut == count:
        walk(0, count, *buffers())
        return
    own, other = buffers(), buffers()  # allocated here, before the helper starts
    raised = []

    def helper() -> None:
        try:
            walk(cut, count, *other)
        except BaseException as err:  # raised again in the calling thread below
            raised.append(err)

    # a plain thread: threading is loaded with numpy anyway, while importing
    # concurrent.futures cost 5.5 ms in every process that pools
    thread = threading.Thread(target=helper, daemon=True)
    thread.start()
    try:
        walk(0, cut, *own)
    finally:
        thread.join()
    if raised:
        raise raised[0]


def _select(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest scores in each row, best first, ties to the lower position.

    A partition finds each row's k-th largest score and the entries at or
    above it are sorted. A row whose k-th score ties beyond k entries sorts
    only those entries; a row with fewer than k of them, which only a NaN
    makes (the partition ranks NaN largest, the sort smallest), is sorted
    whole.
    """
    rows, m = scores.shape
    aux = scores.copy()
    aux.partition(m - k, axis=1)
    mask = scores >= aux[:, m - k, None]
    counts = mask.sum(axis=1)
    out = np.empty((rows, k), dtype=np.intp)
    # nonzero lists each row's columns in ascending order, so a stable sort
    # of their scores breaks ties to the lower index
    hit_rows, hit_cols = np.nonzero(mask)
    fits = counts == k
    exact = np.flatnonzero(fits)
    cols = hit_cols[np.repeat(fits, counts)].reshape(-1, k)
    order = np.argsort(-scores[exact[:, None], cols], axis=1, kind="stable")
    out[exact] = np.take_along_axis(cols, order, axis=1)
    over = counts > k
    if over.any():
        # each tied row's at-or-above entries, sorted by row, then by score;
        # lexsort is stable, so equal scores keep ascending column order
        take = np.repeat(over, counts)
        rows_over, cols_over = hit_rows[take], hit_cols[take]
        ranked = cols_over[np.lexsort((-scores[rows_over, cols_over], rows_over))]
        starts = np.cumsum(counts[over]) - counts[over]
        out[over] = ranked[starts[:, None] + np.arange(k)]
    short = np.flatnonzero(counts < k)
    out[short] = np.argsort(-scores[short], axis=1, kind="stable")[:, :k]
    return out


def _candidates(scores: np.ndarray, k: int) -> np.ndarray:
    """Flat indices into `scores` of each row's candidates for its top k, in ascending order.

    The groups and the bound are those that `top_k` describes; every row
    takes as many groups as the row that keeps the most.
    """
    rows, m = scores.shape
    slices = math.isqrt(m // k)
    width = m // slices
    head = slices * width
    maxima = scores[:, :head].reshape(rows, slices, width).max(axis=1)
    bound = np.partition(maxima, width - k, axis=1)[:, width - k]
    drop = maxima < bound[:, None]
    drop[np.isnan(maxima).any(axis=1)] = False
    kept = width - int(drop.sum(axis=1).min())
    # kept groups key below dropped ones; of the dropped, the lowest-numbered fill the row
    key = width * drop
    key += np.arange(width)
    groups = np.sort(np.partition(key, kept - 1, axis=1)[:, :kept], axis=1) % width
    starts = m * np.arange(rows)[:, None]
    flat = groups[:, None, :] + (starts[:, :, None] + np.arange(0, head, width)[:, None])
    return np.concatenate([flat.reshape(rows, -1), starts + np.arange(head, m)], axis=1)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest scores in each row, best first.

    Equal scores keep ascending index order; this is the one tie rule used
    by planning, kNN evaluation and `inspect`, so runs are reproducible.
    The result equals ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``.

    Where a row holds at least PREFILTER columns per wanted one, a bound
    first narrows it to about sqrt(m * k) candidate columns. The first g * G
    columns, g = isqrt(m // k) and G = m // g, form G groups: group c holds
    columns c, c + G, c + 2G, ..., so the group maxima are one elementwise
    max over g strided slices. The k-th largest group maximum is at most the
    row's k-th largest score, since the k largest group maxima are k
    distinct entries. So every score at or above the k-th, ties included,
    lies in a group whose maximum reaches that bound, or among the < g tail
    columns past g * G. Where another row of the block keeps more groups, a
    row also takes some whose every score is below its bound, which
    therefore never rank. The candidates keep ascending column order, so
    the selection on their scores keeps the tie rule. A row whose group
    maxima hold a NaN keeps every group, so it takes the selection on all
    its columns and that selection's NaN rule.

    The selection (`_select`) partitions for each row's k-th largest score
    and sorts the entries at or above it.
    """
    rows, m = scores.shape
    if not 1 <= k <= m:
        raise ConfigurationError(f"k must lie in [1, {m}], got {k}")
    if m < PREFILTER * k or rows == 0:
        return _select(scores, k)
    flat = _candidates(scores, k)
    picked = _select(np.ascontiguousarray(scores).take(flat), k)
    return np.take_along_axis(flat, picked, axis=1) - m * np.arange(rows)[:, None]


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

    def block(start, scores):
        members[start:start + scores.shape[0], 1:] = top_k(scores, k)

    row_blocks(bank.features, bank.features, block, exclude_self=True)
    return members


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability row, with 0 * log(0) taken as 0."""
    nz = probs[probs > 0.0]
    return float(-(nz * np.log(nz)).sum())
