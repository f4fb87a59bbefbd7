"""Anchor neighbourhoods: row-block score passes and the exact top-k.

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
time, and `bank_pass` computes each block of a bank against itself once for
both its top-k and its entropies. `top_k` ranks about sqrt(N * k) entries a
row: a bound from each row's strided group maxima keeps the entries that can
rank, and one lexsort ranks them, so the kNN and neighbourhood passes hold
no N-wide array beside the scores (the entropies one of a few rows). A
bank's scores against itself leave each row's own column out of its top-k by
`top_k_others`, which hands the block back as it came. The blocks run on up
to two CPUs of the process's affinity mask (`taskset` limits them): the
calling thread walks the first contiguous run of blocks and one helper
thread, started and joined by each call, the other, each into one score
buffer that the calling thread allocates once per call. Every output row
depends only on its own row of scores, and the blocks are cut by the row
count alone, never shorter than ROW_BLOCK // 4 rows, so the bytes do not
depend on the CPU count. This helper thread is the package's only one.

All log/entropy values use the natural logarithm; only the entropy ordering
matters for curriculum selection, so the base is a free choice. `bank_pass`
takes every row's entropy straight from its scores, in log space. The
per-row references, `prob_row` and `entropy`, are test oracles in
`tests/oracles.py`.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import ConfigurationError
from .memory import FeatureBank

# query rows of scores in flight per call: blocks of at most ROW_BLOCK // 2
# rows, one per worker, so at most two workers. At N = 5000 (d = 16, k = 10,
# one BLAS thread, two workers) a plan's one pass took 148, 126, 113 and 108
# ms at 64, 128, 256 and 512 rows in flight, where its two passes had taken
# 128 ms at 256; a kNN pass took 95, 73, 54 and 52 ms. 128 rows keep the
# plan's time at half its scores (a 2.5 MB block per worker), for about 20 ms
# more per kNN pass. The blocks are near-equal, so none is shorter than
# ROW_BLOCK // 4 = 32 rows bar a query matrix with fewer: OpenBLAS takes a
# matrix-vector path for one row, and on x86-64 it rounded blocks of 2-11
# rows differently from taller ones (d = 4 and 16, most bank sizes tried from
# 300 to 5001). Where the bank's row count is not a multiple of 8 it also
# rounded a 128-row block differently from the same rows cut into 64- or
# 32-row blocks (N = 513, 700, 1000, 2500, 9999), so `row_blocks` cuts its
# grid by the row count alone, never by the CPUs
ROW_BLOCK = 128
# rows of one exp slice in `_block_entropies`: at N = 5000 (64-row blocks, one
# BLAS thread) a plan's entropies took 124 ms in 32-row slices, 115 in 8-row
# ones and 127 in 4-row ones, with equal bits
_EXP_ROWS = 8


def _cpus() -> int:
    """CPUs in this process's affinity mask, or all CPUs where there are no masks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def row_blocks(queries: np.ndarray, keys: np.ndarray, fn) -> None:
    """Call fn(start, scores) on every row block of queries @ keys.T.

    `scores` holds queries[start:start + len(scores)] @ keys.T, in a buffer
    that `fn` may overwrite. The query rows are cut into near-equal blocks of
    at most ROW_BLOCK // 2 rows, a grid that depends on the row count alone,
    so no block is shorter than ROW_BLOCK // 4 unless the queries are. Where
    the affinity mask holds two CPUs or more and there are two blocks or more,
    the calling thread walks the first half of the blocks and a helper thread
    the second, each into its own buffer (ROW_BLOCK rows of scores in flight);
    else the blocks run inline. `fn` may then run on two threads at once and
    must write only its own rows of any shared output. The helper is joined
    before this returns or raises, and an exception `fn` raises in either
    thread is raised again here.
    """
    n, m = queries.shape[0], keys.shape[0]
    if n == 0:
        return
    count = -(-n // (ROW_BLOCK // 2))
    edges = [n * b // count for b in range(count + 1)]
    height = -(-n // count)

    def walk(first, last, scores) -> None:
        for start, stop in zip(edges[first:last], edges[first + 1:last + 1]):
            block = scores[:stop - start]
            np.matmul(queries[start:stop], keys.T, out=block)
            fn(start, block)

    cut = count // min(_cpus(), 2, count)  # the helper's run starts at block `cut`
    if cut == count:
        walk(0, count, np.empty((height, m)))
        return
    own, other = np.empty((height, m)), np.empty((height, m))  # before the helper starts
    raised = []

    def helper() -> None:
        try:
            walk(cut, count, other)
        except BaseException as err:  # raised again in the calling thread below
            raised.append(err)

    # a plain thread: threading is loaded with numpy anyway, while importing
    # concurrent.futures cost 5.5 ms in every process that pools
    thread = threading.Thread(target=helper, daemon=True)
    thread.start()
    try:
        walk(0, cut, own)
    finally:
        thread.join()
    if raised:
        raise raised[0]


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest scores in each row, best first.

    Equal scores keep ascending index order; this is the one tie rule used
    by planning, kNN evaluation and `inspect`, so runs are reproducible.
    The result equals ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``.

    A bound narrows each row to about sqrt(m * k) entries. The first g * G
    columns, g = isqrt(m // k) and G = m // g, form G groups: group c holds
    columns c, c + G, c + 2G, ..., so the group maxima are one elementwise
    max over g strided slices. The row's k-th largest group maximum is at
    most its k-th largest score, since the k largest group maxima are k
    distinct entries. So every score at or above the k-th, ties included,
    lies in a group whose maximum reaches that bound, or among the < g tail
    columns past g * G. Those entries at or above the bound are ranked by
    one lexsort on (row, -score, column), and each row takes its first k.
    A row's entries depend on its own scores alone. Only a NaN (which
    partitions as the largest value and argsorts as the smallest) leaves a
    row fewer than k entries at or above its bound; such a row is
    stable-argsorted whole.
    """
    rows, m = scores.shape
    if not 1 <= k <= m:
        raise ConfigurationError(f"k must lie in [1, {m}], got {k}")
    scores = np.ascontiguousarray(scores)
    slices = math.isqrt(m // k)
    width = m // slices
    head = slices * width
    maxima = scores[:, :head].reshape(rows, slices, width).max(axis=1)
    # a fancy index copies the bound column, so the partitioned array is freed at once
    bound = np.partition(maxima, width - k, axis=1)[:, [width - k]]
    # a NaN maximum keeps its group, whose other entries may still rank
    hit_rows, groups = np.nonzero(~(maxima < bound))
    del maxima
    flat = (m * hit_rows + groups)[:, None] + np.arange(0, head, width)
    flat = flat[scores.take(flat) >= bound[hit_rows]]
    tail_rows, tail = np.nonzero(scores[:, head:] >= bound)
    flat = np.concatenate([flat, m * tail_rows + head + tail])
    row, col = np.divmod(flat, m)
    ranked = col[np.lexsort((col, -scores.take(flat), row))]
    counts = np.bincount(row, minlength=rows)
    out = np.empty((rows, k), dtype=np.intp)
    full = counts >= k
    out[full] = ranked[(np.cumsum(counts) - counts)[full, None] + np.arange(k)]
    short = np.flatnonzero(~full)
    out[short] = np.argsort(-scores[short], axis=1, kind="stable")[:, :k]
    return out


def top_k_others(scores: np.ndarray, start: int, k: int) -> np.ndarray:
    """`top_k` of a block of a bank's scores against itself, each row's own column left out.

    Row i of the block is bank row start + i. Its own score is -inf while
    the top k are taken, so it never ranks as its own neighbour, and is put
    back after, so the block leaves as it came.
    """
    rows = np.arange(len(scores))
    own = scores[rows, start + rows]
    scores[rows, start + rows] = -np.inf
    top = top_k(scores, k)
    scores[rows, start + rows] = own
    return top


def _block_entropies(scores: np.ndarray, tau: float, out: np.ndarray) -> None:
    """Write the consistency entropy of every row of a score block into `out`.

    In log space, no probability formed: with s = (z - max z) / tau, e = exp(s)
    and Z = sum e, H = log Z - sum(e s) / Z. As s <= 0, Z >= 1, and an e that
    underflows to 0 adds 0, as 0 log 0 = 0 asks. s overwrites the block, and
    e is taken _EXP_ROWS rows at a time into one small buffer; each row's bits
    do not depend on how many rows a slice holds.
    """
    scores -= scores.max(axis=1, keepdims=True)
    scores /= tau
    buf = np.empty((_EXP_ROWS, scores.shape[1]))
    for i in range(0, len(scores), _EXP_ROWS):
        s = scores[i:i + _EXP_ROWS]
        e = np.exp(s, out=buf[:len(s)])
        z = e.sum(axis=1)
        out[i:i + len(s)] = np.log(z) - np.einsum("ij,ij->i", e, s) / z


def bank_pass(
    bank: FeatureBank, k: int, tau: float | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(members, entropies) of every bank row, from one pass of the bank against itself.

    members is (n, k+1) int64: row i is anchor i, then the k other rows with
    the largest inner products against it (k outside [0, n - 1] is a
    ConfigurationError). entropies is each row's consistency entropy at
    temperature tau, or None without tau. Each block of scores gives its
    top k (`top_k_others`), then its entropies in place (`_block_entropies`):
    O(n^2 d) work, O(ROW_BLOCK * n) scores in flight. k = 0 without tau
    makes no pass.
    """
    n = bank.n
    if not 0 <= k <= n - 1:
        raise ConfigurationError(f"k must lie in [0, {n - 1}], got {k}")
    members = np.empty((n, k + 1), dtype=np.int64)
    members[:, 0] = np.arange(n)  # the anchor joins explicitly, not via search
    entropies = None if tau is None else np.empty(n)

    def block(start, scores):
        stop = start + len(scores)
        if k:
            members[start:stop, 1:] = top_k_others(scores, start, k)
        if entropies is not None:
            _block_entropies(scores, tau, entropies[start:stop])

    if k or entropies is not None:
        row_blocks(bank.features, bank.features, block)
    return members, entropies


def build_neighbourhoods(bank: FeatureBank, k: int) -> np.ndarray:
    """Exact top-k cosine member array, shape (n, k+1), for every bank row (`bank_pass`)."""
    return bank_pass(bank, k)[0]
