"""Instance and neighbourhood supervision losses with exact gradients.

Both losses score a fresh, unit-norm batch feature x against the frozen
memory bank M (rows m_j) through the shared distribution

    p_j = softmax_j( (x . m_j) / tau ).

The instance loss is -log p_i (the anchor's own memory row is the target);
the neighbourhood loss is -log sum_{j in members} p_j. The instance case
is literally the neighbourhood case with the singleton member set {i}, and
the implementation shares one code path so the reduction is exact to the
last bit.

Gradients are taken with respect to x only, holding memory rows constant:
the memory is refreshed by its own moving-average rule, not by
backpropagation. Writing q = sum_{members} p_j and t_j = p_j / q for
members (0 otherwise),

    d(-log q)/dx = (1/tau) * sum_j (p_j - t_j) * m_j,

which the tests validate against central finite differences.

The batch loss builds no dense target: t is zero outside the members, so
p - t differs from p only at the member columns. It scatters p_j - p_j / q
into those columns of p and multiplies by M. q is the sum of a dense row
that holds p_j at the members and 0 elsewhere, not a sum over the member
columns alone: numpy sums a full row pairwise, and that order fixes the
last bits of q and of every checkpoint trained through it.

Everything between the two products (scores, then gradients) is row by row,
so `train` runs it in one contiguous span of rows per CPU in the affinity
mask, on `affinity.Workers` threads it starts once a run. The products stay
single calls over the whole batch: OpenBLAS rounds a product of 128 rows
differently from the same rows cut into shorter calls where the bank's row
count is not a multiple of 8, so a split product would make the bits depend
on the CPU count.

Member sets are rows of an int array, anchor first (see `affinity`). The
batch loss counts a repeated index once; the per-sample reference terms
reject repeats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .affinity import MIN_ROWS, Workers, prob_row, worker_spans
from .errors import ContractError
from .memory import FeatureBank
from .numerics import stable_softmax

# fewest scores (rows x bank rows) in a span of the batch loss: below it the
# hand-off to a helper thread costs more than the span saves. Per batch at
# b = 128, d = 16, k = 10 (one BLAS thread, 2 vCPU), inline against split in
# two: N = 400 0.61 vs 0.83 ms, 800 1.16 vs 1.25, 1000 1.41 vs 1.40, 1600 2.14
# vs 2.00, 5000 5.49 vs 4.38; in spells where the two vCPUs did not run at once
# the split lost 5-10% at every size
SPLIT_SCORES = 70_000


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


def round_batch_loss(
    feats, members, bank: FeatureBank, tau: float, *, work=None, workers: Workers | None = None
) -> tuple[float, np.ndarray]:
    """Mean neighbourhood loss over a batch and gradients of that mean.

    Row b of `feats` is the fresh feature of a sample whose member set is
    row b of the (b, m) int array `members`; a repeated index counts once,
    so an instance row is its anchor alone or padded with copies of it.
    Row b of the returned gradient matrix is d(mean loss)/d(feats[b]),
    ready to feed straight into the encoder backward pass.

    The whole batch is evaluated in one vectorised pass over two (b, N)
    arrays, the scores and the softmax: the two halves of `work`, a
    float64 (2, b, N) buffer that a caller running many batches allocates
    once (`train` holds one per round); without it they are allocated
    here. The scores are reused as the dense member-mass row, and q is
    that row's full sum, because a sum over the member columns alone would
    round differently. The gradient is scattered into the softmax at the
    member columns only (see the module notes). The per-sample term
    functions above serve as its reference oracle in the tests.

    With `workers`, everything between the two products runs in contiguous
    spans of rows, one per CPU in the affinity mask, where each span holds
    at least MIN_ROWS rows and SPLIT_SCORES scores; the products stay whole.
    """
    feats = np.asarray(feats, dtype=np.float64)
    members = np.asarray(members, dtype=np.int64)
    b = feats.shape[0]
    if members.ndim != 2 or members.shape[0] != b:
        raise ContractError(f"member array shape {members.shape} does not fit {b} features")
    if work is None:
        work = np.empty((2, b, bank.n))
    elif work.shape != (2, b, bank.n):
        raise ContractError(f"work buffer shape {work.shape} is not {(2, b, bank.n)}")
    z, p = work
    np.matmul(feats, bank.features.T, out=z)
    q = np.empty(b)

    def rows(lo: int, hi: int) -> None:
        zs, ps, ms = z[lo:hi], p[lo:hi], members[lo:hi]
        zs /= tau
        stable_softmax(zs, out=ps)
        pm = np.take_along_axis(ps, ms, axis=1)
        # zs becomes the dense member-mass row; q is its full-row sum (module notes)
        zs.fill(0.0)
        np.put_along_axis(zs, ms, pm, axis=1)
        zs.sum(axis=1, out=q[lo:hi])
        # p - t is p outside the members; a repeated index writes the same value
        np.put_along_axis(ps, ms, pm - pm / q[lo:hi, None], axis=1)

    most = min(b // MIN_ROWS, b * bank.n // SPLIT_SCORES)
    if workers is None or most < 2:
        rows(0, b)
    else:
        workers.run([functools.partial(rows, lo, hi) for lo, hi in worker_spans(b, most)])
    losses = -np.log(q)
    grads = p @ bank.features / (tau * b)
    return float(losses.mean()), grads
