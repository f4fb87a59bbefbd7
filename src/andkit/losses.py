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

Member sets are rows of an int array, anchor first (see `affinity`). The
batch loss counts a repeated index once; the per-sample reference terms
reject repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import prob_row
from .errors import ContractError
from .memory import FeatureBank
from .numerics import stable_softmax


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
    feats, members, bank: FeatureBank, tau: float, *, work=None
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
    z /= tau
    stable_softmax(z, out=p)
    pm = np.take_along_axis(p, members, axis=1)
    # z becomes the dense member-mass row; q is its full-row sum (module notes)
    z.fill(0.0)
    np.put_along_axis(z, members, pm, axis=1)
    q = z.sum(axis=1)
    losses = -np.log(q)
    # p - t is p outside the members; a repeated index writes the same value
    np.put_along_axis(p, members, pm - pm / q[:, None], axis=1)
    grads = p @ bank.features / (tau * b)
    return float(losses.mean()), grads
