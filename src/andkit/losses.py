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

The batch loss works in log space: with scores s = (x / tau) . M,
e = exp(s - max s), Z = sum e and t the softmax of the member scores,

    loss = log Z + max s - logsumexp(s[members])
    grad = ((e . M) / Z - sum_j t_j m_j) / (tau * b).

It never normalises the softmax, and it stays finite where p underflows
at a small tau (Z >= 1, as is the member sum taken from its maximum).
e . M is summed over fixed 256-row bank panels in order: faster at one
BLAS thread than one call (b = 128, d = 16, N = 5000: 0.86 -> 0.66 ms),
and its bits ignore the BLAS thread count. The score product's bits follow
it at some bank sizes (OpenBLAS 0.3.31, AVX-512 Xeon: N = 513, 999, 2500;
not 400, 5000, 20000), and trained bytes with them.

The loss runs in the calling thread, bound by its exp, not memory: on a
2-vCPU EPYC its rows split over two threads took 0.93 against 1.12 ms
(b = 128, N = 5000) but lost at N = 1500, so ROADMAP parks the split.

Member sets are rows of an int array, anchor first (see `affinity`). The
per-sample terms, `instance_term` and `neighbourhood_term` (which reject a
repeated index), are the batch loss's oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .memory import FeatureBank


def round_batch_loss(feats, members, bank: FeatureBank, tau: float) -> tuple[float, np.ndarray]:
    """Mean neighbourhood loss over a batch and gradients of that mean.

    Row b of `feats` is the fresh feature of a sample whose member set is
    row b of the (b, m) int array `members`; a repeated index counts once,
    so an instance row is its anchor alone or padded with copies of it.
    Row b of the returned gradient matrix is d(mean loss)/d(feats[b]),
    ready to feed straight into the encoder backward pass.

    The batch runs in log space (module notes) in one new float64 (b, N)
    array, the scores and then their shifted exps.
    """
    feats = np.asarray(feats, dtype=np.float64)
    members = np.asarray(members, dtype=np.int64)
    b = feats.shape[0]
    if members.ndim != 2 or members.shape[0] != b:
        raise ContractError(f"member array shape {members.shape} does not fit {b} features")
    e = (feats / tau) @ bank.features.T
    # sorted, a repeated index follows its first copy and scores -inf, so it counts once
    ms = np.sort(members, axis=1)
    t = np.take_along_axis(e, ms, axis=1)
    t[:, 1:][ms[:, 1:] == ms[:, :-1]] = -np.inf
    mm = t.max(axis=1)
    t = np.exp(t - mm[:, None])
    msum = t.sum(axis=1)
    shift = e.max(axis=1)
    e -= shift[:, None]
    np.exp(e, out=e)
    z = e.sum(axis=1)
    losses = (shift + np.log(z)) - (mm + np.log(msum))
    # e @ M over fixed 256-row bank panels, summed in order (module notes)
    em = sum(e[:, c:c + 256] @ bank.features[c:c + 256] for c in range(0, bank.n, 256))
    tm = np.einsum("bj,bjd->bd", t / msum[:, None], bank.features[ms])
    return float(losses.mean()), (em / z[:, None] - tm) / (tau * b)
