import tracemalloc

import numpy as np

from andkit.memory import FeatureBank
from andkit.numerics import SeededRng, l2_normalize, l2_normalize_rows


def finite_difference(f, x, step=1e-6):
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric):
    """Elementwise |a - n| / max(1, |a|, |n|), reduced to the worst entry."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def random_unit(d, seed):
    v = SeededRng(seed).normals(d)
    return v / np.linalg.norm(v)


def random_bank(n, d, seed):
    return FeatureBank(features=l2_normalize_rows(SeededRng(seed).normals((n, d))))


def dyadic_matrix(n, d, seed):
    """Rows with entries in {-1, -1/2, 0, 1/2, 1}; row 4j+1 repeats row 4j.

    Inner products of such rows are sums of a few multiples of 1/4, which
    float64 holds exactly, so a product computed in row blocks equals the
    full product bit for bit on any BLAS. The repeated rows and the few
    distinct scores give many ties.
    """
    values = np.floor(SeededRng(seed).uniforms((n, d)) * 5) / 2 - 1
    copies = values[1::4]
    copies[:] = values[0::4][: len(copies)]
    return values


# Dense reference kernels: the plain form that `numerics.stable_softmax` had
# before its temporaries were cut, `losses.round_batch_loss` without its
# in-place passes, `pipeline.bank_entropies` without its row blocks and
# MIN_ROWS-row slices, and `data.generate_blobs` before its per-sample loop
# became one draw. The production code must match them bit for bit.


def dense_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
