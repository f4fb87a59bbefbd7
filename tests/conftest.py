import tracemalloc

import numpy as np

from andkit.memory import FeatureBank
from andkit.numerics import SeededRng, l2_normalize_rows
from andkit.pipeline import RoundPlan


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


def three_row_bank():
    return FeatureBank(features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def make_plan(selected_idx, members):
    """A round plan that selects the anchors in `selected_idx`, with these member rows."""
    n = len(members)
    mask = np.zeros(n, dtype=bool)
    mask[list(selected_idx)] = True
    return RoundPlan(entropies=np.zeros(n), selected=mask, members=np.asarray(members))


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


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
