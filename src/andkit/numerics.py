"""Dense float64 primitives and a portable deterministic RNG.

Package code takes row norms (`row_norms`), normalises (`l2_normalize`, `l2_normalize_rows`),
takes softmaxes (`stable_softmax`) and draws random numbers (`SeededRng`)
only through this module. All are float64 in, float64 out.
Vectors are plain 1-D ``numpy.ndarray`` values and matrices are row-major
2-D arrays; no wrapper classes.

The RNG is xorshift64* (Marsaglia's 64-bit xorshift with a multiplicative
finaliser), seeded through one splitmix64 mixing step. The algorithm is
fixed on purpose: identical seeds must reproduce identical streams on every
platform, which is the bedrock of the reproducibility guarantees elsewhere
in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DimensionError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

NORM_EPS = 1e-12


def splitmix64(x: int) -> int:
    """One splitmix64 step: a cheap, well-distributed 64-bit mixer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Derive an independent child seed for a numbered stream.

    Used to split one user-facing seed into decoupled streams (weights,
    memory init, batch shuffling) without correlated sequences.
    """
    return splitmix64((seed & _MASK64) ^ splitmix64(stream & _MASK64))


class SeededRng:
    """Deterministic xorshift64* generator.

    State transition (all mod 2**64):

        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27

    with output ``x * 2685821657736338717``. The seed passes through
    splitmix64 once so that small consecutive seeds still give unrelated
    streams; a zero state is remapped because xorshift fixes zero.

    A generator instance is single-owner: callers that want parallel
    streams must derive independent seeds (see `derive_seed`).
    """

    __slots__ = ("_state", "_spare_normal")

    def __init__(self, seed: int):
        state = splitmix64(seed & _MASK64)
        self._state = state if state != 0 else _GOLDEN
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """One double in [0, 1) built from the top 53 bits of a draw."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, shape) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.size):
            out[i] = self.uniform()
        return out.reshape(shape)

    def normal(self) -> float:
        """Standard normal draw via Box-Muller, with the spare cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # in (0, 1], log-safe
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def normals(self, shape) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.size):
            out[i] = self.normal()
        return out.reshape(shape)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to kill modulo bias."""
        if n <= 0:
            raise ConfigurationError(f"randbelow needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of 0..n-1."""
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def l2_normalize(v) -> np.ndarray:
    """Rescale a vector to unit L2 norm, preserving direction.

    Raises `DegenerateInputError` when the norm is at or below 1e-12;
    silently fudging near-zero vectors would corrupt downstream cosine
    similarities and gradient checks.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = math.sqrt(float(np.dot(v, v)))
    if not norm > NORM_EPS:
        raise DegenerateInputError(f"cannot normalize a vector with norm {norm:.3e}")
    return v / norm


def row_norms(mat, what: str = "row") -> np.ndarray:
    """Per-row L2 norms; a `what` with norm <= 1e-12 or NaN is a DegenerateInputError, `.row` set."""
    m = np.asarray(mat, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    bad = np.flatnonzero(~(norms > NORM_EPS))
    if bad.size:
        err = DegenerateInputError(f"{what} {int(bad[0])} has norm {norms[bad[0]]:.3e}")
        err.row = int(bad[0])
        raise err
    return norms


def l2_normalize_rows(mat) -> np.ndarray:
    """Normalize each row of a matrix to unit L2 norm; `row_norms` rejects degenerate rows."""
    m = np.asarray(mat, dtype=np.float64)
    return m / row_norms(m)[:, None]


def stable_softmax(logits, out=None) -> np.ndarray:
    """Softmax computed as exp(x - max(x)) / sum, immune to overflow.

    Accepts a vector or a matrix; matrix rows are independent
    distributions. Output entries are non-negative and each distribution
    sums to 1 up to float64 rounding. The shifted logits are exponentiated
    and normalised in place, so the one output array is the only
    full-size allocation; the input array is left untouched unless it is
    `out`. With `out` (float64, the logits' shape) nothing full-size is
    allocated.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise DimensionError("softmax of an empty vector")
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e
