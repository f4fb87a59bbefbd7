"""Dense float64 primitives and a portable deterministic RNG.

Package code takes row norms (`row_norms`), normalises (`l2_normalize`, `l2_normalize_rows`),
takes softmaxes (`stable_softmax`) and draws random numbers (`SeededRng`)
only through this module. All are float64 in, float64 out.
Vectors are plain 1-D ``numpy.ndarray`` values and matrices are row-major
2-D arrays; no wrapper classes.

The RNG is xorshift64* (Marsaglia's 64-bit xorshift with a multiplicative
finaliser), seeded through one splitmix64 mixing step. The algorithm is
fixed on purpose, the bedrock of the reproducibility guarantees elsewhere
in the package: from one seed, the integer draws (`next_u64`, `randbelow`,
`permutation`) and the uniforms (`uniform`, `uniforms`: the top 53 bits of
a draw, scaled exactly) are the same on every platform. The normals
(`normal`, `normals`) take log, cos and sin from the platform's libm, which
is not correctly rounded, so their last bits follow it, and so do the data
`generate_blobs` draws and the initial memory bank (`memory.init_bank`):
equal from run to run on one platform, not promised across two. The bulk
draws jump the stream ahead in numpy, through byte tables of the state
step's powers, and keep the scalar loops' bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DimensionError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

NORM_EPS = 1e-12

_CHUNK = 8192  # draws per numpy pass (a power of two)
_JUMPS: dict[int, np.ndarray] = {}


def _apply(table, x) -> np.ndarray:
    """A GF(2)-linear map of each uint64 in `x`: the XOR over bytes b of table[b, byte b]."""
    idx = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = table[0].take(idx[:, 0])  # eight 1-D gathers run 3-6x faster than one (m, 8) gather
    for b in range(1, 8):
        out ^= table[b].take(idx[:, b])
    return out


def _jump_table(span: int) -> np.ndarray:
    """T^span, T the state step and span a power of two, as an (8, 256) table for `_apply`."""
    if span not in _JUMPS:
        if span > 1:
            half = _jump_table(span // 2)
            cols = _apply(half, half[:, 1 << np.arange(8)].ravel())  # M(M(e_i))
        else:  # T on the unit vectors
            cols = np.uint64(1) << np.arange(64, dtype=np.uint64)
            cols ^= cols >> np.uint64(12)
            cols ^= cols << np.uint64(25)
            cols ^= cols >> np.uint64(27)
        table = np.zeros((8, 256), dtype=np.uint64)  # row b: the images of the byte values at b
        for bit in range(8):
            table[:, 1 << bit : 2 << bit] = table[:, : 1 << bit] ^ cols[bit::8, None]
        _JUMPS.setdefault(span, table)  # built once a process; racing builders store equal tables
    return _JUMPS[span]


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

    The scalar methods define the stream; the bulk ones give its bits, state and
    spare normal too: T, the state step, is linear over GF(2) (Vigna, arXiv
    1402.6246), so `_draws` sets x_(t+2^j) = T^(2^j) x_t from tables of T's powers.
    `normals` takes log, cos and sin from libm (`math`): numpy's log can differ.
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

    def _draws(self, count: int) -> np.ndarray:
        """The next `count` `next_u64` outputs as uint64, the state advanced past them."""
        x = np.empty(count + 1, dtype=np.uint64)
        x[0], n = self._state, 1
        while n <= count:
            span = min(n, _CHUNK)  # double, then step a chunk at a time
            x[n : n + span] = _apply(_jump_table(span), x[n - span : n][: count + 1 - n])
            n += span
        self._state = int(x[-1])
        return x[1:] * np.uint64(0x2545F4914F6CDD1D)

    def uniforms(self, shape) -> np.ndarray:
        return ((self._draws(int(np.prod(shape))) >> np.uint64(11)) * 2.0**-53).reshape(shape)

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
        start = int(out.size > 0 and self._spare_normal is not None)
        if start:
            out[0], self._spare_normal = self._spare_normal, None
        for lo in range(start, out.size, _CHUNK):  # _CHUNK // 2 pairs a pass: no full-size temporary
            pairs = min(_CHUNK // 2, (out.size - lo + 1) // 2)
            draws = self._draws(2 * pairs)
            u1 = ((draws[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
            theta = (2.0 * math.pi * ((draws[1::2] >> np.uint64(11)) * 2.0**-53)).tolist()
            radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
            out[lo : lo + 2 * pairs : 2] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)
            sines = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)
            out[lo + 1 : lo + 2 * pairs : 2] = sines[: (out.size - lo) // 2]
            self._spare_normal = float(sines[-1]) if lo + 2 * pairs > out.size else None
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
        """Fisher-Yates shuffle of 0..n-1, swap i taking j = randbelow(i + 1)."""
        state, sizes = self._state, np.arange(n, 1, -1, dtype=np.uint64)
        draws = self._draws(sizes.size)  # rejected where d >= 2**64 - 2**64 % m: d + 2**64 % m wraps
        picks = (draws % sizes).tolist()
        if (draws + -sizes % sizes < draws).any():  # p < n / 2**64: replay randbelow's loop
            self._state = state
            picks = [self.randbelow(i + 1) for i in range(n - 1, 0, -1)]
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


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
