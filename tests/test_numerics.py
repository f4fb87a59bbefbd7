import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from andkit import numerics
from andkit.errors import DegenerateInputError
from andkit.numerics import (
    _CHUNK,
    SeededRng,
    derive_seed,
    l2_normalize,
    l2_normalize_rows,
)

from oracles import dense_softmax

finite_vectors = lambda max_len: hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=max_len),
    elements=st.floats(min_value=-50.0, max_value=50.0),
)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_array_equal(l2_normalize([1.0, 0.0]), [1.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize([0.0, 0.0])

    @given(finite_vectors(32))
    def test_idempotent(self, v):
        norm = np.linalg.norm(v)
        if norm <= 1e-6:
            v = v + 1.0  # keep away from the degenerate zone
        once = l2_normalize(v)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-12)
        assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-12)

    def test_rows_variant_flags_bad_row(self):
        with pytest.raises(DegenerateInputError) as err:
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert err.value.row == 1


class TestStableSoftmax:
    """The tests' one softmax (`oracles.dense_softmax`), stable as exp(x - max x) / sum."""

    def test_symmetry(self):
        np.testing.assert_allclose(dense_softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_overflow_guard(self):
        out = dense_softmax([1000.0, 1000.0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)
        assert np.isfinite(out).all()

    def test_direct_evaluation(self):
        # independent oracle: p = (e, 1, e) / (2e + 1)
        e = math.e
        expected = np.array([e, 1.0, e]) / (2 * e + 1)
        np.testing.assert_allclose(dense_softmax([1.0, 0.0, 1.0]), expected, atol=1e-15)

    def test_large_vector_sums_to_one(self):
        logits = SeededRng(3).uniforms(10_000) * 100.0 - 50.0
        assert abs(dense_softmax(logits).sum() - 1.0) <= 1e-12

    @given(finite_vectors(512))
    def test_sums_to_one(self, logits):
        out = dense_softmax(logits)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0.0).all()

    @given(finite_vectors(64), st.floats(min_value=-100.0, max_value=100.0))
    def test_shift_invariance(self, logits, c):
        np.testing.assert_allclose(
            dense_softmax(logits + c), dense_softmax(logits), atol=1e-12
        )

    def test_matrix_rows_are_independent(self):
        m = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        out = dense_softmax(m)
        np.testing.assert_allclose(out[0], dense_softmax(m[0]), atol=1e-15)
        np.testing.assert_allclose(out[1], dense_softmax(m[1]), atol=1e-15)

    def test_matches_dense_form_and_leaves_input_untouched(self):
        for logits in (
            SeededRng(5).normals((7, 300)) * 30.0,
            SeededRng(6).normals(41),
            np.array([[-1000.0, 0.0, 1000.0], [3.0, 3.0, 3.0]]),
        ):
            before = logits.copy()
            out = dense_softmax(logits)
            np.testing.assert_array_equal(logits, before)
            assert not np.shares_memory(out, logits)


class TestSeededRng:
    def test_equal_seeds_equal_streams_one_million(self):
        a, b = SeededRng(12345), SeededRng(12345)
        assert all(a.next_u64() == b.next_u64() for _ in range(1_000_000))

    def test_different_seeds_differ(self):
        a, b = SeededRng(1), SeededRng(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]

    def test_uniform_range(self):
        rng = SeededRng(7)
        draws = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_normals_moments(self):
        z = SeededRng(11).normals(20_000)
        assert np.isfinite(z).all()
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30)
    def test_permutation_is_permutation(self, n, seed):
        perm = SeededRng(seed).permutation(n)
        assert sorted(perm.tolist()) == list(range(n))

    def test_permutation_deterministic(self):
        np.testing.assert_array_equal(SeededRng(5).permutation(50), SeededRng(5).permutation(50))

    def test_known_first_draws(self):
        zero, one = SeededRng(0), SeededRng(1)
        assert [zero.next_u64() for _ in range(4)] == [
            0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD, 0xB3C638353C668C91, 0xE073AFC0949195FC
        ]
        assert [one.next_u64() for _ in range(4)] == [
            0x4B46A55DF3611B9B, 0xD7E1F1410E763EF4, 0x5F14EC66975F9B06, 0x3B2C74FAD44D6CDB
        ]

    def test_known_permutation_and_uniforms(self):
        assert SeededRng(5).permutation(10).tolist() == [5, 8, 9, 4, 7, 3, 6, 0, 2, 1]
        expected = ["0x1.c0e221949f957p-1", "0x1.21438e9f30684p-2", "0x1.6771af89c3526p-1",
                    "0x1.d29171cb55d36p-2"]  # dyadic: (draw >> 11) * 2**-53 is exact
        assert SeededRng(3).uniforms(4).tolist() == [float.fromhex(h) for h in expected]

    def test_derive_seed_streams_distinct(self):
        seeds = {derive_seed(42, s) for s in range(16)}
        assert len(seeds) == 16


MASK64 = (1 << 64) - 1
BULK_SIZES = [0, 1, 2, 3, 7, 8, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]


def twin(rng):
    """A generator in the same state, spare normal included."""
    other = SeededRng(0)
    other._state, other._spare_normal = rng._state, rng._spare_normal
    return other


def scalar_permutation(rng, n):
    """Fisher-Yates on `randbelow`, one draw at a time: the oracle for `permutation`."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def state_before(output):
    """The state whose next `next_u64` returns `output`: finaliser and xorshifts undone."""
    x = output * pow(0x2545F4914F6CDD1D, -1, 2**64) & MASK64
    for shift in (27, -25, 12):  # the state step's xorshifts, last first
        y = x
        for _ in range(64 // abs(shift)):  # fixed point: each pass fixes `shift` more bits
            x = y ^ (x >> shift if shift > 0 else (x << -shift) & MASK64)
    return x


class TestBulkDrawsEqualScalar:
    """`uniforms`, `normals` and `permutation` give the scalar loops' bits and end state."""

    @staticmethod
    def assert_same_state(a, b):
        assert a._state == b._state
        assert a._spare_normal == b._spare_normal

    @pytest.mark.parametrize("n", BULK_SIZES)
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_uniforms(self, seed, n):
        bulk, scalar = SeededRng(seed), SeededRng(seed)
        expected = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        assert bulk.uniforms(n).tobytes() == expected.tobytes()
        self.assert_same_state(bulk, scalar)

    @pytest.mark.parametrize("spare", [False, True])
    @pytest.mark.parametrize("n", BULK_SIZES)
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_normals(self, seed, n, spare):
        bulk = SeededRng(seed)
        if spare:
            bulk.normal()
            assert bulk._spare_normal is not None
        scalar = twin(bulk)
        expected = np.array([scalar.normal() for _ in range(n)], dtype=np.float64)
        assert bulk.normals(n).tobytes() == expected.tobytes()
        self.assert_same_state(bulk, scalar)
        assert (bulk._spare_normal is not None) == ((n - spare) % 2 == 1)

    @pytest.mark.parametrize("n", BULK_SIZES)
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_permutation(self, seed, n):
        bulk, scalar = SeededRng(seed), SeededRng(seed)
        bulk.normal()  # a spare in hand: permutation neither reads nor drops it
        scalar.normal()
        perm = bulk.permutation(n)
        assert perm.dtype == np.int64
        assert perm.tolist() == scalar_permutation(scalar, n)
        self.assert_same_state(bulk, scalar)

    def test_calls_continue_one_stream(self):
        bulk, scalar = SeededRng(7), SeededRng(7)
        got = [bulk.normals((2, 3)), bulk.uniforms(5), bulk.normals(3), bulk.permutation(6)]
        expected = [
            [[scalar.normal() for _ in range(3)] for _ in range(2)],
            [scalar.uniform() for _ in range(5)],
            [scalar.normal() for _ in range(3)],
            scalar_permutation(scalar, 6),
        ]
        assert got[0].shape == (2, 3)
        for g, e in zip(got, expected):
            assert g.tolist() == e
        self.assert_same_state(bulk, scalar)

    def test_rejected_draw_replays_randbelow(self):
        # 2**64 - 1 >= 2**64 - 2**64 % 3, so randbelow(3) rejects it and draws again
        rng = SeededRng(0)
        rng._state = state_before(MASK64)
        assert twin(rng).next_u64() == MASK64
        assert MASK64 >= (1 << 64) - (1 << 64) % 3
        scalar = twin(rng)
        assert rng.permutation(3).tolist() == scalar_permutation(scalar, 3)
        self.assert_same_state(rng, scalar)

    def test_threads_building_the_jump_tables_at_once_agree(self, monkeypatch):
        # in each round the threads start together on an empty table cache, switching often:
        # a table another thread could see half built, or at the wrong span, changes some draws
        n, seeds = 2 * _CHUNK + 3, range(8)
        expected = {}
        for seed in seeds:
            scalar = SeededRng(seed)
            expected[seed] = np.array([scalar.uniform() for _ in range(n)]).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                monkeypatch.setattr(numerics, "_JUMPS", {})
                got, start = {}, threading.Barrier(len(seeds))

                def draw(seed):
                    start.wait(timeout=60)
                    got[seed] = SeededRng(seed).uniforms(n).tobytes()

                threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == expected
        finally:
            sys.setswitchinterval(interval)
