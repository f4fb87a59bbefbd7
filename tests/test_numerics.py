import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from andkit.errors import DegenerateInputError, DimensionError
from andkit.numerics import (
    SeededRng,
    derive_seed,
    l2_normalize,
    l2_normalize_rows,
    stable_softmax,
)

from conftest import dense_softmax

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
    def test_symmetry(self):
        np.testing.assert_allclose(stable_softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_overflow_guard(self):
        out = stable_softmax([1000.0, 1000.0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)
        assert np.isfinite(out).all()

    def test_direct_evaluation(self):
        # independent oracle: p = (e, 1, e) / (2e + 1)
        e = math.e
        expected = np.array([e, 1.0, e]) / (2 * e + 1)
        np.testing.assert_allclose(stable_softmax([1.0, 0.0, 1.0]), expected, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            stable_softmax([])

    def test_large_vector_sums_to_one(self):
        logits = SeededRng(3).uniforms(10_000) * 100.0 - 50.0
        assert abs(stable_softmax(logits).sum() - 1.0) <= 1e-12

    @given(finite_vectors(512))
    def test_sums_to_one(self, logits):
        out = stable_softmax(logits)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0.0).all()

    @given(finite_vectors(64), st.floats(min_value=-100.0, max_value=100.0))
    def test_shift_invariance(self, logits, c):
        np.testing.assert_allclose(
            stable_softmax(logits + c), stable_softmax(logits), atol=1e-12
        )

    def test_matrix_rows_are_independent(self):
        m = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        out = stable_softmax(m)
        np.testing.assert_allclose(out[0], stable_softmax(m[0]), atol=1e-15)
        np.testing.assert_allclose(out[1], stable_softmax(m[1]), atol=1e-15)

    def test_matches_dense_form_and_leaves_input_untouched(self):
        for logits in (
            SeededRng(5).normals((7, 300)) * 30.0,
            SeededRng(6).normals(41),
            np.array([[-1000.0, 0.0, 1000.0], [3.0, 3.0, 3.0]]),
        ):
            before = logits.copy()
            out = stable_softmax(logits)
            np.testing.assert_array_equal(logits, before)
            assert not np.shares_memory(out, logits)
            np.testing.assert_array_equal(out, dense_softmax(logits))


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

    def test_derive_seed_streams_distinct(self):
        seeds = {derive_seed(42, s) for s in range(16)}
        assert len(seeds) == 16
