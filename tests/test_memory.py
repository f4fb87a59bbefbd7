import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andkit.errors import ConfigurationError, ContractError, DimensionError
from andkit.memory import FeatureBank, init_bank, update_batch
from andkit.numerics import SeededRng

from conftest import random_bank, random_unit
from oracles import all_similarities


class TestInitBank:
    def test_rows_unit_norm(self):
        bank = init_bank(4, 8, SeededRng(3))
        np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = init_bank(6, 5, SeededRng(9))
        b = init_bank(6, 5, SeededRng(9))
        np.testing.assert_array_equal(a.features, b.features)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            init_bank(1, 8, SeededRng(0))
        with pytest.raises(ConfigurationError):
            init_bank(8, 1, SeededRng(0))


class TestUpdateBatch:
    def test_hand_ema_value(self):
        # oracle: blend (0.6,0.8) with (1,0) at eta 0.5 -> (0.8,0.4) -> unit (2,1)/sqrt(5)
        bank = FeatureBank(features=np.array([[0.6, 0.8], [0.0, 1.0]]))
        update_batch(bank, [0], np.array([[1.0, 0.0]]), 0.5)
        expected = np.array([2.0, 1.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(bank.features[0], expected, atol=1e-12)
        np.testing.assert_array_equal(bank.features[1], [0.0, 1.0])

    def test_eta_one_replaces_row(self):
        bank = FeatureBank(features=np.array([[0.6, 0.8], [0.0, 1.0]]))
        update_batch(bank, [0], np.array([[1.0, 0.0]]), 1.0)
        np.testing.assert_array_equal(bank.features[0], [1.0, 0.0])

    def test_fixed_point(self):
        bank = random_bank(5, 6, seed=21)
        before = bank.features.copy()
        update_batch(bank, [2], before[[2]], 0.5)
        np.testing.assert_allclose(bank.features[2], before[2], atol=1e-12)

    def test_duplicate_indices_rejected(self):
        bank = random_bank(4, 4, seed=1)
        with pytest.raises(ContractError):
            update_batch(bank, [1, 1], np.eye(4)[:2], 0.5)

    def test_out_of_range_rejected(self):
        bank = random_bank(4, 4, seed=1)
        with pytest.raises(IndexError):
            update_batch(bank, [7], np.eye(4)[:1], 0.5)

    def test_row_count_mismatch_rejected(self):
        bank = random_bank(4, 4, seed=1)
        with pytest.raises(ContractError):
            update_batch(bank, [0, 1], np.eye(4)[:3], 0.5)

    def test_disjoint_updates_commute(self):
        fresh = SeededRng(8).normals((4, 6))
        fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
        a = random_bank(8, 6, seed=5)
        b = random_bank(8, 6, seed=5)
        update_batch(a, [0, 1], fresh[:2], 0.5)
        update_batch(a, [4, 5], fresh[2:], 0.5)
        update_batch(b, [4, 5], fresh[2:], 0.5)
        update_batch(b, [0, 1], fresh[:2], 0.5)
        np.testing.assert_array_equal(a.features, b.features)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_rows_stay_unit_norm(self, seed):
        rng = SeededRng(seed)
        bank = init_bank(6, 4, rng)
        for _ in range(20):
            fresh = rng.normals((3, 4))
            fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
            update_batch(bank, [0, 2, 5], fresh, 0.5)
        np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0, atol=1e-9)


class TestAllSimilarities:
    def test_self_row_scores_one(self):
        bank = random_bank(5, 7, seed=2)
        sims = all_similarities(bank, bank.features[0])
        assert sims[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_query(self):
        bank = FeatureBank(features=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(all_similarities(bank, [0.0, 0.0, 1.0]), [0.0, 0.0])

    def test_matches_per_row_dot_loop(self):
        bank = random_bank(9, 5, seed=13)
        query = random_unit(5, seed=14)
        oracle = np.array([float(np.dot(row, query)) for row in bank.features])
        np.testing.assert_allclose(all_similarities(bank, query), oracle, atol=1e-15)
        assert (np.abs(oracle) <= 1.0 + 1e-9).all()

    def test_dimension_mismatch_rejected(self):
        bank = random_bank(4, 5, seed=3)
        with pytest.raises(DimensionError):
            all_similarities(bank, np.ones(4))
