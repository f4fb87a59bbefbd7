import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andkit.affinity import build_neighbourhoods
from andkit.errors import ContractError
from andkit.losses import round_batch_loss
from andkit.memory import FeatureBank
from andkit.numerics import SeededRng

from conftest import (
    finite_difference,
    make_plan,
    max_rel_error,
    random_bank,
    random_unit,
    three_row_bank,
    traced_peak,
)
from oracles import dense_batch_loss, instance_term, neighbourhood_term


def plan_batch_loss(batch, plan, bank, tau):
    """round_batch_loss over (index, feature) pairs, member rows taken from the plan."""
    indices = [i for i, _ in batch]
    feats = np.stack([f for _, f in batch])
    return round_batch_loss(feats, plan.batch_members(indices), bank, tau)


class TestInstanceTerm:
    def test_two_identical_rows(self):
        bank = FeatureBank(features=np.array([[1.0, 0.0], [1.0, 0.0]]))
        term = instance_term(0, np.array([1.0, 0.0]), bank, tau=1.0)
        assert term.loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_direct_evaluation(self):
        # oracle: -log(e / (2e+1))
        term = instance_term(0, np.array([1.0, 0.0]), three_row_bank(), tau=1.0)
        assert term.loss == pytest.approx(-math.log(math.e / (2 * math.e + 1)), abs=1e-12)
        assert term.loss == pytest.approx(0.8619948040582511, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        for trial in range(20):
            bank = random_bank(8, 5, seed=100 + trial)
            x = random_unit(5, seed=200 + trial)
            i = trial % 8
            term = instance_term(i, x, bank, tau=0.07 if trial % 2 else 1.0)
            fd = finite_difference(
                lambda v: instance_term(i, v, bank, tau=0.07 if trial % 2 else 1.0).loss, x
            )
            assert max_rel_error(term.grad, fd) < 1e-6


class TestNeighbourhoodTerm:
    def test_singleton_equals_instance_bitwise(self):
        bank = random_bank(6, 4, seed=9)
        x = random_unit(4, seed=10)
        inst = instance_term(2, x, bank, tau=0.07)
        nb = neighbourhood_term(2, x, (2,), bank, tau=0.07)
        assert nb.loss == inst.loss
        np.testing.assert_array_equal(nb.grad, inst.grad)

    def test_direct_evaluation(self):
        # oracle: -log(2e / (2e+1))
        term = neighbourhood_term(0, np.array([1.0, 0.0]), (0, 2), three_row_bank(), tau=1.0)
        assert term.loss == pytest.approx(-math.log(2 * math.e / (2 * math.e + 1)), abs=1e-12)
        assert term.loss == pytest.approx(0.1688476234983058, abs=1e-12)

    def test_all_members_gives_zero(self):
        bank = random_bank(5, 4, seed=3)
        term = neighbourhood_term(1, random_unit(4, seed=4), (1, 0, 2, 3, 4), bank, tau=0.07)
        assert abs(term.loss) <= 1e-12
        np.testing.assert_allclose(term.grad, 0.0, atol=1e-12)

    def test_anchor_mismatch_rejected(self):
        bank = random_bank(4, 4, seed=1)
        with pytest.raises(ContractError):
            neighbourhood_term(0, bank.features[0], (1,), bank, tau=0.07)

    def test_gradient_matches_finite_differences(self):
        for trial in range(20):
            bank = random_bank(9, 5, seed=300 + trial)
            nbs = build_neighbourhoods(bank, k=2)
            i = trial % 9
            x = random_unit(5, seed=400 + trial)
            tau = 0.07 if trial % 2 else 1.0
            term = neighbourhood_term(i, x, nbs[i], bank, tau)
            fd = finite_difference(lambda v: neighbourhood_term(i, v, nbs[i], bank, tau).loss, x)
            assert max_rel_error(term.grad, fd) < 1e-6

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_instance_loss(self, seed):
        bank = random_bank(7, 4, seed=seed)
        nbs = build_neighbourhoods(bank, k=2)
        x = random_unit(4, seed + 1)
        for i in range(7):
            inst = instance_term(i, x, bank, tau=0.07)
            nb = neighbourhood_term(i, x, nbs[i], bank, tau=0.07)
            assert nb.loss <= inst.loss + 1e-15
            assert nb.loss >= 0.0 and inst.loss >= 0.0


class TestRoundBatchLoss:
    def test_all_unselected_is_mean_instance_loss(self):
        bank = random_bank(6, 4, seed=20)
        plan = make_plan([], build_neighbourhoods(bank, k=2))
        batch = [(i, random_unit(4, seed=i + 50)) for i in range(4)]
        loss, grads = plan_batch_loss(batch, plan, bank, tau=0.07)
        oracle = [instance_term(i, f, bank, 0.07) for i, f in batch]
        assert loss == pytest.approx(np.mean([t.loss for t in oracle]), abs=1e-12)
        for row, term in zip(grads, oracle):
            np.testing.assert_allclose(row, term.grad / len(batch), atol=1e-12)

    def test_all_selected_singletons_is_mean_instance_loss(self):
        bank = random_bank(5, 4, seed=21)
        plan = make_plan(range(5), build_neighbourhoods(bank, k=0))
        batch = [(i, random_unit(4, seed=i + 60)) for i in range(5)]
        loss, _ = plan_batch_loss(batch, plan, bank, tau=0.07)
        oracle = np.mean([instance_term(i, f, bank, 0.07).loss for i, f in batch])
        assert loss == pytest.approx(oracle, abs=1e-12)

    def test_mixed_pair_is_arithmetic_mean(self):
        bank = random_bank(6, 4, seed=22)
        nbs = build_neighbourhoods(bank, k=2)
        plan = make_plan([1], nbs)
        x0, x1 = random_unit(4, seed=70), random_unit(4, seed=71)
        loss, grads = plan_batch_loss([(0, x0), (1, x1)], plan, bank, tau=0.07)
        t0 = instance_term(0, x0, bank, 0.07)
        t1 = neighbourhood_term(1, x1, nbs[1], bank, 0.07)
        assert loss == pytest.approx((t0.loss + t1.loss) / 2.0, abs=1e-12)
        np.testing.assert_allclose(grads[0], t0.grad / 2.0, atol=1e-12)
        np.testing.assert_allclose(grads[1], t1.grad / 2.0, atol=1e-12)

    def test_order_invariance(self):
        bank = random_bank(6, 4, seed=23)
        nbs = build_neighbourhoods(bank, k=1)
        plan = make_plan([0, 3], nbs)
        batch = [(i, random_unit(4, seed=i + 80)) for i in range(5)]
        loss_fwd, _ = plan_batch_loss(batch, plan, bank, tau=0.07)
        loss_rev, _ = plan_batch_loss(batch[::-1], plan, bank, tau=0.07)
        assert loss_fwd == pytest.approx(loss_rev, abs=1e-12)

    def test_repeated_index_counts_once(self):
        bank = random_bank(6, 4, seed=26)
        x = random_unit(4, seed=90)
        loss, grads = round_batch_loss(x[None], [[2, 2, 5]], bank, tau=0.07)
        oracle = neighbourhood_term(2, x, (2, 5), bank, 0.07)
        assert loss == pytest.approx(oracle.loss, abs=1e-12)
        np.testing.assert_allclose(grads[0], oracle.grad, atol=1e-12)
        # an instance row padded with its anchor is the instance term
        loss, _ = round_batch_loss(x[None], [[3, 3, 3]], bank, tau=0.07)
        assert loss == pytest.approx(instance_term(3, x, bank, 0.07).loss, abs=1e-12)

    @pytest.mark.parametrize("tau", [1e-3, 2e-3, 0.07])
    def test_gradient_matches_finite_differences(self, tau):
        # at tau 1e-3 most member rows hold a softmax mass that underflows to 0
        for trial in range(10):
            bank = random_bank(9, 5, seed=500 + trial)
            members = build_neighbourhoods(bank, k=2)
            members[::2, 1:] = members[::2, :1]  # instance rows, padded with their anchor
            feats = random_bank(9, 5, seed=600 + trial).features
            loss, grads = round_batch_loss(feats, members, bank, tau)
            assert math.isfinite(loss)
            fd = finite_difference(lambda v: round_batch_loss(v, members, bank, tau)[0], feats)
            assert max_rel_error(grads, fd) < 1e-6

    def test_index_missing_from_plan_rejected(self):
        plan = make_plan([], np.arange(2)[:, None])  # plan only covers samples 0..1
        with pytest.raises(ContractError):
            plan.batch_members([3])


class TestRoundBatchLossLean:
    """The log-space batch loss against its dense whole-batch reference, and its memory."""

    @pytest.mark.parametrize("tau", [0.07, 1.0])
    @pytest.mark.parametrize("b", [1, 7, 128])
    @pytest.mark.parametrize("k", [0, 5])
    def test_matches_dense_target_bit_for_bit(self, b, k, tau):
        bank = random_bank(300, 8, seed=30 + b)
        plan = make_plan(range(0, 300, 2), build_neighbourhoods(bank, k=k))
        batch = SeededRng(b).permutation(300)[:b]
        members = plan.batch_members(batch)  # odd anchors collapse to their anchor
        members[::3, -1] = members[::3, 0]  # and some selected rows repeat an index
        feats = random_bank(b, 8, seed=40 + b).features
        loss, grads = round_batch_loss(feats, members, bank, tau)
        oracle_loss, oracle_grads = dense_batch_loss(feats, members, bank, tau)
        assert loss == oracle_loss
        np.testing.assert_array_equal(grads, oracle_grads)

    @pytest.mark.parametrize("b", [128, 37])  # a full batch and a short last one
    def test_padded_instance_rows_match_dense_target(self, b):
        bank = random_bank(300, 8, seed=72)
        feats = random_bank(b, 8, seed=73).features
        members = (np.arange(b)[:, None] * 7 + np.arange(5)) % 300
        members[::4, 1:] = members[::4, :1]  # instance rows, padded with their anchor
        loss, grads = round_batch_loss(feats, members, bank, 0.07)
        oracle_loss, oracle_grads = dense_batch_loss(feats, members, bank, 0.07)
        assert loss == oracle_loss
        np.testing.assert_array_equal(grads, oracle_grads)

    def test_peak_memory_is_one_score_matrix(self):
        n, b = 4000, 128
        bank = random_bank(n, 16, seed=31)
        feats = bank.features[:b].copy()
        members = np.arange(b * 11).reshape(b, 11)
        peak = traced_peak(round_batch_loss, feats, members, bank, 0.07)
        assert peak < 1.5 * 8 * b * n, f"peak {peak / (8 * b * n):.2f} x 8bN bytes"
