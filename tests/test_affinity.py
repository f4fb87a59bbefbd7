import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andkit.affinity import ROW_BLOCK, build_neighbourhoods, top_k
from andkit.errors import ConfigurationError, ContractError
from andkit.evaluation import knn_predict_batch
from andkit.memory import FeatureBank
from andkit.numerics import SeededRng

from conftest import dyadic_matrix, random_bank, random_unit, three_row_bank, traced_peak
from oracles import dense_softmax, entropy, neighbourhood_term, prob_row


class TestProbRow:
    def test_two_identical_rows_split_evenly(self):
        bank = FeatureBank(features=np.array([[1.0, 0.0], [1.0, 0.0]]))
        for tau in (0.05, 0.07, 1.0):
            np.testing.assert_allclose(
                prob_row([1.0, 0.0], bank, tau), [0.5, 0.5], atol=1e-15
            )

    def test_direct_evaluation(self):
        # oracle: logits (1, 0, 1) at tau=1 -> (e, 1, e)/(2e+1)
        e = math.e
        expected = np.array([e, 1.0, e]) / (2 * e + 1)
        row = prob_row([1.0, 0.0], three_row_bank(), tau=1.0)
        np.testing.assert_allclose(row, expected, atol=1e-15)

    def test_small_tau_concentrates_on_argmax(self):
        bank = random_bank(8, 4, seed=31)
        query = bank.features[3]
        sims = bank.features @ query
        probs = prob_row(query, bank, tau=1e-3)
        assert np.argmax(probs) == np.argmax(sims)
        assert probs[np.argmax(sims)] > 0.999

    def test_non_positive_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            prob_row([1.0, 0.0], three_row_bank(), tau=0.0)

    @given(st.integers(min_value=0, max_value=2**31), st.sampled_from([0.05, 0.07, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one(self, seed, tau):
        bank = random_bank(20, 6, seed=seed)
        probs = prob_row(random_unit(6, seed + 1), bank, tau)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert (probs >= 0).all()


class TestBuildNeighbourhoods:
    def brute_force(self, features, k):
        """Independent oracle: per-anchor sort of (-similarity, index) pairs."""
        n = features.shape[0]
        out = []
        for i in range(n):
            scored = sorted(
                (( -float(np.dot(features[i], features[j])), j) for j in range(n) if j != i)
            )
            out.append((i,) + tuple(j for _, j in scored[:k]))
        return out

    def test_tie_breaks_to_lower_index(self):
        nbs = build_neighbourhoods(three_row_bank(), k=1)
        assert nbs[0].tolist() == [0, 2]
        assert nbs[2].tolist() == [2, 0]
        assert nbs[1].tolist() == [1, 0]  # rows 0 and 2 tie at similarity 0 -> lower index

    def test_matches_brute_force(self):
        bank = random_bank(12, 5, seed=77)
        nbs = build_neighbourhoods(bank, k=3)
        for row, expected in zip(nbs, self.brute_force(bank.features, 3)):
            assert tuple(row.tolist()) == expected

    def test_full_k_contains_everyone(self):
        bank = random_bank(6, 4, seed=5)
        for row in build_neighbourhoods(bank, k=5):
            assert sorted(row.tolist()) == list(range(6))

    def test_identical_rows_tie_rule(self):
        bank = FeatureBank(features=np.tile([1.0, 0.0], (4, 1)))
        nbs = build_neighbourhoods(bank, k=1)
        assert nbs[0].tolist() == [0, 1]
        assert nbs[1].tolist() == [1, 0]
        assert nbs[3].tolist() == [3, 0]

    def test_k_out_of_range_rejected(self):
        bank = random_bank(4, 4, seed=2)
        for k in (-1, 4):
            with pytest.raises(ConfigurationError):
                build_neighbourhoods(bank, k)
        # k = 0 is the singleton case: each row holds only its anchor
        np.testing.assert_array_equal(build_neighbourhoods(bank, 0), [[0], [1], [2], [3]])

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_anchor_always_a_member(self, seed, k):
        bank = random_bank(9, 4, seed=seed)
        nbs = build_neighbourhoods(bank, k)
        assert nbs.shape == (9, k + 1)
        np.testing.assert_array_equal(nbs[:, 0], np.arange(9))

    def test_membership_invariant_to_temperature(self):
        # the top-k by probability must match the top-k by raw similarity for any tau
        bank = random_bank(10, 4, seed=41)
        nbs = build_neighbourhoods(bank, k=2)
        for tau in (0.05, 0.07, 1.0):
            for anchor, *neighbours in nbs.tolist():
                probs = prob_row(bank.features[anchor], bank, tau)
                probs[anchor] = -np.inf
                top = np.argsort(-probs, kind="stable")[:2]
                assert set(top.tolist()) == set(neighbours)

    def test_invalid_neighbourhood_construction_rejected(self):
        bank, x = three_row_bank(), np.array([1.0, 0.0])
        with pytest.raises(ContractError):
            neighbourhood_term(0, x, (1, 2), bank, tau=1.0)
        with pytest.raises(ContractError):
            neighbourhood_term(0, x, (0, 0), bank, tau=1.0)


class TestTopK:
    def test_matches_stable_argsort_on_tied_scores(self):
        rng = SeededRng(12)
        for rows, m in ((1, 1), (6, 2), (40, 9), (300, 17)):
            scores = np.floor(rng.uniforms((rows, m)) * 4)  # four values: heavy ties
            scores[rng.uniforms((rows, m)) < 0.2] = -np.inf
            scores[0] = -np.inf
            oracle = np.argsort(-scores, axis=1, kind="stable")
            for k in sorted({1, max(m - 1, 1), m}):
                np.testing.assert_array_equal(top_k(scores, k), oracle[:, :k], err_msg=f"k={k}")
        # a bank of five copies: every row's best scores tie five ways, so every
        # row sorts only its at-or-above entries
        bank = np.tile(dyadic_matrix(40, 8, seed=13), (5, 1))
        scores = bank @ bank.T
        np.fill_diagonal(scores, -np.inf)
        oracle = np.argsort(-scores, axis=1, kind="stable")
        for k in (1, 2, 3, 10, 199):
            np.testing.assert_array_equal(top_k(scores, k), oracle[:, :k], err_msg=f"k={k}")

    def test_k_out_of_range_rejected(self):
        for k in (0, 4):
            with pytest.raises(ConfigurationError):
                top_k(np.zeros((2, 3)), k)

    def test_no_rows(self):
        for m, k in ((3, 2), (5000, 10)):
            assert top_k(np.zeros((0, m)), k).shape == (0, k)

    @staticmethod
    def assert_stable_argsort(scores, ks):
        oracle = np.argsort(-scores, axis=1, kind="stable")
        for k in ks:
            np.testing.assert_array_equal(top_k(scores, k), oracle[:, :k], err_msg=f"k={k}")

    @pytest.mark.parametrize("m", [5000, 20000])
    def test_matches_stable_argsort_on_wide_rows(self, m):
        # 5000 and 20000 are no multiple of their group widths (227 and 454), so
        # every row has tail columns outside the groups
        assert m % (m // math.isqrt(m // 10))
        queries = random_bank(24, 16, seed=m).features
        scores = queries @ random_bank(m, 16, seed=m + 1).features.T
        scores[::3, ::7] = -np.inf
        self.assert_stable_argsort(scores, (1, 10, m - 1, m))
        # one row a block: a row's result depends on its own scores alone
        oracle = np.argsort(-scores, axis=1, kind="stable")
        for i in range(len(scores)):
            np.testing.assert_array_equal(top_k(scores[i:i + 1], 10), oracle[i:i + 1, :10])

    def test_ties_straddle_groups(self):
        # a bank of 20 copies: each row's best score ties 20 ways, one copy every
        # 250 columns, so the ties fall in many groups; beyond them, the few
        # distinct dyadic scores tie across groups and the tail
        bank = np.tile(dyadic_matrix(250, 8, seed=14), (20, 1))
        scores = bank[:64] @ bank.T
        scores[np.arange(64), np.arange(64)] = -np.inf
        self.assert_stable_argsort(scores, (1, 10, 25, 78))
        # rounded cosines: at most 201 distinct values over 6000 columns
        queries, keys = random_bank(32, 8, seed=15).features, random_bank(6000, 8, seed=16).features
        rounded = np.round(queries @ keys.T, 2)
        self.assert_stable_argsort(rounded, (1, 5, 10, 90))

    def test_minus_inf_diagonal(self):
        features = random_bank(3000, 8, seed=17).features
        scores = features @ features.T
        np.fill_diagonal(scores, -np.inf)
        self.assert_stable_argsort(scores[:200], (1, 10, 46))
        # rows that are -inf but for a few columns rank those few first, then -inf by index
        sparse = np.full((4, 3000), -np.inf)
        sparse[:, [2999, 5, 1700]] = 1.0
        self.assert_stable_argsort(sparse, (1, 3, 10))

    def test_nan_rows_take_the_all_columns_selection(self):
        # 4003 columns: for k = 1, 10 and 50 the last three are tail columns
        wide = random_bank(40, 8, seed=18).features @ random_bank(4003, 8, seed=19).features.T
        wide[3, 17] = np.nan  # in a group, which is kept whole
        wide[5, 4001] = np.nan  # in the tail: the row is still narrowed
        wide[21, :3900] = np.nan  # a row of mostly NaN
        narrow = dyadic_matrix(40, 6, seed=70) @ dyadic_matrix(90, 6, seed=71).T
        narrow[3, 17] = np.nan
        for scores, ks in ((wide, (1, 10, 50)), (narrow, (1, 5, 90))):
            scores[11] = np.nan
            scores[20, ::3] = -np.inf
            oracle = np.argsort(-scores, axis=1, kind="stable")
            for k in ks:
                expected = oracle[:, :k]
                np.testing.assert_array_equal(top_k(scores, k), expected, err_msg=f"k={k}")
                # one row a block: a row's result depends on its own scores alone
                for i in range(len(scores)):
                    np.testing.assert_array_equal(
                        top_k(scores[i:i + 1], k), expected[i:i + 1], err_msg=f"row {i}, k={k}"
                    )

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_stable_argsort_on_tie_heavy_rows(self, seed, rows, m, levels, k_share):
        # most k here are far below m, so most rows narrow to a few groups
        rng = SeededRng(seed)
        scores = np.floor(rng.uniforms((rows, m)) * levels)
        scores[rng.uniforms((rows, m)) < 0.1] = -np.inf
        k = 1 + int(k_share**4 * (m - 1))
        self.assert_stable_argsort(scores, (k,))


class TestBlockwiseExactness:
    """Row-blocked search equals the full N x N computation across block edges."""

    def test_neighbourhoods_match_full_matrix(self):
        n = 2 * ROW_BLOCK + 37
        bank = FeatureBank(features=dyadic_matrix(n, 8, seed=21))
        sims = bank.features @ bank.features.T
        np.fill_diagonal(sims, -np.inf)
        order = np.argsort(-sims, axis=1, kind="stable")
        anchors = np.arange(n)[:, None]
        for k in (1, 10, n - 1):
            expected = np.concatenate([anchors, order[:, :k]], axis=1)
            np.testing.assert_array_equal(build_neighbourhoods(bank, k), expected)


class TestPeakMemory:
    """The kNN and neighbourhood passes hold the score blocks and no other N-wide array."""

    N = 4000

    def budget(self):
        return 1.5 * 8 * ROW_BLOCK * self.N

    def test_build_neighbourhoods(self):
        bank = random_bank(self.N, 16, seed=25)
        assert traced_peak(build_neighbourhoods, bank, 10) < self.budget()

    def test_knn_predict_batch(self):
        bank = random_bank(self.N, 16, seed=26)
        labels = np.arange(self.N) % 4
        peak = traced_peak(
            lambda: knn_predict_batch(bank.features, bank, labels, leave_one_out=True)
        )
        assert peak < self.budget()

    def test_top_k_holds_its_group_temporaries_one_or_two_at_a_time(self):
        # k = 10 bounds each 5000-column row by (125, 227) group maxima of 227 KB, held with
        # their partitioned copy; the maxima are freed before the gathered groups (about 10 of
        # 22 columns a row: 220 KB of flat indices, as much of their scores) are built
        bank = random_bank(5000, 16, seed=27)
        scores = bank.features[:125] @ bank.features.T
        assert traced_peak(top_k, scores, 10) < scores.nbytes / 5


class TestEntropy:
    def test_uniform_is_log_n(self):
        assert entropy(np.full(3, 1 / 3)) == pytest.approx(math.log(3), abs=1e-9)

    def test_one_hot_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_direct_summation_oracle(self):
        e = math.e
        probs = np.array([e, 1.0, e]) / (2 * e + 1)
        oracle = -sum(p * math.log(p) for p in probs)
        assert entropy(probs) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(1.0173572075552149, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=64))
    @settings(max_examples=40)
    def test_bounded_by_log_n(self, seed, n):
        probs = dense_softmax(SeededRng(seed).uniforms(n) * 20 - 10)
        h = entropy(probs)
        assert -1e-12 <= h <= math.log(n) + 1e-9

    def test_maximum_only_at_uniform(self):
        n = 5
        assert entropy(np.full(n, 1 / n)) == pytest.approx(math.log(n), abs=1e-9)
        tilted = np.full(n, 1 / n)
        tilted[0] += 0.01
        tilted[1] -= 0.01
        assert entropy(tilted) < math.log(n) - 1e-6
