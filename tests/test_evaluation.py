import math
import tracemalloc

import numpy as np
import pytest

from andkit import affinity
from andkit.affinity import ROW_BLOCK, row_blocks, top_k_others
from andkit.data import BlobSpec, Dataset, generate_blobs
from andkit.encoder import EncoderConfig, forward, init_params
from andkit.errors import ConfigurationError, ContractError, DimensionError
from andkit.evaluation import (
    DEFAULT_K_EVAL,
    ENCODE_SPAN,
    _class_sum,
    _fit_probe,
    consistent_rows,
    encode,
    knn_accuracy,
    knn_predict_batch,
    linear_probe,
    neighbourhood_consistency,
    per_class_accuracy,
)
from andkit.memory import FeatureBank
from andkit.numerics import SeededRng, l2_normalize_rows

from conftest import dyadic_matrix, finite_difference, max_rel_error, random_bank, traced_peak
from oracles import probe_loss_and_grad, weighted_knn_predict


def bank_with_similarities(sims):
    """Rows whose dot products with the query e0 equal the given scores."""
    rows = [[s, math.sqrt(1.0 - s * s)] for s in sims]
    return FeatureBank(features=np.array(rows)), np.array([1.0, 0.0])


class TestWeightedKnnPredict:
    def test_k1_returns_nearest_label(self):
        bank, query = bank_with_similarities([0.3, 0.9, 0.5])
        assert weighted_knn_predict(query, bank, [2, 7, 4], k_eval=1, tau=1.0) == 7

    def test_hand_vote(self):
        # oracle: w = exp(s); class A gets e^0.9 + e^0.8 = 4.685 > e^0.95 = 2.586
        bank, query = bank_with_similarities([0.9, 0.8, 0.95])
        labels = [0, 0, 1]
        assert weighted_knn_predict(query, bank, labels, k_eval=3, tau=1.0) == 0
        # at a sharp temperature the single closest neighbour dominates instead
        assert weighted_knn_predict(query, bank, labels, k_eval=3, tau=0.01) == 1

    def test_unanimous_neighbours(self):
        bank, query = bank_with_similarities([0.9, 0.8, 0.7])
        for tau in (0.07, 1.0, 10.0):
            assert weighted_knn_predict(query, bank, [3, 3, 3], k_eval=3, tau=tau) == 3

    def test_missing_labels_rejected(self):
        bank, query = bank_with_similarities([0.9, 0.8])
        with pytest.raises(ContractError):
            weighted_knn_predict(query, bank, None, k_eval=1, tau=1.0)

    def test_exclude_removes_exactly_one_candidate(self):
        # two identical rows with different labels: excluding row 0 forces row 1's label
        bank = FeatureBank(features=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        labels = [5, 6, 7]
        assert weighted_knn_predict([1.0, 0.0], bank, labels, k_eval=1, tau=1.0) == 5
        assert (
            weighted_knn_predict([1.0, 0.0], bank, labels, k_eval=1, tau=1.0, exclude=0) == 6
        )

    def test_batch_variant_matches_scalar(self):
        bank = random_bank(12, 4, seed=3)
        labels = np.arange(12) % 3
        queries = l2_normalize_rows(SeededRng(4).normals((6, 4)))
        batch = knn_predict_batch(queries, bank, labels, k_eval=4, tau=0.07)
        for q, pred in zip(queries, batch):
            assert pred == weighted_knn_predict(q, bank, labels, k_eval=4, tau=0.07)

    def test_batch_vote_survives_overflowing_weights(self):
        # unshifted, e^(1/0.001) and e^(0.99/0.001) are both inf, which ties the
        # classes and hands the vote to the lower id; shifted, class 1 wins 1 to e^-10
        bank, query = bank_with_similarities([1.0, 0.99])
        pred = knn_predict_batch(query[None, :], bank, [1, 0], k_eval=2, tau=0.001)
        assert pred.tolist() == [1]

    def test_batch_tau_must_be_finite_and_positive(self):
        bank, query = bank_with_similarities([0.9, 0.8])
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                knn_predict_batch(query[None, :], bank, [0, 1], k_eval=1, tau=tau)

    def test_batch_label_count_must_match_bank(self):
        bank = random_bank(4, 3, seed=1)
        for labels in ([0, 1], [0, 1, 0, 1, 0]):
            with pytest.raises(ContractError):
                knn_predict_batch(bank.features, bank, labels, k_eval=1, tau=0.07)

    @staticmethod
    def full_matrix_vote(queries, features, labels, k_eval, tau, leave_one_out):
        """Reference: the vote from one whole query x bank score matrix."""
        sims = queries @ features.T
        if leave_one_out:
            np.fill_diagonal(sims, -np.inf)
        top = np.argsort(-sims, axis=1, kind="stable")[:, :k_eval]
        top_sims = np.take_along_axis(sims, top, axis=1)
        weights = np.exp((top_sims - top_sims[:, :1]) / tau)
        scores = np.zeros((queries.shape[0], labels.max() + 1))
        rows = np.repeat(np.arange(queries.shape[0]), k_eval)
        np.add.at(scores, (rows, labels[top].ravel()), weights.ravel())
        return np.argmax(scores, axis=1)

    def test_batch_matches_full_matrix_across_blocks(self):
        n = 2 * ROW_BLOCK + 37
        bank = FeatureBank(features=dyadic_matrix(n, 8, seed=23))
        labels = np.floor(SeededRng(24).uniforms(n) * 4).astype(np.int64)
        queries = dyadic_matrix(ROW_BLOCK + 11, 8, seed=25)
        for feats, leave_one_out in ((bank.features, True), (queries, False)):
            for k_eval in (1, 10):
                expected = self.full_matrix_vote(
                    feats, bank.features, labels, k_eval, 0.07, leave_one_out
                )
                got = knn_predict_batch(feats, bank, labels, k_eval, 0.07, leave_one_out)
                np.testing.assert_array_equal(got, expected)

    def test_batch_equals_the_oracle_across_blocks_with_ties_and_an_absent_class(self):
        # dyadic rows give tied scores, and row 4j + 1 repeats row 4j under another label
        n = 2 * ROW_BLOCK + 37
        bank = FeatureBank(features=dyadic_matrix(n, 8, seed=41))
        labels = np.array([0, 1, 3, 4])[np.arange(n) % 4]  # class 2 is no bank row's label
        for leave_one_out in (True, False):
            got = knn_predict_batch(bank.features, bank, labels, leave_one_out=leave_one_out)
            expected = [
                weighted_knn_predict(
                    row, bank, labels, DEFAULT_K_EVAL, exclude=i if leave_one_out else None
                )
                for i, row in enumerate(bank.features)
            ]
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "labels, match",
        [
            ([0, 0, 1, 1, -1, -1], "non-negative"),
            ([0, 0, 1, 1, 0.7, 0.7], "integral"),
            ([False, False, True, True, False, True], "bool"),
        ],
    )
    def test_batch_refuses_labels_that_are_not_class_ids(self, labels, match):
        # np.add.at would count a -1 vote for the last class, and 0.7 would truncate to 0
        bank = random_bank(6, 3, seed=42)
        with pytest.raises(ContractError, match=match):
            knn_predict_batch(bank.features, bank, labels, k_eval=2, leave_one_out=True)


class TestKnnAccuracy:
    def identity_setup(self, n=8, d=4, seed=5):
        params = init_params(EncoderConfig(layer_sizes=(d, d), seed=seed))
        params.weights[0][:] = np.eye(d)
        inputs = l2_normalize_rows(SeededRng(seed).normals((n, d)))
        return params, inputs

    def test_self_match_is_perfect(self):
        params, inputs = self.identity_setup()
        split = Dataset(inputs=inputs, labels=np.arange(8, dtype=np.int32))
        bank = FeatureBank(features=inputs.copy())
        acc = knn_accuracy(split, params, bank, split.labels, k_eval=1, leave_one_out=False)
        assert acc == 1.0

    def test_random_features_score_chance(self):
        accs = []
        for seed in range(5):
            n, d = 200, 8
            feats = l2_normalize_rows(SeededRng(seed).normals((n, d)))
            labels = (np.arange(n) % 2).astype(np.int32)
            params, _ = self.identity_setup(d=d, seed=seed)
            split = Dataset(inputs=feats, labels=labels)
            bank = FeatureBank(features=feats.copy())
            accs.append(
                knn_accuracy(split, params, bank, labels, k_eval=10, leave_one_out=True)
            )
        assert abs(np.mean(accs) - 0.5) < 0.1

    def test_leave_one_out_required_for_train_split(self):
        # with two identical inputs holding different labels, LOO halves accuracy
        params, _ = self.identity_setup(d=4)
        inputs = l2_normalize_rows(np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 1.0, 0, 0]]))
        labels = np.array([0, 1, 2, 2], dtype=np.int32)
        split = Dataset(inputs=inputs, labels=labels)
        bank = FeatureBank(features=inputs.copy())
        plain = knn_accuracy(split, params, bank, labels, k_eval=1, leave_one_out=False)
        loo = knn_accuracy(split, params, bank, labels, k_eval=1, leave_one_out=True)
        # plain: queries 0,2,3 hit their own rows, query 1 ties down to row 0
        assert plain == 0.75
        # LOO: each twin now votes with the other twin's label, so both miss
        assert loo == 0.5

    def test_per_class_accuracy(self):
        preds = np.array([0, 0, 1, 1, 1, 0])
        truth = np.array([0, 0, 1, 1, 0, 1])
        assert per_class_accuracy(preds, truth) == [pytest.approx(2 / 3), pytest.approx(2 / 3)]

    def test_per_class_accuracy_refuses_bool_truth(self):
        with pytest.raises(ContractError, match="bool"):
            per_class_accuracy(np.array([0, 1, 1]), np.array([False, True, True]))

    def test_training_beats_untrained_encoder_on_two_blobs(self):
        # baseline comparison run: the untrained random encoder is the oracle
        from andkit.data import make_benchmark_splits
        from andkit.numerics import derive_seed
        from paper_claims import benchmark_config, run_benchmark

        train_split, test_split = make_benchmark_splits(2, 60, noise_sigma=1.5, seed=42)
        params = init_params(EncoderConfig((32, 64, 16), seed=derive_seed(0, 1)))
        from andkit.encoder import forward

        feats, _ = forward(params, train_split.inputs)
        bank = FeatureBank(features=feats.copy())
        untrained = knn_accuracy(
            train_split, params, bank, train_split.labels, k_eval=10, leave_one_out=True
        )
        trained = run_benchmark(train_split, test_split, benchmark_config(32, 0)).train_accuracy
        assert trained > untrained


class TestLinearProbe:
    def two_blob_split(self, seed=0):
        ds = generate_blobs(BlobSpec(2, 40, 8, center_scale=6.0, noise_sigma=0.5, seed=seed))
        train_rows = np.r_[0:20, 40:60]
        test_rows = np.r_[20:40, 60:80]
        train = Dataset(inputs=ds.inputs[train_rows], labels=ds.labels[train_rows])
        test = Dataset(inputs=ds.inputs[test_rows], labels=ds.labels[test_rows])
        return train, test

    def identity_params(self, d=8):
        params = init_params(EncoderConfig(layer_sizes=(d, d), seed=0))
        params.weights[0][:] = np.eye(d)
        return params

    def test_separable_reaches_perfect(self):
        train, test = self.two_blob_split()
        acc = linear_probe(train, test, self.identity_params(), epochs=200, lr=0.5)
        assert acc == 1.0

    def test_zero_epochs_is_chance(self):
        train, test = self.two_blob_split()
        acc = linear_probe(train, test, self.identity_params(), epochs=0, lr=0.5)
        assert acc == 0.5  # zero probe always predicts class 0 on a balanced split

    def test_probe_gradient_matches_finite_differences(self):
        feats = l2_normalize_rows(SeededRng(9).normals((10, 4)))
        labels = np.arange(10) % 3
        w = SeededRng(10).normals((3, 4)) * 0.1
        b = SeededRng(11).normals(3) * 0.1
        _, gw, gb = probe_loss_and_grad(w, b, feats, labels)
        fd_w = finite_difference(lambda a: probe_loss_and_grad(a, b, feats, labels)[0], w)
        fd_b = finite_difference(lambda a: probe_loss_and_grad(w, a, feats, labels)[0], b)
        assert max_rel_error(gw, fd_w) < 1e-6
        assert max_rel_error(gb, fd_b) < 1e-6


    def test_probe_steps_on_the_gradients_of_probe_loss_and_grad(self):
        # linear_probe's gradient-only step is the reference loop below, bit for bit
        from andkit.encoder import forward

        ds = generate_blobs(BlobSpec(3, 30, 8, noise_sigma=1.5, seed=12))
        params = init_params(EncoderConfig(layer_sizes=(8, 4), seed=13))
        feats, _ = forward(params, ds.inputs)
        w, b = np.zeros((3, 4)), np.zeros(3)
        for epochs in range(1, 31):
            _, gw, gb = probe_loss_and_grad(w, b, feats, ds.labels)
            w, b = w - 0.5 * gw, b - 0.5 * gb
            preds = np.argmax(feats @ w.T + b, axis=1)
            expected = float((preds == ds.labels).mean())
            assert linear_probe(ds, ds, params, epochs=epochs, lr=0.5) == expected


    def test_probe_on_its_own_split_runs_the_encoder_once(self, monkeypatch):
        import andkit.evaluation as evaluation

        ds = generate_blobs(BlobSpec(3, 30, 8, noise_sigma=1.5, seed=14))
        params = init_params(EncoderConfig(layer_sizes=(8, 4), seed=15))
        twin = Dataset(inputs=ds.inputs.copy(), labels=ds.labels.copy())
        expected = linear_probe(ds, twin, params, epochs=20, lr=0.5)
        calls = []
        forward = evaluation.forward
        monkeypatch.setattr(evaluation, "forward", lambda *a: calls.append(a) or forward(*a))
        assert linear_probe(ds, ds, params, epochs=20, lr=0.5) == expected
        assert len(calls) == 1


class TestEncodesHoldNoCache:
    """The label-side encodes keep the features and drop `forward`'s backward cache at once.

    `forward` holds its cache while it runs, so the peak cannot show this; the traced size
    on entering each pass that follows an encode can. Layers d-1024-16 at N = 2000 give a
    cache of about 33 MB, far above everything else these calls allocate.
    """

    N, D = 2000, 8

    @pytest.fixture
    def setting(self):
        ds = generate_blobs(BlobSpec(4, self.N // 4, self.D, seed=33))
        params = init_params(EncoderConfig(layer_sizes=(self.D, 1024, 16), seed=34))
        cache = forward(params, ds.inputs)[1]
        cache_bytes = cache.layer_inputs[1].nbytes + cache.pre_acts[0].nbytes
        return ds, params, random_bank(self.N, 16, seed=35), cache_bytes

    @staticmethod
    def traced_on_entry(monkeypatch, targets, call):
        """{name: traced bytes when `module.name` was entered} over one traced `call()`."""
        sizes = {}
        for module, name in targets:
            def wrapper(*args, _real=getattr(module, name), _name=name, **kwargs):
                sizes[_name] = tracemalloc.get_traced_memory()[0]
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        tracemalloc.start()
        try:
            call()
        finally:
            tracemalloc.stop()
        assert set(sizes) == {name for _, name in targets}
        return sizes

    def test_knn_accuracy(self, monkeypatch, setting):
        import andkit.evaluation as evaluation

        ds, params, bank, cache_bytes = setting
        sizes = self.traced_on_entry(
            monkeypatch, [(evaluation, "knn_predict_batch")],
            lambda: knn_accuracy(ds, params, bank, ds.labels, leave_one_out=True),
        )
        assert sizes["knn_predict_batch"] < cache_bytes, (sizes, cache_bytes)

    @pytest.mark.parametrize("own_split", [True, False])
    def test_linear_probe(self, monkeypatch, setting, own_split):
        import andkit.evaluation as evaluation

        ds, params, _, cache_bytes = setting
        test_split = ds if own_split else Dataset(inputs=ds.inputs.copy(), labels=ds.labels)
        sizes = self.traced_on_entry(
            monkeypatch, [(evaluation, "_fit_probe")],
            lambda: linear_probe(ds, test_split, params, epochs=1),
        )
        assert sizes["_fit_probe"] < cache_bytes, (sizes, cache_bytes)

    def test_train_monitor(self, monkeypatch, setting):
        import andkit.cli as cli
        from andkit.pipeline import RoundPlan

        ds, params, bank, cache_bytes = setting
        plan = RoundPlan(np.zeros(self.N), np.ones(self.N, dtype=bool), np.arange(self.N)[:, None])
        monitor = cli._make_monitor(ds)
        sizes = self.traced_on_entry(
            monkeypatch, [(cli, "knn_predict_batch")], lambda: monitor(1, plan, bank, params)
        )
        assert sizes["knn_predict_batch"] < cache_bytes, (sizes, cache_bytes)

    def test_eval_with_probe(self, monkeypatch, setting, tmp_path):
        import andkit.cli as cli
        import andkit.evaluation as evaluation
        from andkit.data import save_dataset
        from andkit.pipeline import TrainConfig, save_checkpoint

        ds, params, bank, cache_bytes = setting
        save_dataset(ds, tmp_path / "data.ands")
        config = TrainConfig(layer_sizes=(self.D, 1024, 16))
        save_checkpoint(params, bank, config, tmp_path / "checkpoint.andc")
        argv = [
            "eval", "--checkpoint", str(tmp_path / "checkpoint.andc"),
            "--data", str(tmp_path / "data.ands"), "--probe", "--probe-epochs", "1",
            "--out", str(tmp_path / "eval.json"),
        ]
        targets = [
            (cli, "knn_predict_batch"), (cli, "build_neighbourhoods"), (evaluation, "_fit_probe")
        ]
        sizes = self.traced_on_entry(monkeypatch, targets, lambda: cli.main(argv))
        assert (tmp_path / "eval.json").exists()
        assert max(sizes.values()) < cache_bytes, (sizes, cache_bytes)


class TestEncode:
    """`encode` runs `forward` in near-equal spans and keeps the bits of one whole-input pass."""

    @pytest.mark.parametrize("layers", [(32, 64, 16), (100, 33, 7)])
    @pytest.mark.parametrize("n", [100, 400, 1025, 2500, 5000])
    def test_equals_one_forward_bit_for_bit(self, layers, n):
        params = init_params(EncoderConfig(layer_sizes=layers, seed=43))
        x = SeededRng(n).normals((n, layers[0]))
        whole = forward(params, x)[0]
        np.testing.assert_array_equal(encode(params, x).view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize("n", [2, ENCODE_SPAN, ENCODE_SPAN + 1, 2 * ENCODE_SPAN + 1, 5000])
    def test_spans_are_near_equal_and_never_short(self, monkeypatch, n):
        import andkit.evaluation as evaluation

        spans = []
        real = evaluation.forward
        monkeypatch.setattr(evaluation, "forward", lambda p, x: spans.append(len(x)) or real(p, x))
        params = init_params(EncoderConfig(layer_sizes=(4, 3), seed=44))
        encode(params, SeededRng(45).normals((n, 4)))
        assert sum(spans) == n
        assert max(spans) <= ENCODE_SPAN and max(spans) - min(spans) <= 1
        assert min(spans) >= min(n, ENCODE_SPAN // 2)

    def test_wrong_input_width_refused(self):
        params = init_params(EncoderConfig(layer_sizes=(4, 3), seed=46))
        for x in (np.ones((5, 3)), np.ones(4)):
            with pytest.raises(DimensionError):
                encode(params, x)


class TestLabelSidePeak:
    """At N = 5000 the train monitor and `knn_accuracy` hold no more than the (N, d_out)
    features plus the larger of one encode span and one pass of score blocks, and a few
    (N,) vectors: labels and predictions.

    The encode ends before the kNN pass starts, so the two never add up; a whole-input
    `forward` or an (N, k_eval) vote array does not fit. The pass runs on one worker, so
    its block temporaries never overlap and the traced peak does not depend on timing.
    """

    N = 5000

    @pytest.fixture
    def setting(self, monkeypatch):
        monkeypatch.setattr(affinity, "_cpus", lambda: 1)
        ds = generate_blobs(BlobSpec(4, self.N // 4, 32, seed=47))
        params = init_params(EncoderConfig(layer_sizes=(32, 64, 16), seed=48))
        bank = random_bank(self.N, 16, seed=49)
        span = traced_peak(forward, params, ds.inputs[:ENCODE_SPAN])
        blocks = traced_peak(
            row_blocks, bank.features, bank.features,
            lambda start, scores: top_k_others(scores, start, DEFAULT_K_EVAL),
        )
        feats = 8 * self.N * params.layer_sizes[-1]
        budget = feats + max(span, blocks) + 8 * 8 * self.N  # eight float64 (N,) vectors
        return ds, params, bank, budget

    def test_knn_accuracy(self, setting):
        ds, params, bank, budget = setting
        peak = traced_peak(knn_accuracy, ds, params, bank, ds.labels, None, True)
        assert peak <= budget, (peak, budget)

    def test_train_monitor(self, setting):
        import andkit.cli as cli
        from andkit.pipeline import RoundPlan

        ds, params, bank, budget = setting
        plan = RoundPlan(np.zeros(self.N), np.ones(self.N, dtype=bool), np.arange(self.N)[:, None])
        peak = traced_peak(cli._make_monitor(ds), 1, plan, bank, params)
        assert peak <= budget, (peak, budget)


def probe_features(n, num_classes, seed, d=16):
    """Unit rows scattered about one random centre per class, with their labels."""
    rng = SeededRng(seed)
    labels = np.arange(n) % num_classes
    return l2_normalize_rows(rng.normals((num_classes, d))[labels] + rng.normals((n, d))), labels


def reference_fit(feats, labels, num_classes, epochs, lr=0.5):
    """`linear_probe`'s full-batch steps, sample-major on `probe_loss_and_grad`."""
    w, b = np.zeros((num_classes, feats.shape[1])), np.zeros(num_classes)
    for _ in range(epochs):
        _, gw, gb = probe_loss_and_grad(w, b, feats, labels)
        w, b = w - lr * gw, b - lr * gb
    return w, b


class TestClassMajorProbe:
    """The class-major fit keeps every bit of the sample-major reference steps."""

    @pytest.mark.parametrize("epochs", [0, 1, 20])
    @pytest.mark.parametrize("n", [90, 5000])
    @pytest.mark.parametrize("num_classes", [2, 3, 4, 7, 10, 16])
    def test_fit_equals_reference_steps(self, num_classes, n, epochs):
        feats, labels = probe_features(n, num_classes, seed=num_classes + n)
        w, b = _fit_probe(feats, labels, num_classes, epochs, 0.5)
        ref_w, ref_b = reference_fit(feats, labels, num_classes, epochs)
        np.testing.assert_array_equal(w, ref_w)
        np.testing.assert_array_equal(b, ref_b)

    def test_class_absent_from_the_train_split(self):
        feats, labels = probe_features(400, 4, seed=21)
        labels = np.where(labels == 2, 3, labels)  # no train sample of class 2
        w, b = _fit_probe(feats, labels, 4, 20, 0.5)
        ref_w, ref_b = reference_fit(feats, labels, 4, 20)
        np.testing.assert_array_equal(w, ref_w)
        np.testing.assert_array_equal(b, ref_b)

    def test_probe_scores_the_reference_fit_on_a_class_only_the_test_split_holds(self):
        from andkit.encoder import forward

        ds = generate_blobs(BlobSpec(4, 30, 8, noise_sigma=1.5, seed=22))
        params = init_params(EncoderConfig(layer_sizes=(8, 4), seed=23))
        train_rows = ds.labels != 2
        train = Dataset(inputs=ds.inputs[train_rows], labels=ds.labels[train_rows])
        feats, _ = forward(params, train.inputs)
        w, b = reference_fit(feats, train.labels, 4, 30)
        test_feats, _ = forward(params, ds.inputs)
        expected = float((np.argmax(test_feats @ w.T + b, axis=1) == ds.labels).mean())
        assert linear_probe(train, ds, params, epochs=30, lr=0.5) == expected

    @pytest.mark.parametrize("num_classes", [*range(1, 20), 64, 128, 129, 200, 300])
    def test_class_sum_adds_in_numpys_last_axis_order(self, num_classes):
        rng = SeededRng(num_classes)
        # magnitudes over 12 decades, so most orders of addition round differently
        rows = rng.uniforms((num_classes, 64)) * np.exp(rng.normals((num_classes, 64)) * 6)
        np.testing.assert_array_equal(_class_sum(rows), rows.T.copy().sum(axis=-1))


class TestNeighbourhoodConsistency:
    def test_singleton_is_consistent(self):
        assert neighbourhood_consistency(np.array([[3]]), [7, 7, 7, 9]) == (1, 0)

    def test_mixed_labels_inconsistent(self):
        assert neighbourhood_consistency(np.array([[0, 1, 2]]), [0, 0, 1]) == (0, 1)

    def test_enumerated_counts(self):
        labels = [0, 0, 1, 1, 2]
        members = np.array(
            [
                [0, 1],  # pure
                [2, 3],  # pure
                [4, 4],  # pure singleton, padded with its anchor
                [1, 2],  # mixed
            ]
        )
        assert consistent_rows(members, labels).tolist() == [True, True, True, False]
        assert neighbourhood_consistency(members, labels) == (3, 1)

    def test_counts_cover_all_anchors(self):
        bank = random_bank(10, 4, seed=6)
        from andkit.affinity import build_neighbourhoods

        nbs = build_neighbourhoods(bank, k=2)
        consistent, inconsistent = neighbourhood_consistency(nbs, np.arange(10) % 2)
        assert consistent + inconsistent == 10
