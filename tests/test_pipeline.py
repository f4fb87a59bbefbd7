import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andkit.affinity import ROW_BLOCK, build_neighbourhoods
from andkit.data import BlobSpec, generate_blobs
from andkit.errors import ConfigurationError, ContractError, FormatError
from andkit.memory import FeatureBank
from andkit.pipeline import (
    Checkpoint,
    TrainConfig,
    bank_entropies,
    load_checkpoint,
    plan_round,
    save_checkpoint,
    select_anchors,
    train,
)
from andkit.numerics import SeededRng

from conftest import dyadic_matrix, random_bank, traced_peak
from oracles import dense_entropies, entropy, prob_row


def small_config(**overrides):
    base = dict(
        layer_sizes=(8, 10, 4),
        rounds=2,
        epochs_per_round=2,
        init_epochs=2,
        batch_size=16,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def small_inputs(n=24, d=8, seed=1):
    return SeededRng(seed).normals((n, d)) + 2.0


class TestSelectAnchors:
    def test_quarter_selection(self):
        mask = select_anchors(np.arange(8, dtype=float), r=1, R=4)
        assert mask.sum() == 2

    def test_two_smallest(self):
        mask = select_anchors(np.array([0.1, 0.5, 0.3, 0.9]), r=2, R=4)
        np.testing.assert_array_equal(mask, [True, False, True, False])

    def test_final_round_selects_all(self):
        mask = select_anchors(np.ones(7), r=3, R=3)
        assert mask.all()

    def test_ties_resolve_to_lower_index(self):
        mask = select_anchors(np.zeros(6), r=1, R=2)
        np.testing.assert_array_equal(mask, [True, True, True, False, False, False])

    def test_out_of_range_round_rejected(self):
        for r in (0, 5):
            with pytest.raises(ContractError):
                select_anchors(np.ones(4), r=r, R=4)

    @given(
        st.integers(min_value=2, max_value=1000),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_count_and_prefix(self, n, R, seed):
        entropies = SeededRng(seed).uniforms(n)
        for r in range(1, R + 1):
            mask = select_anchors(entropies, r, R)
            assert int(mask.sum()) == (n * r) // R
            # brute-force oracle: sort (entropy, index) pairs and take the prefix
            oracle = sorted(range(n), key=lambda i: (entropies[i], i))[: (n * r) // R]
            assert set(np.flatnonzero(mask).tolist()) == set(oracle)


class TestPlanRound:
    def test_identical_rows_select_by_index(self):
        bank = FeatureBank(features=np.tile([1.0, 0.0], (8, 1)))
        cfg = small_config(layer_sizes=(2, 4), rounds=4, k=1)
        plan = plan_round(bank, cfg, r=1)
        np.testing.assert_allclose(plan.entropies, plan.entropies[0], atol=1e-12)
        np.testing.assert_array_equal(np.flatnonzero(plan.selected), [0, 1])

    def test_three_row_bank_full_selection(self):
        bank = FeatureBank(features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        cfg = small_config(layer_sizes=(2, 4), rounds=1, k=1)
        plan = plan_round(bank, cfg, r=1)
        assert plan.selected.all()
        assert plan.members.tolist() == [[0, 2], [1, 0], [2, 0]]

    def test_batch_members_collapse_unselected_rows(self):
        bank = FeatureBank(features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        cfg = small_config(layer_sizes=(2, 4), rounds=3, k=1)
        plan = plan_round(bank, cfg, r=1)  # selects only anchor 1, the peaked row
        np.testing.assert_array_equal(plan.selected, [False, True, False])
        assert plan.batch_members([2, 0, 1]).tolist() == [[2, 2], [0, 0], [1, 0]]

    def test_recompute_identical(self):
        bank = random_bank(10, 4, seed=6)
        cfg = small_config(layer_sizes=(4, 4), rounds=3, k=2)
        a, b = plan_round(bank, cfg, 2), plan_round(bank, cfg, 2)
        np.testing.assert_array_equal(a.entropies, b.entropies)
        np.testing.assert_array_equal(a.selected, b.selected)
        np.testing.assert_array_equal(a.members, b.members)

    def test_entropies_match_per_row_oracle(self):
        bank = random_bank(7, 4, seed=8)
        got = bank_entropies(bank, tau=0.07)
        for i in range(7):
            expected = entropy(prob_row(bank.features[i], bank, 0.07))
            assert got[i] == pytest.approx(expected, abs=1e-12)

    def test_entropies_match_full_matrix_across_blocks(self):
        bank = FeatureBank(features=dyadic_matrix(2 * ROW_BLOCK + 37, 8, seed=22))
        for tau in (1e-4, 0.07):
            expected = dense_entropies(bank.features @ bank.features.T, tau)
            np.testing.assert_array_equal(bank_entropies(bank, tau), expected)

    def test_entropies_match_dense_kernels(self):
        bank = FeatureBank(features=dyadic_matrix(ROW_BLOCK + 37, 8, seed=26))
        for tau in (1e-4, 0.07):  # 1e-4 underflows every e below a row's maximum to 0
            expected = dense_entropies(bank.features @ bank.features.T, tau)
            np.testing.assert_array_equal(bank_entropies(bank, tau), expected)

    def test_rows_with_one_maximum_have_zero_entropy_when_cold(self):
        features = dyadic_matrix(64, 8, seed=24)
        scores = features @ features.T
        # dyadic scores differ by multiples of 1/4, so at tau = 1e-4 every e below a
        # row's maximum underflows to exactly 0: a row with c maxima has entropy log(c)
        ties = (scores == scores.max(axis=1, keepdims=True)).sum(axis=1)
        assert (ties == 1).sum() > 5 and (ties > 1).any()
        got = bank_entropies(FeatureBank(features=features), 1e-4)
        np.testing.assert_array_equal(got, np.log(ties))  # exactly 0.0 where c = 1

    @pytest.mark.parametrize("tau", [1e-4, 0.07, 1e3])
    @pytest.mark.parametrize("n", [400, 513])
    def test_entropies_at_extreme_temperatures(self, n, tau):
        bank = random_bank(n, 16, seed=n + 5)
        got = bank_entropies(bank, tau)
        assert np.isfinite(got).all()
        assert (got >= 0.0).all() and (got <= math.log(n)).all()
        oracle = [entropy(prob_row(row, bank, tau)) for row in bank.features]
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("one_off", [False, True])
    @pytest.mark.parametrize("n", [400, 513])
    def test_selection_equals_that_of_the_oracle_entropies(self, n, one_off):
        bank = random_bank(n, 16, seed=n + 6)
        cfg = small_config(layer_sizes=(4, 16), rounds=4, k=3, one_off=one_off)
        oracle = [entropy(prob_row(row, bank, cfg.tau)) for row in bank.features]
        for r in range(1, cfg.rounds + 1):
            expected = select_anchors(oracle, cfg.rounds if one_off else r, cfg.rounds)
            np.testing.assert_array_equal(plan_round(bank, cfg, r).selected, expected)

    @staticmethod
    def assert_entropy_peak_is_a_few_score_blocks(monkeypatch, workers):
        import andkit.affinity as affinity

        monkeypatch.setattr(affinity, "_cpus", lambda: workers)
        n = 4000
        bank = random_bank(n, 16, seed=9)
        peak = traced_peak(bank_entropies, bank, 0.07)
        block = 8 * ROW_BLOCK * n
        # the budget of the top-k passes (test_affinity's TestPeakMemory): the score
        # blocks in flight and a few rows of exp, no second block of their size
        assert peak < 1.5 * block, f"peak {peak / block:.2f} x 8 ROW_BLOCK N bytes"

    def test_entropy_peak_memory_is_a_few_score_blocks(self, monkeypatch):
        self.assert_entropy_peak_is_a_few_score_blocks(monkeypatch, workers=1)

    def test_entropy_peak_memory_holds_at_two_workers(self, monkeypatch):
        # ROW_BLOCK rows are in flight whatever the worker count, so the bound is the same
        self.assert_entropy_peak_is_a_few_score_blocks(monkeypatch, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plan_peak_memory_is_one_block_per_worker(self, monkeypatch, workers):
        import andkit.affinity as affinity

        monkeypatch.setattr(affinity, "_cpus", lambda: workers)
        n = 4000
        bank = random_bank(n, 16, seed=9)
        cfg = small_config(layer_sizes=(4, 16), rounds=4, k=10)
        peak = traced_peak(plan_round, bank, cfg, 2)
        # the plan's outputs, then per worker one (64, n) block of scores and less than half
        # as much again: the top-k's and the entropies' temporaries
        outputs = 8 * n * (cfg.k + 2)
        block = 8 * 64 * n
        assert peak < outputs + workers * 1.5 * block, f"peak {peak / block:.2f} x 8 * 64 * N bytes"

    def test_plan_peak_memory_is_below_half_an_n_squared_matrix(self):
        n = 4000
        bank = random_bank(n, 16, seed=9)
        cfg = small_config(layer_sizes=(4, 16), rounds=4, k=10)
        tracemalloc.start()
        try:
            plan_round(bank, cfg, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x 8N^2 bytes"

    def test_one_bank_pass_per_plan(self, monkeypatch):
        # a plan computes each block of scores once, for its members and its entropies alike
        import andkit.affinity as affinity

        passes = []
        real = affinity.row_blocks
        monkeypatch.setattr(
            affinity, "row_blocks", lambda *args: passes.append(args) or real(*args)
        )
        bank = random_bank(300, 8, seed=5)
        cfg = small_config(layer_sizes=(4, 8), rounds=2, k=3)
        for call, expected in (
            (lambda: plan_round(bank, cfg, 1), 1),
            (lambda: bank_entropies(bank, 0.07), 1),
            (lambda: build_neighbourhoods(bank, 1), 1),
            (lambda: build_neighbourhoods(bank, 5), 1),
            (lambda: build_neighbourhoods(bank, 0), 0),
        ):
            passes.clear()
            call()
            assert len(passes) == expected


class TestTrain:
    def test_rounds_without_epochs_are_noops(self):
        x = small_inputs()
        a = train(x, small_config(rounds=1, epochs_per_round=0, init_epochs=3))
        b = train(x, small_config(rounds=4, epochs_per_round=0, init_epochs=3))
        for wa, wb in zip(a[0].weights, b[0].weights):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_bit_identical_reruns(self):
        x = small_inputs()
        cfg = small_config()
        a, b = train(x, cfg), train(x, cfg)
        for wa, wb in zip(a[0].weights, b[0].weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a[0].biases, b[0].biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(a[1].features, b[1].features)
        assert [r.mean_loss for r in a[2]] == [r.mean_loss for r in b[2]]

    def test_loss_decreases_on_blobs(self):
        for seed in (0, 1, 2):
            ds = generate_blobs(BlobSpec(4, 15, 32, seed=seed))
            cfg = TrainConfig(
                layer_sizes=(32, 16, 8),
                rounds=2,
                epochs_per_round=3,
                init_epochs=3,
                batch_size=32,
                seed=seed,
            )
            _, _, records = train(ds.inputs, cfg)
            assert records[-1].mean_loss < records[0].mean_loss

    def test_degeneration_equivalence(self, monkeypatch):
        import andkit.pipeline as pipeline

        x = small_inputs()
        inst_run = train(x, small_config(rounds=3, instance_only=True))
        # k-NN search disabled: every anchor's neighbourhood is the singleton
        plan = pipeline.plan_round
        monkeypatch.setattr(
            pipeline, "plan_round",
            lambda bank, cfg, r: replace(plan(bank, cfg, r), members=np.arange(bank.n)[:, None]),
        )
        and_run = train(x, small_config(rounds=3))
        losses_and = np.array([r.mean_loss for r in and_run[2]])
        losses_inst = np.array([r.mean_loss for r in inst_run[2]])
        np.testing.assert_allclose(losses_and, losses_inst, atol=1e-12)
        np.testing.assert_array_equal(and_run[1].features, inst_run[1].features)

    def test_bank_rows_stay_unit(self):
        _, bank, _ = train(small_inputs(), small_config())
        np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0, atol=1e-9)

    def test_selected_fraction_grows_exactly(self):
        n = 24
        cfg = small_config(rounds=4, epochs_per_round=1, init_epochs=0)
        _, _, records = train(small_inputs(n=n), cfg)
        fractions = [r.selected_fraction for r in records]
        assert fractions == [((n * r) // 4) / n for r in range(1, 5)]

    def test_one_off_selects_everyone_from_round_one(self):
        cfg = small_config(rounds=3, epochs_per_round=1, init_epochs=0, one_off=True)
        _, _, records = train(small_inputs(), cfg)
        assert all(r.selected_fraction == 1.0 for r in records)

    def test_monitor_fields_land_in_records(self):
        calls = []

        def monitor(r, plan, bank, params):
            calls.append(r)
            return {"consistent_count": 5, "inconsistent_count": 1, "knn_accuracy": 0.5}

        _, _, records = train(small_inputs(), small_config(), monitor=monitor)
        assert calls == [1, 2]
        round_records = [r for r in records if r.round > 0]
        assert all(r.consistent_count == 5 and r.knn_accuracy == 0.5 for r in round_records)
        assert all(r.consistent_count is None for r in records if r.round == 0)

    @pytest.mark.parametrize("one_off", [False, True])
    def test_round_plans_and_schedule_epochs(self, monkeypatch, one_off):
        import andkit.pipeline as pipeline

        planned, scheduled, monitored = [], [], []
        real_plan, real_lr = pipeline.plan_round, pipeline.lr_at
        monkeypatch.setattr(
            pipeline, "plan_round", lambda bank, cfg, r: planned.append(r) or real_plan(bank, cfg, r)
        )
        monkeypatch.setattr(pipeline, "lr_at", lambda *a: scheduled.append(a) or real_lr(*a))
        cfg = small_config(rounds=3, epochs_per_round=2, init_epochs=3, one_off=one_off)
        _, _, records = train(small_inputs(), cfg, monitor=lambda r, *_: monitored.append(r) or {})
        # one-off plans once, at round 1, and selects everyone; otherwise round r selects r / R
        assert planned == ([1] if one_off else [1, 2, 3])
        assert monitored == [1, 2, 3]
        fractions = {rec.round: rec.selected_fraction for rec in records if rec.round}
        assert list(fractions.values()) == ([1.0] * 3 if one_off else [1 / 3, 2 / 3, 1.0])
        # every round, the warm-up (round 0) included, restarts the schedule
        epochs = [0, 1, 2] + [0, 1] * 3
        assert scheduled == [(e, cfg.base_lr, cfg.epochs_per_round) for e in epochs]
        assert [rec.round for rec in records] == [0, 0, 0, 1, 1, 2, 2, 3, 3]
        assert [rec.epoch for rec in records] == list(range(9))

    def test_labels_never_touched(self):
        # the training surface accepts a bare matrix; there is no labels argument
        import inspect

        assert "labels" not in inspect.signature(train).parameters

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            train(small_inputs(d=5), small_config())

    def test_degenerate_feature_names_sample(self):
        from andkit.errors import DegenerateInputError

        x = small_inputs()
        x[5] = 0.0  # zero input through zero-bias layers gives a zero feature
        cfg = small_config(layer_sizes=(8, 4), rounds=1, epochs_per_round=0, init_epochs=1)
        with pytest.raises(DegenerateInputError, match="sample 5"):
            train(x, cfg)

    def test_non_finite_input_refused_before_initialisation(self, monkeypatch):
        import andkit.pipeline as pipeline

        calls = []
        monkeypatch.setattr(pipeline, "init_params", lambda *a: calls.append(a))
        for value in (np.nan, np.inf, -np.inf):
            x = small_inputs()
            x[3, 5] = x[7, 0] = value
            with pytest.raises(ConfigurationError, match="sample 3: non-finite"):
                train(x, small_config())
        assert calls == []

    def test_float32_signalling_nan_refused_without_a_warning(self):
        # its float64 cast warns "invalid value"; the pytest config makes that warning an error
        x = small_inputs().astype(np.float32)
        x.view(np.uint32)[3, 5] = 0x7F800001
        with pytest.raises(ConfigurationError, match="sample 3: non-finite"):
            train(x, small_config())

    def test_invalid_config_rejected(self):
        # wrong-typed values, as a hand-edited manifest can carry, are rejected like bad ranges
        for override in (
            {"rounds": 0}, {"rounds": "4"}, {"seed": "1"}, {"k": True}, {"init_epochs": 2.5},
            {"base_lr": "0.1"}, {"one_off": 1}, {"one_off": True, "instance_only": True},
            {"layer_sizes": (8.9, 10, 4)}, {"layer_sizes": ("8", "10", "4")},
            {"layer_sizes": (8, True, 4)},
            # Nesterov's velocity never decays at momentum >= 1
            {"momentum": 1.0}, {"momentum": 5.0}, {"momentum": float("inf")},
        ):
            with pytest.raises(ConfigurationError):
                train(small_inputs(), small_config(**override))
        # beyond what checkpoint v1 stores: u32 counts and sizes (init_epochs 0xFFFFFFFF is its
        # unset marker) and an i64 seed; built alone, as a missed check would train for ever
        for override in (
            {"rounds": 2**32}, {"epochs_per_round": 2**32}, {"batch_size": 2**32},
            {"k": 2**32}, {"layer_sizes": (8, 2**32, 4)}, {"init_epochs": 0xFFFFFFFF},
            {"seed": 2**63}, {"seed": -(2**63) - 1},
        ):
            with pytest.raises(ConfigurationError):
                small_config(**override)

    def test_k_beyond_n_rejected_before_warmup(self, monkeypatch):
        import andkit.pipeline as pipeline

        calls = []
        real = pipeline.make_batches
        monkeypatch.setattr(pipeline, "make_batches", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ConfigurationError, match="k must"):
            train(small_inputs(n=24), small_config(k=24))
        assert calls == []


class TestCheckpoint:
    def roundtrip(self, tmp_path, cfg=None):
        x = small_inputs()
        cfg = cfg or small_config()
        params, bank, _ = train(x, cfg)
        path = tmp_path / "model.andc"
        save_checkpoint(params, bank, cfg, path)
        return params, bank, cfg, path, load_checkpoint(path)

    def test_bit_exact_roundtrip(self, tmp_path):
        params, bank, cfg, _, back = self.roundtrip(tmp_path)
        assert isinstance(back, Checkpoint)
        for wa, wb in zip(params.weights, back.params.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(params.biases, back.params.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(bank.features, back.bank.features)
        assert back.config == cfg
        assert back.final_round == cfg.rounds

    def test_truncated_rejected(self, tmp_path):
        _, _, _, path, _ = self.roundtrip(tmp_path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        _, _, _, path, _ = self.roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_out_of_range_config_rejected(self, tmp_path):
        import struct

        _, _, cfg, path, _ = self.roundtrip(tmp_path)
        good = path.read_bytes()
        # the config block opens with six u32 fields after the 6-byte header:
        # rounds, epochs_per_round, init_epochs, batch_size, k, final_round
        for slot, value in ((0, 0), (4, 500), (4, 24), (5, 0), (5, cfg.rounds + 1)):
            blob = bytearray(good)
            struct.pack_into("<I", blob, 6 + 4 * slot, value)
            path.write_bytes(bytes(blob))
            with pytest.raises(FormatError, match="invalid config"):
                load_checkpoint(path)
        # the u8 after the three flags (u32 x 6, i64 seed) is reserved and must stay 0
        blob = bytearray(good)
        blob[6 + 4 * 6 + 8 + 3] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="reserved"):
            load_checkpoint(path)
        # one_off and instance_only (the u8s after the schedule byte) exclude each other
        blob = bytearray(good)
        blob[6 + 4 * 6 + 8 + 1:6 + 4 * 6 + 8 + 3] = b"\x01\x01"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="invalid config"):
            load_checkpoint(path)
        # momentum, the second f64 after the seed and the four u8s, must lie in [0, 1)
        for momentum in (1.0, 5.0):
            blob = bytearray(good)
            struct.pack_into("<d", blob, 6 + 4 * 6 + 8 + 4 + 8, momentum)
            path.write_bytes(bytes(blob))
            with pytest.raises(FormatError, match="momentum"):
                load_checkpoint(path)
        blob = bytearray(good)
        struct.pack_into("<I", blob, 6 + 4 * 5, 1)  # an earlier round is in range
        path.write_bytes(bytes(blob))
        assert load_checkpoint(path).final_round == 1

    def test_layer_count_and_bank_width_must_fit_the_layers(self, tmp_path):
        import struct

        _, bank, _, path, _ = self.roundtrip(tmp_path)
        good = path.read_bytes()
        layer_count = 6 + struct.calcsize("<6Iq????dddd")  # after the header and config block
        bank_shape = len(good) - 8 * bank.features.size - 8  # u32 n, u32 d, then the rows
        reshaped = (bank.n * bank.d // (bank.d - 1), bank.d - 1)  # the same byte count
        for offset, fmt, values in (
            (layer_count, "<I", (0,)), (layer_count, "<I", (1,)), (bank_shape, "<II", reshaped)
        ):
            blob = bytearray(good)
            struct.pack_into(fmt, blob, offset, *values)
            path.write_bytes(bytes(blob))
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_retired_schedule_byte_loads_either_value(self, tmp_path):
        # the u8 after the seed (u32 x 6, i64) chose the global (0) or per-round (1) schedule;
        # only the per-round one remains, so files written under either load the same config
        _, _, cfg, path, back = self.roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        assert blob[6 + 4 * 6 + 8] == 1
        blob[6 + 4 * 6 + 8] = 0
        path.write_bytes(bytes(blob))
        assert load_checkpoint(path).config == back.config == cfg
