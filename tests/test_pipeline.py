import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andkit.affinity import ROW_BLOCK, entropy_rows
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
from andkit.numerics import SeededRng, stable_softmax

from conftest import dense_entropy_rows, dense_softmax, dyadic_matrix, random_bank, traced_peak


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
        from andkit.affinity import entropy, prob_row

        bank = random_bank(7, 4, seed=8)
        got = bank_entropies(bank, tau=0.07)
        for i in range(7):
            expected = entropy(prob_row(bank.features[i], bank, 0.07))
            assert got[i] == pytest.approx(expected, abs=1e-12)


    def test_entropies_match_full_matrix_across_blocks(self):
        bank = FeatureBank(features=dyadic_matrix(2 * ROW_BLOCK + 37, 8, seed=22))
        expected = entropy_rows(stable_softmax(bank.features @ bank.features.T / 0.07))
        np.testing.assert_array_equal(bank_entropies(bank, tau=0.07), expected)

    def test_entropies_match_dense_kernels(self):
        bank = FeatureBank(features=dyadic_matrix(ROW_BLOCK + 37, 8, seed=26))
        for tau in (1e-4, 0.07):  # 1e-4 underflows every non-maximal probability to 0
            sims = bank.features @ bank.features.T / tau
            expected = dense_entropy_rows(dense_softmax(sims))
            np.testing.assert_array_equal(bank_entropies(bank, tau), expected)

    def test_entropy_peak_memory_is_a_few_score_blocks(self):
        n = 4000
        bank = random_bank(n, 16, seed=9)
        peak = traced_peak(bank_entropies, bank, 0.07)
        block = 8 * ROW_BLOCK * n
        assert peak < 3.5 * block, f"peak {peak / block:.2f} x 8 ROW_BLOCK N bytes"

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
        search = pipeline.build_neighbourhoods
        monkeypatch.setattr(pipeline, "build_neighbourhoods", lambda bank, k: search(bank, 0))
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

    def test_invalid_config_rejected(self):
        # wrong-typed values, as a hand-edited manifest can carry, are rejected like bad ranges
        for override in (
            {"rounds": 0}, {"rounds": "4"}, {"seed": "1"}, {"k": True}, {"init_epochs": 2.5},
            {"base_lr": "0.1"}, {"one_off": 1}, {"one_off": True, "instance_only": True},
            {"layer_sizes": (8.9, 10, 4)}, {"layer_sizes": ("8", "10", "4")},
            {"layer_sizes": (8, True, 4)},
        ):
            with pytest.raises(ConfigurationError):
                train(small_inputs(), small_config(**override))

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
        blob = bytearray(good)
        struct.pack_into("<I", blob, 6 + 4 * 5, 1)  # an earlier round is in range
        path.write_bytes(bytes(blob))
        assert load_checkpoint(path).final_round == 1

    def test_retired_schedule_byte_loads_either_value(self, tmp_path):
        # the u8 after the seed (u32 x 6, i64) chose the global (0) or per-round (1) schedule;
        # only the per-round one remains, so files written under either load the same config
        _, _, cfg, path, back = self.roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        assert blob[6 + 4 * 6 + 8] == 1
        blob[6 + 4 * 6 + 8] = 0
        path.write_bytes(bytes(blob))
        assert load_checkpoint(path).config == back.config == cfg
