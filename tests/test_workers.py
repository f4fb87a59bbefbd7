"""Threads: the N x N kernels give the same bits at every worker count, and leave none behind.

`affinity.row_blocks` runs its score blocks on up to two CPUs of the
affinity mask: the calling thread walks the first run of blocks and one
helper thread, started and joined by each call, the other. The batch loss
runs in the calling thread. Each test pins the worker count by patching
`affinity._cpus`: 3 CPUs still mean two runs. Dyadic rows keep every product
exact, so a block's scores never depend on where its rows start; random unit
rows at bank sizes that are not a multiple of 8 do not, and OpenBLAS rounds
such products differently by block height.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from andkit import affinity
from andkit.affinity import ROW_BLOCK, build_neighbourhoods, row_blocks
from andkit.evaluation import knn_predict_batch
from andkit.losses import round_batch_loss
from andkit.memory import FeatureBank
from andkit.numerics import SeededRng
from andkit.pipeline import TrainConfig, bank_entropies, plan_round, train

from conftest import dyadic_matrix, random_bank
from oracles import dense_batch_loss, dense_entropies

ROOT = Path(__file__).resolve().parents[1]
# several blocks per span and below ROW_BLOCK rows, at the current ROW_BLOCK and at fixed
# sizes (549 and 237 rows: nine and four blocks), so a re-tuned ROW_BLOCK keeps both cases
SIZES = (549, 237, 2 * ROW_BLOCK + 37, ROW_BLOCK - 19)


def at_workers(monkeypatch, workers, fn, *args, **kwargs):
    monkeypatch.setattr(affinity, "_cpus", lambda: workers)
    return fn(*args, **kwargs)


def assert_worker_invariant(monkeypatch, fn, *args, **kwargs):
    one = at_workers(monkeypatch, 1, fn, *args, **kwargs)
    for workers in (2, 3):
        got = at_workers(monkeypatch, workers, fn, *args, **kwargs)
        np.testing.assert_array_equal(got, one, err_msg=f"{workers} workers")


def dyadic_bank(n, seed):
    return FeatureBank(features=dyadic_matrix(n, 8, seed=seed))


class TestSpans:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [*SIZES, 1, ROW_BLOCK // 4 + 1, ROW_BLOCK // 2, 1000])
    def test_blocks_cover_every_row_once(self, monkeypatch, workers, n):
        queries = dyadic_matrix(n, 4, seed=n)
        keys = dyadic_matrix(50, 4, seed=1)
        seen = []  # (start, rows, thread object); list.append is atomic

        def record(start, scores):
            assert scores.shape == (scores.shape[0], 50)
            np.testing.assert_array_equal(scores, queries[start:start + len(scores)] @ keys.T)
            seen.append((start, scores.shape[0], threading.current_thread()))

        at_workers(monkeypatch, workers, row_blocks, queries, keys, record)
        # the grid depends on n alone: near-equal blocks of at most ROW_BLOCK // 2 rows
        count = -(-n // (ROW_BLOCK // 2))
        edges = [n * b // count for b in range(count + 1)]
        assert sorted((start, rows) for start, rows, _ in seen) == [
            (lo, hi - lo) for lo, hi in zip(edges, edges[1:])
        ]
        assert min(r for _, r, _ in seen) >= min(n, ROW_BLOCK // 4)
        # the calling thread walks the first run of blocks, one helper thread the other
        threads = {t for _, _, t in seen}
        assert threading.current_thread() in threads
        assert len(threads) == min(workers, 2, count)

    def test_worker_error_propagates(self, monkeypatch):
        # 300 rows are several blocks, and every block but the first raises
        threads = threading.active_count()

        def fail(start, scores):
            if start:
                raise ValueError("block failed")

        with pytest.raises(ValueError, match="block failed"):
            at_workers(monkeypatch, 2, row_blocks, np.ones((300, 2)), np.ones((3, 2)), fail)
        assert threading.active_count() == threads

    def test_caller_error_propagates(self, monkeypatch):
        threads = threading.active_count()
        helper = []  # (start, thread) of the blocks the helper walked

        def fail(start, scores):
            if not start:
                raise ValueError("first block failed")
            time.sleep(0.05)  # the helper is still busy when the calling thread raises
            helper.append((start, threading.current_thread()))

        with pytest.raises(ValueError, match="first block failed"):
            at_workers(monkeypatch, 2, row_blocks, np.ones((300, 2)), np.ones((3, 2)), fail)
        assert threading.active_count() == threads
        # the helper ran its whole run, the second half of the grid, in its own thread,
        # joined before the error was raised
        count = -(-300 // (ROW_BLOCK // 2))
        assert count >= 3
        assert [start for start, _ in helper] == [300 * b // count for b in range(count // 2, count)]
        assert threading.current_thread() not in {thread for _, thread in helper}


@pytest.mark.parametrize("n", SIZES)
class TestWorkerInvariance:
    @pytest.mark.parametrize("tau", [0.07, 1e-4])  # 1e-4 underflows most probabilities to 0
    def test_bank_entropies(self, monkeypatch, n, tau):
        assert_worker_invariant(monkeypatch, bank_entropies, dyadic_bank(n, 60), tau)

    @pytest.mark.parametrize("k", [1, 10])
    def test_build_neighbourhoods(self, monkeypatch, n, k):
        assert_worker_invariant(monkeypatch, build_neighbourhoods, dyadic_bank(n, 61), k)

    @pytest.mark.parametrize("k", [1, 10])
    def test_build_neighbourhoods_on_copied_rows(self, monkeypatch, n, k):
        # five copies of each row: every row's k-th score ties beyond k entries
        features = np.tile(dyadic_matrix(-(-n // 5), 8, seed=67), (5, 1))[:n]
        scores = features @ features.T
        np.fill_diagonal(scores, -np.inf)
        oracle = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        bank = FeatureBank(features=features)
        for workers in (1, 2, 3):
            got = at_workers(monkeypatch, workers, build_neighbourhoods, bank, k)
            np.testing.assert_array_equal(got[:, 0], np.arange(n))
            np.testing.assert_array_equal(got[:, 1:], oracle, err_msg=f"{workers} workers")

    def test_knn_predict_batch(self, monkeypatch, n):
        bank = dyadic_bank(n, 62)
        labels = np.floor(SeededRng(63).uniforms(n) * 4).astype(np.int64)
        queries = dyadic_matrix(n + 5, 8, seed=64)
        assert_worker_invariant(
            monkeypatch, knn_predict_batch, bank.features, bank, labels, leave_one_out=True
        )
        assert_worker_invariant(monkeypatch, knn_predict_batch, queries, bank, labels)

    def test_round_batch_loss(self, monkeypatch, n):
        # the loss runs in the calling thread; its bits must not move with the worker count either
        bank = random_bank(n, 8, seed=65)
        feats = random_bank(40, 8, seed=66).features
        members = np.arange(40 * 4).reshape(40, 4) % n

        def loss_and_grads():
            loss, grads = round_batch_loss(feats, members, bank, 0.07)
            return np.append(grads, loss)

        assert_worker_invariant(monkeypatch, loss_and_grads)


@pytest.mark.parametrize("n", [513, 2500])
class TestRoundedBanks:
    """Random unit banks whose row count is not a multiple of 8: products round by block height."""

    def test_bank_entropies(self, monkeypatch, n):
        # at these seeds, on an AVX-512 OpenBLAS kernel, blocks whose height followed the
        # worker count gave other last bits at 3 workers (n = 513) or at 2 and 3 (n = 2500)
        bank = random_bank(n, 16, seed=n + 3)
        assert_worker_invariant(monkeypatch, bank_entropies, bank, 0.07)

    def test_bank_entropies_when_cold(self, monkeypatch, n):
        # at tau = 1e-4 most of each row's e underflows to 0
        bank = random_bank(n, 16, seed=n + 3)
        assert_worker_invariant(monkeypatch, bank_entropies, bank, 1e-4)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_split_batch_loss_equals_the_dense_oracle(self, monkeypatch, n, workers):
        # the loss no longer splits its rows: at every CPU count it runs whole in the caller
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: (started.append(self), start(self))[1]
        )
        bank = random_bank(n, 16, seed=n + 1)
        feats = random_bank(128, 16, seed=n + 2).features
        members = (np.arange(128)[:, None] * 7 + np.arange(11)) % n
        members[::3, 1:] = members[::3, :1]  # instance rows, padded with their anchor
        loss, grads = at_workers(monkeypatch, workers, round_batch_loss, feats, members, bank, 0.07)
        assert started == []
        oracle_loss, oracle_grads = dense_batch_loss(feats, members, bank, 0.07)
        assert loss == oracle_loss
        np.testing.assert_array_equal(grads, oracle_grads)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tau", [0.07, 3e-3, 1e-4])
@pytest.mark.parametrize("n", [400, 513, 2500])
def test_entropies_equal_the_dense_oracle_on_random_banks(monkeypatch, n, tau, workers):
    # random unit rows round their products, unlike dyadic ones, so the dense oracle runs on
    # `row_blocks`' own score blocks, stacked, and any change in how the pass sums shows
    bank = random_bank(n, 16, seed=n + 7)
    stacked = np.empty((n, n))

    def put(start, scores):
        stacked[start:start + len(scores)] = scores

    at_workers(monkeypatch, workers, row_blocks, bank.features, bank.features, put)
    got = at_workers(monkeypatch, workers, bank_entropies, bank, tau)
    np.testing.assert_array_equal(got, dense_entropies(stacked, tau))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tau", [0.07, 1e-4])
@pytest.mark.parametrize("n", [ROW_BLOCK - 19, 2 * ROW_BLOCK + 37, 513, 2500])
def test_plan_equals_the_entropy_and_neighbourhood_passes(monkeypatch, n, tau, workers):
    # the plan's one pass takes each block's top k and then its entropies: both equal those of
    # the separate passes, on random rows that round their products by block height
    bank = random_bank(n, 16, seed=n + 11)
    config = TrainConfig(layer_sizes=(4, 16), rounds=4, tau=tau, k=10)
    plan = at_workers(monkeypatch, workers, plan_round, bank, config, 2)
    np.testing.assert_array_equal(plan.entropies, bank_entropies(bank, tau))
    np.testing.assert_array_equal(plan.members, build_neighbourhoods(bank, config.k))


class TestTrainThreads:
    """train starts only the row-block passes' helpers and joins each however it ends."""

    @staticmethod
    def started_threads(monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: (started.append(self), start(self))[1]
        )
        monkeypatch.setattr(affinity, "_cpus", lambda: 2)
        return started

    @staticmethod
    def config():
        return TrainConfig(layer_sizes=(4, 8), rounds=2, epochs_per_round=1, init_epochs=1, seed=5)

    def test_no_thread_left_after_train_returns(self, monkeypatch):
        inputs = SeededRng(78).normals((4000, 4))  # 128 x 4000 scores a batch, still no thread
        started = self.started_threads(monkeypatch)
        config = self.config()
        train(inputs, config)
        # each plan's one row-block pass starts one helper; the batch losses start none
        assert len(started) == config.rounds
        assert not any(thread.is_alive() for thread in started)

    def test_no_thread_left_after_train_raises(self, monkeypatch):
        inputs = SeededRng(79).normals((4000, 4))
        started = self.started_threads(monkeypatch)

        def monitor(r, plan, bank, params):
            if r == 2:
                raise RuntimeError("monitor failed")
            return {}

        with pytest.raises(RuntimeError, match="monitor failed"):
            train(inputs, self.config(), monitor=monitor)
        assert started
        assert not any(thread.is_alive() for thread in started)


class TestPrefilteredRows:
    """At n = 2000 and k = 10 top_k bounds each row by 142 groups of 14 columns and 12 more."""

    N = 2000

    def test_build_neighbourhoods(self, monkeypatch):
        bank = dyadic_bank(self.N, 68)
        assert_worker_invariant(monkeypatch, build_neighbourhoods, bank, 10)
        scores = bank.features @ bank.features.T
        np.fill_diagonal(scores, -np.inf)
        oracle = np.argsort(-scores, axis=1, kind="stable")[:, :10]
        np.testing.assert_array_equal(build_neighbourhoods(bank, 10)[:, 1:], oracle)

    def test_knn_predict_batch(self, monkeypatch):
        bank = dyadic_bank(self.N, 69)
        labels = np.floor(SeededRng(70).uniforms(self.N) * 4).astype(np.int64)
        assert_worker_invariant(
            monkeypatch, knn_predict_batch, bank.features, bank, labels, leave_one_out=True
        )
        assert_worker_invariant(monkeypatch, knn_predict_batch, bank.features[:300], bank, labels)


def test_cli_import_loads_no_pool_and_a_pooled_plan_leaves_no_thread():
    # a fresh interpreter: what `andkit.cli` imports and which threads run are process-wide
    code = """
import sys, threading
import andkit.cli
assert "concurrent.futures" not in sys.modules, "andkit.cli imports concurrent.futures"
from andkit import affinity
from andkit.memory import init_bank
from andkit.numerics import SeededRng
from andkit.pipeline import TrainConfig, plan_round
affinity._cpus = lambda: 2
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))[1]
plan_round(init_bank(300, 8, SeededRng(0)), TrainConfig(layer_sizes=(4, 8), k=3), 1)
assert started, "the plan ran inline"
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules, "the plan imported concurrent.futures"
"""
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
