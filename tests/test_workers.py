"""Workers: the N x N kernels and the batch loss give the same bits at every worker count.

`affinity.row_blocks` runs its score blocks, and `round_batch_loss` the rows
between its two products, on the CPUs in the affinity mask. Each test pins
the worker count by patching `affinity._cpus`: 3 workers cut the rows into
uneven spans even on a 2-CPU machine. Dyadic rows keep every product exact,
so a block's scores never depend on where its rows start; random unit rows
at bank sizes that are not a multiple of 8 do not, and OpenBLAS rounds such
products differently by block height.
"""

import functools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from andkit import affinity, losses
from andkit.affinity import (
    MIN_ROWS,
    PREFILTER,
    ROW_BLOCK,
    Workers,
    build_neighbourhoods,
    row_blocks,
)
from andkit.evaluation import knn_predict_batch
from andkit.losses import round_batch_loss
from andkit.memory import FeatureBank
from andkit.numerics import SeededRng
from andkit.pipeline import TrainConfig, bank_entropies, train

from conftest import dense_batch_loss, dyadic_matrix, random_bank

ROOT = Path(__file__).resolve().parents[1]
SIZES = (2 * ROW_BLOCK + 37, ROW_BLOCK - 19)  # several blocks per span; below one block


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
    @pytest.mark.parametrize("n", [*SIZES, 1, MIN_ROWS + 1, 2 * MIN_ROWS, 1000])
    def test_blocks_cover_every_row_once(self, monkeypatch, workers, n):
        queries = dyadic_matrix(n, 4, seed=n)
        keys = dyadic_matrix(50, 4, seed=1)
        seen = []  # (start, rows, thread object); list.append is atomic

        def record(start, scores, aux):
            assert scores.shape == aux.shape == (scores.shape[0], 50)
            assert aux.dtype == np.float64
            np.testing.assert_array_equal(scores, queries[start:start + len(scores)] @ keys.T)
            seen.append((start, scores.shape[0], threading.current_thread()))

        at_workers(monkeypatch, workers, row_blocks, queries, keys, record, scratch=True)
        # the grid depends on n alone: near-equal blocks of at most ROW_BLOCK // 2 rows
        count = -(-n // (ROW_BLOCK // 2))
        edges = [n * b // count for b in range(count + 1)]
        assert sorted((start, rows) for start, rows, _ in seen) == [
            (lo, hi - lo) for lo, hi in zip(edges, edges[1:])
        ]
        assert min(r for _, r, _ in seen) >= min(n, MIN_ROWS)
        # the calling thread walks the first run of blocks, one helper thread the other
        threads = {t for _, _, t in seen}
        assert threading.current_thread() in threads
        assert len(threads) == min(workers, 2, count)

    def test_worker_error_propagates(self, monkeypatch):
        def fail(start, scores):
            if start:
                raise ValueError("block failed")

        with pytest.raises(ValueError, match="block failed"):
            at_workers(monkeypatch, 2, row_blocks, np.ones((300, 2)), np.ones((3, 2)), fail)


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


class CountingWorkers(Workers):
    """A Workers pool that records how many tasks each job had."""

    def __init__(self):
        super().__init__()
        self.spans = []

    def run(self, tasks):
        self.spans.append(len(tasks))
        super().run(tasks)


def split_batch_loss(monkeypatch, workers, feats, members, bank, tau):
    """round_batch_loss through a pool at a pinned CPU count; also the spans it ran."""
    monkeypatch.setattr(affinity, "_cpus", lambda: workers)
    with CountingWorkers() as pool:
        loss, grads = round_batch_loss(feats, members, bank, tau, workers=pool)
    return loss, grads, pool.spans


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
        monkeypatch.setattr(losses, "SPLIT_SCORES", 1)  # split whatever the bank size
        bank = random_bank(n, 16, seed=n + 1)
        feats = random_bank(128, 16, seed=n + 2).features
        members = (np.arange(128)[:, None] * 7 + np.arange(11)) % n
        members[::3, 1:] = members[::3, :1]  # instance rows, padded with their anchor
        loss, grads, spans = split_batch_loss(monkeypatch, workers, feats, members, bank, 0.07)
        assert spans == [workers]
        oracle_loss, oracle_grads = dense_batch_loss(feats, members, bank, 0.07)
        assert loss == oracle_loss
        np.testing.assert_array_equal(grads, oracle_grads)


class TestBatchLossSplit:
    def test_splits_only_where_each_span_holds_enough_scores(self, monkeypatch):
        feats = random_bank(128, 16, seed=75).features
        members = np.arange(128)[:, None]
        spans = {}
        for n in (400, 3999, 4000, 5000):  # 400: the desk workload's batches stay inline
            bank = random_bank(n, 16, seed=n)
            spans[n] = split_batch_loss(monkeypatch, 2, feats, members % n, bank, 0.07)[2]
        assert spans == {400: [], 3999: [], 4000: [2], 5000: [2]}  # []: inline, the pool never runs
        # a short last batch stays inline, whatever the bank size
        short = split_batch_loss(monkeypatch, 2, feats[:40], members[:40], bank, 0.07)[2]
        assert short == []

    def test_error_in_a_helper_span_is_raised_in_the_caller(self, monkeypatch):
        bank = random_bank(2500, 16, seed=76)
        feats = random_bank(128, 16, seed=77).features
        members = np.arange(128)[:, None].copy()
        # out of range in the last row, the helper's; the member gather raises before the
        # spans run (test_workers_run_every_task_and_raise_a_helper_error covers a helper)
        members[-1] = bank.n
        with pytest.raises(IndexError):
            split_batch_loss(monkeypatch, 2, feats, members, bank, 0.07)

    def test_workers_run_every_task_and_raise_a_helper_error(self):
        done = []

        def fail():
            raise ValueError("helper failed")

        with Workers() as pool:
            pool.run([lambda: done.append(threading.current_thread())] * 3)
            with pytest.raises(ValueError, match="helper failed"):
                pool.run([lambda: None, fail])
            pool.run([lambda: done.append(0), lambda: done.append(1)])  # the pool still works
        assert done[0] is threading.current_thread() and len(set(done[:3])) == 3
        assert sorted(done[3:]) == [0, 1]

    def test_every_task_is_done_when_run_returns(self):
        # more helpers than cores and a short switch interval, to shake out a lost wake-up
        counts = [0] * 4

        def bump(i):
            counts[i] += 1  # each task owns its slot

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Workers() as pool:
                for job in range(1, 301):
                    pool.run([functools.partial(bump, i) for i in range(4)])
                    assert counts == [job] * 4
        finally:
            sys.setswitchinterval(interval)


class TestTrainThreads:
    """train starts the batch loss's helper at most once and joins it however it ends."""

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
        inputs = SeededRng(78).normals((4000, 4))  # 128 x 4000 scores a batch: the loss splits
        started = self.started_threads(monkeypatch)
        config = self.config()
        train(inputs, config)
        # one helper serves every batch of the run; each plan's two row-block passes start one
        assert len(started) == 1 + 2 * config.rounds
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
    """At n = 2000 and k = 10 top_k narrows each row to candidate columns first."""

    N = 2000

    def test_rows_are_wide_enough_to_narrow(self):
        assert self.N >= PREFILTER * 10

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


class TestScratchBuffers:
    @pytest.mark.parametrize("b", [128, 37])  # a full batch and a short last one
    def test_round_batch_loss_with_and_without_work(self, b):
        bank = random_bank(300, 8, seed=72)
        feats = random_bank(b, 8, seed=73).features
        members = (np.arange(b)[:, None] * 7 + np.arange(5)) % 300
        members[::4, 1:] = members[::4, :1]  # instance rows, padded with their anchor
        work = np.full((128, 300), np.nan)  # a stale buffer, as train reuses one per round
        loss, grads = round_batch_loss(feats, members, bank, 0.07, work=work[:b])
        plain_loss, plain_grads = round_batch_loss(feats, members, bank, 0.07)
        oracle_loss, oracle_grads = dense_batch_loss(feats, members, bank, 0.07)
        assert loss == plain_loss == oracle_loss
        np.testing.assert_array_equal(grads, plain_grads)
        np.testing.assert_array_equal(grads, oracle_grads)

    def test_round_batch_loss_rejects_a_misfit_work_buffer(self):
        from andkit.errors import ContractError

        bank = random_bank(30, 4, seed=74)
        feats = bank.features[:5]
        with pytest.raises(ContractError, match="work buffer"):
            round_batch_loss(feats, np.arange(5)[:, None], bank, 0.07, work=np.empty((6, 30)))


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
