"""Row-block workers: the N x N kernels give the same bits at every worker count.

`affinity.row_blocks` runs its score blocks on every CPU in the affinity mask.
Each test pins the worker count by patching `affinity._cpus`: 3 workers cut
the rows into uneven spans even on a 2-CPU machine. Dyadic rows keep every
product exact, so a block's scores never depend on where its rows start.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from andkit import affinity
from andkit.affinity import MIN_ROWS, PREFILTER, ROW_BLOCK, build_neighbourhoods, row_blocks
from andkit.evaluation import knn_predict_batch
from andkit.losses import round_batch_loss
from andkit.memory import FeatureBank
from andkit.numerics import SeededRng
from andkit.pipeline import bank_entropies

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

        def record(start, scores, aux, mask):
            assert scores.shape == aux.shape == mask.shape == (scores.shape[0], 50)
            assert aux.dtype == np.float64 and mask.dtype == bool
            np.testing.assert_array_equal(scores, queries[start:start + len(scores)] @ keys.T)
            seen.append((start, scores.shape[0], threading.current_thread()))

        at_workers(monkeypatch, workers, row_blocks, queries, keys, record, scratch=True)
        covered = np.concatenate([np.arange(start, start + rows) for start, rows, _ in seen])
        np.testing.assert_array_equal(np.sort(covered), np.arange(n))
        used = min(workers, max(1, n // MIN_ROWS))
        # the calling thread walks the first span, one new thread each of the others
        threads = {t for _, _, t in seen}
        assert threading.current_thread() in threads
        assert len(threads) == used
        assert max(r for _, r, _ in seen) <= ROW_BLOCK // used
        assert min(r for _, r, _ in seen) >= min(n, MIN_ROWS)

    def test_worker_error_propagates(self, monkeypatch):
        def fail(start, scores):
            if start:
                raise ValueError("block failed")

        with pytest.raises(ValueError, match="block failed"):
            at_workers(monkeypatch, 2, row_blocks, np.ones((100, 2)), np.ones((3, 2)), fail)


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
        work = np.full((2, 128, 300), np.nan)  # a stale buffer, as train reuses one per round
        loss, grads = round_batch_loss(feats, members, bank, 0.07, work=work[:, :b])
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
            round_batch_loss(feats, np.arange(5)[:, None], bank, 0.07, work=np.empty((2, 6, 30)))


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
