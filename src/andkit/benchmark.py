"""Canonical desk-scale blob benchmarks shared by scripts and the test suite.

The benchmark trains on Gaussian blobs and scores leave-one-out weighted
kNN on the training split plus plain kNN on a held-out split drawn from
the same class centers (one generation call, split in half per class, so
both splits share geometry).

One deliberate departure from the package defaults, a consequence of desk
scale: ``base_lr`` is 0.03 * batch_size. The batch objective reduces by the
mean, so matching a per-sample step size quoted for sum reduction means
scaling the rate by the batch size; with the stock 0.03 the curriculum
rounds barely move at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cli import _make_monitor
from .data import BlobSpec, Dataset, generate_blobs
from .evaluation import knn_accuracy
from .pipeline import TrainConfig, train

BENCH_LR = 0.03 * 128  # per-sample step of 0.03, rescaled for mean reduction


def make_benchmark_splits(
    classes: int, per_class_half: int, dim: int = 32, **spec
) -> tuple[Dataset, Dataset]:
    """One blob generation split per class into equal train/test halves.

    `spec` holds any further `BlobSpec` fields (`noise_sigma`, `center_scale`,
    `seed`); the ones left out keep `BlobSpec`'s defaults.
    """
    per_class = 2 * per_class_half
    ds = generate_blobs(BlobSpec(classes, per_class, dim, **spec))
    first_half = np.arange(ds.n) % per_class < per_class_half  # rows are class-major
    return (
        Dataset(inputs=ds.inputs[first_half], labels=ds.labels[first_half]),
        Dataset(inputs=ds.inputs[~first_half], labels=ds.labels[~first_half]),
    )


def benchmark_config(dim: int, seed: int, **overrides) -> TrainConfig:
    """`TrainConfig` defaults at `base_lr=BENCH_LR`, plus any `overrides`."""
    return TrainConfig(**dict(layer_sizes=(dim, 64, 16), base_lr=BENCH_LR, seed=seed) | overrides)


@dataclass
class BenchmarkResult:
    train_accuracy: float  # leave-one-out weighted kNN on the training split
    test_accuracy: float
    consistent_per_round: dict[int, int]  # class-consistent selected neighbourhoods


def run_benchmark(train_split: Dataset, test_split: Dataset, config: TrainConfig) -> BenchmarkResult:
    params, bank, records = train(train_split.inputs, config, monitor=_make_monitor(train_split))
    return BenchmarkResult(
        train_accuracy=knn_accuracy(
            train_split, params, bank, train_split.labels, leave_one_out=True
        ),
        test_accuracy=knn_accuracy(test_split, params, bank, train_split.labels),
        consistent_per_round={rec.round: rec.consistent_count for rec in records if rec.round},
    )
