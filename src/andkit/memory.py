"""Per-sample feature memory refreshed by exponential moving average.

The bank holds one unit-norm float64 row per training sample. Fresh batch
features are blended in as ``(1 - eta) * old + eta * fresh`` and the row is
re-normalized afterwards: the blend alone does not preserve unit norm, and
every consumer treats bank inner products as cosine similarities. The rate
eta is not part of the bank: the caller passes `TrainConfig.eta`, which is
where its range is checked. The scores of one query against the bank,
`all_similarities`, are a test oracle in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .numerics import SeededRng, l2_normalize_rows


@dataclass
class FeatureBank:
    """N x D memory of unit-norm feature rows; `update_batch` blends fresh rows in."""

    features: np.ndarray  # (n, d) float64, unit rows

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def init_bank(n: int, d: int, rng: SeededRng) -> FeatureBank:
    """Fill a bank with independent random unit directions.

    Rows are seeded random normals, normalized. Zero-initialised rows would
    be non-normalizable and make similarity scores meaningless, so random
    directions are the only sane cold start.
    """
    if n < 2 or d < 2:
        raise ConfigurationError(f"bank needs n >= 2 and d >= 2, got ({n}, {d})")
    return FeatureBank(features=l2_normalize_rows(rng.normals((n, d))))


def update_batch(bank: FeatureBank, indices, fresh, eta: float) -> None:
    """Blend fresh unit-norm rows into the bank at `indices` at rate eta, then renormalize.

    Rows not named in `indices` are untouched. Indices must be unique;
    a duplicate would make the result depend on iteration order.
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    fresh = np.asarray(fresh, dtype=np.float64)
    if fresh.ndim != 2 or fresh.shape[0] != idx.size:
        raise ContractError(
            f"fresh rows {fresh.shape} do not match {idx.size} indices"
        )
    if fresh.shape[1] != bank.d:
        raise DimensionError(f"fresh dim {fresh.shape[1]} != bank dim {bank.d}")
    if np.unique(idx).size != idx.size:
        raise ContractError("duplicate indices in one memory update")
    if idx.size and (idx.min() < 0 or idx.max() >= bank.n):
        raise IndexError(f"index out of range for bank of {bank.n} rows")
    blended = (1.0 - eta) * bank.features[idx] + eta * fresh
    bank.features[idx] = l2_normalize_rows(blended)

