"""Small MLP feature extractor with hand-written forward and backward.

The network is a stack of affine layers with ReLU between them (never
after the last), followed by per-row L2 normalization so every feature
lands on the unit sphere. The backward pass is exact, including the
normalization Jacobian: for y = z / ||z||,

    dL/dz = (g - (g . y) y) / ||z||

where g is the upstream gradient on y. A pre-normalization row with norm
at or below 1e-12 aborts with an error instead of being epsilon-fudged;
a silent epsilon would change gradients and poison finite-difference
checks.

`EncoderParams` is the one type for encoder state: the parameters, the
gradients `backward` returns and the velocities `sgd_nesterov_step` keeps
(`params.zeros_like()` at the start) all hold per-layer `weights` and
`biases` of the same shapes. Optimisation is SGD with Nesterov momentum,
fixed update

    v <- mu * v - lr * g
    theta <- theta + mu * v - lr * g

and a per-round step schedule: every round (the warm-up included) holds the
base learning rate for the first 40% of a 200-epoch reference round, then
scales it by 0.1 every further 20%. When the configured epochs per round
differ from 200 the boundaries scale proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError, NumericError
from .numerics import SeededRng, is_integer, row_norms

REFERENCE_EPOCHS = 200
DECAY_START = 80
DECAY_EVERY = 40


@dataclass(frozen=True)
class EncoderConfig:
    layer_sizes: tuple[int, ...]  # (input dim, hidden..., output dim)
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(self.layer_sizes)
        if not all(map(is_integer, (*sizes, self.seed))):
            raise ConfigurationError(
                f"layer sizes and seed must be integers, got {sizes!r}, seed {self.seed!r}"
            )
        sizes = tuple(map(int, sizes))
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigurationError(f"layer_sizes needs >= 2 positive entries, got {sizes}")
        if sizes[-1] < 2:
            raise ConfigurationError(f"output dim must be >= 2, got {sizes[-1]}")


@dataclass
class EncoderParams:
    """Per-layer weights and biases: parameters, their gradients, or their velocities."""

    weights: list[np.ndarray]  # layer l: (out_l, in_l)
    biases: list[np.ndarray]  # layer l: (out_l,)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    def copy(self) -> "EncoderParams":
        return EncoderParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def zeros_like(self) -> "EncoderParams":
        """All-zero arrays of the same shapes: the velocity a run starts from."""
        return EncoderParams(
            [np.zeros_like(w) for w in self.weights], [np.zeros_like(b) for b in self.biases]
        )


@dataclass
class ForwardCache:
    params: EncoderParams
    layer_inputs: list[np.ndarray]  # input to each affine layer
    pre_acts: list[np.ndarray]  # affine outputs before activation
    norms: np.ndarray  # per-row norm of the final affine output
    features: np.ndarray  # normalized output rows


def init_params(config: EncoderConfig) -> EncoderParams:
    """Seeded scaled-uniform fan-in init: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), b = 0."""
    rng = SeededRng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(config.layer_sizes[:-1], config.layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append((rng.uniforms((fan_out, fan_in)) * 2.0 - 1.0) * bound)
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return EncoderParams(weights=weights, biases=biases)


def forward(params: EncoderParams, inputs) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; returns unit-norm feature rows and a backward cache."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[1]:
        raise DimensionError(
            f"inputs shape {x.shape} incompatible with first layer {params.weights[0].shape}"
        )
    num_layers = len(params.weights)
    layer_inputs, pre_acts = [x], []
    a = x
    for l, (w, bias) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + bias
        pre_acts.append(z)
        if l < num_layers - 1:
            a = np.maximum(z, 0.0)
            layer_inputs.append(a)
    z_last = pre_acts[-1]
    norms = row_norms(z_last, "pre-normalization feature row")
    features = z_last / norms[:, None]
    cache = ForwardCache(
        params=params,
        layer_inputs=layer_inputs,
        pre_acts=pre_acts,
        norms=norms,
        features=features,
    )
    return features, cache


def backward(params: EncoderParams, cache: ForwardCache, grad_wrt_features) -> EncoderParams:
    """Exact parameter gradients for the loss whose feature gradient is given."""
    if cache.params is not params:
        raise ContractError("cache does not belong to these parameters")
    g = np.asarray(grad_wrt_features, dtype=np.float64)
    if g.shape != cache.features.shape:
        raise ContractError(
            f"upstream grad shape {g.shape} != features shape {cache.features.shape}"
        )
    y = cache.features
    radial = np.einsum("ij,ij->i", g, y)
    gz = (g - radial[:, None] * y) / cache.norms[:, None]
    grads_w, grads_b = [], []
    for l in range(len(params.weights) - 1, -1, -1):
        grads_w.append(gz.T @ cache.layer_inputs[l])
        grads_b.append(gz.sum(axis=0))
        if l > 0:
            gz = (gz @ params.weights[l]) * (cache.pre_acts[l - 1] > 0.0)
    return EncoderParams(weights=grads_w[::-1], biases=grads_b[::-1])


def sgd_nesterov_step(
    params: EncoderParams, grads: EncoderParams, velocity: EncoderParams, lr: float, momentum: float
) -> None:
    """Nesterov update of `params` and `velocity` in place; aborts untouched on non-finite grads."""
    tensors = list(zip(params.weights, grads.weights, velocity.weights)) + list(
        zip(params.biases, grads.biases, velocity.biases)
    )
    for _, g, _ in tensors:
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient; refusing to step")
    for theta, g, v in tensors:
        v *= momentum
        v -= lr * g
        theta += momentum * v - lr * g


def lr_at(epoch: int, base_lr: float, epochs_per_round: int = REFERENCE_EPOCHS) -> float:
    """Learning rate at a (0-based) epoch within a round under the scaled step schedule.

    With the 200-epoch reference round the rate holds for 80 epochs and is
    multiplied by 0.1 at epoch 80 and every 40 epochs after; shorter or
    longer rounds shift those boundaries proportionally. A non-positive
    round length disables decay.
    """
    if epoch < 0:
        raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
    if epochs_per_round <= 0:
        return base_lr
    scale = epochs_per_round / REFERENCE_EPOCHS
    first = DECAY_START * scale
    if epoch < first:
        return base_lr
    return base_lr * 0.1 ** (1 + int((epoch - first) // (DECAY_EVERY * scale)))
