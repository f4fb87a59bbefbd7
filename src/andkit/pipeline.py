"""Training orchestration: curriculum rounds, epoch loop, checkpoints, plans files.

A run is R + 1 rounds of one epoch loop: round 0 is the instance-only
warm-up (the all-singleton plan, nothing selected), then R curriculum rounds.
At the start of round r >= 1 the memory bank is frozen for planning: every
sample's similarity distribution (query = its own memory row) yields a
consistency entropy, the floor(N * r / R) lowest-entropy anchors are
selected for neighbourhood supervision, and the exact top-k member array of
every anchor is built (row i: anchor i first, then its k nearest rows),
both from one `affinity.bank_pass` over the bank. The plan stays fixed for
the whole round while the bank keeps updating every batch. In `plan_round`,
one-off selects as at round R and instance-only selects no anchor. Every
round, the warm-up included, anneals from `base_lr`.

Training never sees labels: `train` accepts only the raw input matrix.
Label-dependent diagnostics (neighbourhood consistency, kNN accuracy)
enter through the optional `monitor` callback wired up by the CLI, which
also records each round's plan (`plan_record`) for its plans file.
Checkpoints and plans files are written whole or not at all (`write_atomic`).

Checkpoint format (extension ``.andc``, all integers little-endian):

    magic    4 bytes  b"ANDC"
    version  u16      1
    config   fixed-order block (`_CONFIG_FIELDS` order, packed by `_CONFIG`):
        rounds, epochs_per_round, init_epochs*, batch_size, k,
        final_round                                   each u32
        seed                                          i64
        schedule (retired: written 1, either value read), one_off,
        instance_only, reserved (always 0; else a FormatError)  each u8
        base_lr, momentum, tau, eta                   each f64
        (*) init_epochs stores 0xFFFFFFFF when unset
    layers   u32 count, then one u32 per layer size
    params   per layer: row-major f64 weights, then f64 biases
    bank     u32 n, u32 d, then row-major f64 feature rows

Plans format (``plans.andp``, written by ``andkit train`` next to its
checkpoint; all integers little-endian): the plan every curriculum round
trained on, so that ``andkit inspect`` reads it instead of re-planning.

    magic    4 bytes  b"ANDP"
    version  u16      1
    n, k, rounds      each u32 (the checkpoint's bank rows, k and rounds)
    crc      u32      zlib.crc32 of the checkpoint file's bytes
    then for each round r = 1..rounds, in order:
        entropies     n f64
        selected      ceil(n / 8) bytes, bit i of byte i // 8 (least
                      significant first) set for a selected anchor; the
                      padding bits are 0
        members       n * (k + 1) i32, row-major, anchor first
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .affinity import bank_pass
from .affinity import build_neighbourhoods  # not called here; perfbench/spans.py wraps it by name
from .data import BinaryReader, input_matrix, make_batches, write_atomic
from .encoder import (
    EncoderConfig,
    EncoderParams,
    backward,
    forward,
    init_params,
    lr_at,
    sgd_nesterov_step,
)
from .errors import ConfigurationError, ContractError, DegenerateInputError, FormatError
from .losses import round_batch_loss
from .memory import FeatureBank, init_bank, update_batch
from .numerics import SeededRng, check_kinds, check_positive, derive_seed

_MAGIC = b"ANDC"
_VERSION = 1
_HEAD = "<4sH"
_CONFIG = "<6Iq????dddd"  # "?": the four u8 0/1 config bytes
_U32_MAX = 0xFFFFFFFF  # also the stored init_epochs that means None
# Field order of the checkpoint config block; `_CONFIG` gives each one's type.
_CONFIG_FIELDS = (
    "rounds",
    "epochs_per_round",
    "init_epochs",
    "batch_size",
    "k",
    "final_round",
    "seed",
    "schedule",
    "one_off",
    "instance_only",
    "reserved",
    "base_lr",
    "momentum",
    "tau",
    "eta",
)

_PLANS_MAGIC = b"ANDP"
_PLANS_VERSION = 1
_PLANS_HEAD = "<4sHIIII"  # magic, version, n, k, rounds, checkpoint crc
PLANS_FILE = "plans.andp"

MonitorFn = Callable[[int, "RoundPlan", FeatureBank, EncoderParams], dict]


@dataclass(frozen=True)
class TrainConfig:
    """Full recipe for one training run; every knob is seed-determined.

    The one home of the training defaults: the CLI passes only the flags given,
    and `scripts/paper_claims.py` departs from them only in `base_lr`. Building
    one refuses a bad field; `validate(n)` adds the rules on the sample count.
    """

    layer_sizes: tuple[int, ...]
    rounds: int = 4
    epochs_per_round: int = 20
    init_epochs: int | None = None  # None means "same as epochs_per_round"
    batch_size: int = 128
    base_lr: float = 0.03
    momentum: float = 0.9
    tau: float = 0.07
    eta: float = 0.5
    k: int = 1
    seed: int = 0
    one_off: bool = False  # ablation: plan all anchors at round 1, never re-plan
    instance_only: bool = False  # baseline: every sample keeps its instance term

    def __post_init__(self):
        if isinstance(self.layer_sizes, list):  # as a manifest holds; other non-tuples are refused
            object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))
        check_kinds(self)
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.epochs_per_round < 0 or (self.init_epochs is not None and self.init_epochs < 0):
            raise ConfigurationError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        check_positive("base_lr", self.base_lr)
        # Nesterov's velocity decays only for momentum < 1; at 1 or more it never forgets a step
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {self.momentum}")
        check_positive("tau", self.tau)
        if not 0.0 < self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in (0, 1], got {self.eta}")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.one_off and self.instance_only:
            raise ConfigurationError("one_off and instance_only exclude each other")
        EncoderConfig(layer_sizes=self.layer_sizes)  # the one home of the layer-size rules
        # checkpoint v1 stores the counts and layer sizes as u32 and the seed as i64
        u32 = (self.rounds, self.epochs_per_round, self.batch_size, self.k, *self.layer_sizes)
        if max(u32) > _U32_MAX or (self.init_epochs or 0) >= _U32_MAX:
            raise ConfigurationError(
                f"counts and layer sizes must be <= {_U32_MAX} (init_epochs < {_U32_MAX})"
            )
        if not -(2**63) <= self.seed < 2**63:
            raise ConfigurationError(f"seed must fit in a signed 64-bit integer, got {self.seed}")

    def validate(self, n: int) -> None:
        """Raise ConfigurationError unless `n` samples can train this config."""
        if n < 2:
            raise ConfigurationError(f"need at least 2 samples, got {n}")
        if self.k > n - 1:
            raise ConfigurationError(f"k must lie in [1, {n - 1}] for {n} samples, got {self.k}")

    @property
    def init_epochs_resolved(self) -> int:
        return self.epochs_per_round if self.init_epochs is None else self.init_epochs


@dataclass
class RoundPlan:
    """Frozen curriculum state for one round.

    `members` holds a row for every anchor, selected or not: anchor i first,
    then its k nearest bank rows (k = 0: the singleton). Selected anchors
    train on their row's neighbourhood term, the rest on their instance term.
    """

    entropies: np.ndarray  # (n,) consistency entropies at planning time
    selected: np.ndarray  # (n,) bool, True for neighbourhood-supervised anchors
    members: np.ndarray  # (n, k+1) int64, anchor first

    def batch_members(self, batch) -> np.ndarray:
        """(b, k+1) member rows of a batch; unselected rows collapse to their anchor."""
        idx = np.asarray(batch, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= self.selected.size)]
        if bad.size:
            raise ContractError(f"sample {int(bad[0])} missing from the round plan")
        return np.where(self.selected[idx, None], self.members[idx], idx[:, None])


@dataclass
class MetricsRecord:
    """One training epoch's diagnostics; JSONL-friendly."""

    round: int
    epoch: int
    mean_loss: float
    selected_fraction: float
    consistent_count: int | None = None
    inconsistent_count: int | None = None
    knn_accuracy: float | None = None


def select_anchors(entropies, r: int, R: int) -> np.ndarray:
    """Mask of the floor(N * r / R) lowest-entropy anchors, ties to lower index."""
    if not 1 <= r <= R:
        raise ContractError(f"round {r} outside [1, {R}]")
    h = np.asarray(entropies, dtype=np.float64)
    count = (h.size * r) // R
    mask = np.zeros(h.size, dtype=bool)
    mask[np.argsort(h, kind="stable")[:count]] = True
    return mask


def bank_entropies(bank: FeatureBank, tau: float) -> np.ndarray:
    """Consistency entropy of every memory row queried against the whole bank (`bank_pass`)."""
    return bank_pass(bank, 0, tau)[1]


def plan_round(bank: FeatureBank, config: TrainConfig, r: int) -> RoundPlan:
    """Freeze entropies, neighbourhoods, and the selection mask that round r trains on.

    One `bank_pass` computes each block of bank scores once for both the
    members and the entropies, so the plan equals `build_neighbourhoods`
    plus `bank_entropies` bit for bit. One-off selects as at round R in
    every round; instance-only selects no anchor.
    """
    members, entropies = bank_pass(bank, config.k, config.tau)
    return RoundPlan(entropies, _selection(entropies, config, r), members)


def _selection(entropies: np.ndarray, config: TrainConfig, r: int) -> np.ndarray:
    """The anchors that round r selects by these entropies, as `plan_round` describes."""
    if config.instance_only:
        return np.zeros(entropies.size, dtype=bool)
    return select_anchors(entropies, config.rounds if config.one_off else r, config.rounds)


def train(
    inputs,
    config: TrainConfig,
    monitor: MonitorFn | None = None,
) -> tuple[EncoderParams, FeatureBank, list[MetricsRecord]]:
    """Run the full curriculum and return final params, bank, and metrics.

    `inputs` is the raw (n, d_in) sample matrix; labels are deliberately
    not accepted here. The run is bit-reproducible from `config.seed`: the
    seed is split into independent streams for weight init, bank init, and
    batch shuffling. `monitor`, when given, is called once per round with
    (round, plan, bank, params) and may return extra MetricsRecord fields
    (consistency counts, kNN accuracy) merged into that round's records.
    The batch losses run in the calling thread; each row-block pass of a
    plan or monitor starts and joins its own helper (`affinity.row_blocks`).
    """
    x = input_matrix(inputs, copy=False)
    n = x.shape[0]
    config.validate(n)
    if x.shape[1] != config.layer_sizes[0]:
        raise ConfigurationError(
            f"input dim {x.shape[1]} != first layer size {config.layer_sizes[0]}"
        )

    params = init_params(EncoderConfig(config.layer_sizes, seed=derive_seed(config.seed, 1)))
    bank = init_bank(n, config.layer_sizes[-1], SeededRng(derive_seed(config.seed, 2)))
    batch_rng = SeededRng(derive_seed(config.seed, 3))
    velocity = params.zeros_like()
    batch_size = min(config.batch_size, n)

    records: list[MetricsRecord] = []
    # round 0 is the warm-up: it selects no anchor, so every sample trains on its instance term
    plan = RoundPlan(np.zeros(n), np.zeros(n, dtype=bool), np.arange(n)[:, None])
    for r in range(config.rounds + 1):
        if r and (r == 1 or not config.one_off):  # one-off plans once and never re-plans
            plan = plan_round(bank, config, r)
        extra = dict(monitor(r, plan, bank, params)) if r and monitor is not None else {}
        for e in range(config.epochs_per_round if r else config.init_epochs_resolved):
            lr = lr_at(e, config.base_lr, config.epochs_per_round)
            loss_sum = 0.0
            for batch in make_batches(n, batch_size, batch_rng):
                try:
                    feats, cache = forward(params, x[batch])
                except DegenerateInputError as err:  # err.row is the row within the batch
                    raise DegenerateInputError(f"sample {int(batch[err.row])}: {err}") from err
                loss, gfeats = round_batch_loss(feats, plan.batch_members(batch), bank, config.tau)
                grads = backward(params, cache, gfeats)
                sgd_nesterov_step(params, grads, velocity, lr, config.momentum)
                update_batch(bank, batch, feats, config.eta)
                loss_sum += loss * batch.size
            records.append(
                MetricsRecord(
                    round=r,
                    epoch=len(records),
                    mean_loss=loss_sum / n,
                    selected_fraction=float(plan.selected.mean()),
                    **extra,
                )
            )
    return params, bank, records


@dataclass
class Checkpoint:
    params: EncoderParams
    bank: FeatureBank
    config: TrainConfig
    final_round: int
    crc32: int  # zlib.crc32 of the file's bytes, which a plans file names


def save_checkpoint(
    params: EncoderParams,
    bank: FeatureBank,
    config: TrainConfig,
    path,
    final_round: int | None = None,
) -> int:
    """Serialise params, bank, and config atomically; the round trip is bit-exact.

    Returns the zlib.crc32 of the bytes written, for `save_plans`.
    """
    sizes = params.layer_sizes
    if tuple(config.layer_sizes) != sizes:
        raise ContractError(f"config layers {config.layer_sizes} != params layers {sizes}")
    fields = asdict(config) | {
        "final_round": config.rounds if final_round is None else final_round,
        "init_epochs": _U32_MAX if config.init_epochs is None else config.init_epochs,
        "schedule": True,  # retired: the per-round schedule runs whatever this byte holds
        "reserved": False,
    }
    parts = [
        struct.pack(_HEAD, _MAGIC, _VERSION),
        struct.pack(_CONFIG, *(fields[name] for name in _CONFIG_FIELDS)),
        struct.pack("<I", len(sizes)),
        struct.pack(f"<{len(sizes)}I", *sizes),
    ]
    for w, b in zip(params.weights, params.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    parts.append(struct.pack("<II", bank.n, bank.d))
    parts.append(np.ascontiguousarray(bank.features, dtype="<f8").tobytes())
    blob = b"".join(parts)
    write_atomic(path, blob)
    return zlib.crc32(blob)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back; a malformed file, bad config or NaN/inf value is a FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()  # whole: its crc32 binds a plans file to it
    rd = BinaryReader(path, io.BytesIO(blob))
    rd.head(_HEAD, _MAGIC, _VERSION)
    fields = dict(zip(_CONFIG_FIELDS, rd.unpack(_CONFIG)))
    (num_sizes,) = rd.unpack("<I")
    sizes = rd.unpack(f"<{num_sizes}I")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rd.array("<f8", fan_out, fan_in))
        biases.append(rd.array("<f8", fan_out))
    bank_n, bank_d = rd.unpack("<II")
    features = rd.array("<f8", bank_n, bank_d)
    rd.end()
    if not all(np.isfinite(a).all() for a in (*weights, *biases, features)):
        raise FormatError(f"{path}: non-finite weight, bias or bank value")
    final_round = fields.pop("final_round")
    fields.pop("schedule")  # retired; files from either schedule load into the one that remains
    if fields.pop("reserved"):
        raise FormatError(f"{path}: reserved config byte is not 0")
    if fields["init_epochs"] == _U32_MAX:
        fields["init_epochs"] = None
    try:
        config = TrainConfig(layer_sizes=sizes, **fields)
        config.validate(bank_n)
        if bank_d != sizes[-1]:
            raise ConfigurationError(f"bank width {bank_d} != the last layer size {sizes[-1]}")
        if not 1 <= final_round <= config.rounds:
            raise ConfigurationError(f"final_round {final_round} outside [1, {config.rounds}]")
    except ConfigurationError as err:
        raise FormatError(f"{path}: invalid config: {err}") from err
    return Checkpoint(
        params=EncoderParams(weights=weights, biases=biases),
        bank=FeatureBank(features=features),
        config=config,
        final_round=final_round,
        crc32=zlib.crc32(blob),
    )


def plan_record(plan: RoundPlan) -> bytes:
    """One round's entry in a plans file: entropies, packed selected bits, int32 members."""
    entropies = np.ascontiguousarray(plan.entropies, dtype="<f8").tobytes()
    selected = np.packbits(plan.selected, bitorder="little").tobytes()
    return entropies + selected + np.ascontiguousarray(plan.members, dtype="<i4").tobytes()


def save_plans(records: list[bytes], n: int, k: int, checkpoint_crc: int, path) -> None:
    """Write one `plan_record` per round, r = 1 first, bound to a checkpoint by its CRC."""
    head = (_PLANS_MAGIC, _PLANS_VERSION, n, k, len(records), checkpoint_crc)
    write_atomic(path, b"".join((struct.pack(_PLANS_HEAD, *head), *records)))


def load_plan(path, ckpt: Checkpoint, r: int) -> RoundPlan:
    """Read round r's plan from a plans file written with `ckpt`.

    Reads the header and round r only. A malformed file, a round that
    breaks the plan invariants (finite entropies, the selection they make,
    distinct members in range, anchor first), or a file that names another
    checkpoint is a FormatError.
    """
    n, k, rounds = ckpt.bank.n, ckpt.config.k, ckpt.config.rounds
    if not 1 <= r <= rounds:
        raise ContractError(f"round {r} outside [1, {rounds}]")
    packed = -(-n // 8)
    size = 8 * n + packed + 4 * n * (k + 1)
    with open(path, "rb") as fh:
        rd = BinaryReader(path, fh)
        *shape, crc = rd.head(_PLANS_HEAD, _PLANS_MAGIC, _PLANS_VERSION)
        if shape != [n, k, rounds] or crc != ckpt.crc32:
            raise FormatError(
                f"{path}: written for another checkpoint (n, k, rounds, crc32 "
                f"{(*shape, crc)} != {(n, k, rounds, ckpt.crc32)})"
            )
        rd.skip((r - 1) * size)
        entropies = rd.array("<f8", n)
        selected = np.unpackbits(rd.array(np.uint8, packed), bitorder="little").astype(bool)
        members = rd.array("<i4", n, k + 1).astype(np.int64)
        rd.skip((rounds - r) * size)
        rd.end()
    if not np.isfinite(entropies).all():
        raise FormatError(f"{path}: round {r}: non-finite entropy")
    if selected[n:].any():
        raise FormatError(f"{path}: round {r}: padding bits set after the selected mask")
    if members.min() < 0 or members.max() >= n:
        raise FormatError(f"{path}: round {r}: member outside [0, {n})")
    if (members[:, 0] != np.arange(n)).any():
        raise FormatError(f"{path}: round {r}: a row does not start with its anchor")
    if (np.diff(np.sort(members, axis=1)) == 0).any():
        raise FormatError(f"{path}: round {r}: a member row repeats an index")
    if (selected[:n] != _selection(entropies, ckpt.config, r)).any():
        raise FormatError(f"{path}: round {r}: selected bits differ from its entropies' selection")
    return RoundPlan(entropies=entropies, selected=selected[:n], members=members)
