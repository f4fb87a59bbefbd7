"""A `TrainConfig` or `BlobSpec` that exists holds valid fields, and the
label-side parameters run or are refused.

Each test builds one from keyword values, directly and through
`dataclasses.replace`, and checks the outcome against the field rules
restated here: the build succeeds exactly when every rule holds, and is
otherwise refused with a `ConfigurationError`, never another exception.
The properties draw several fields at once; the edge sweep sets one field
at a time to each value beside a rule's bound, where a drawn value that
breaks another field would hide it. The same sweep sets each scalar of the
kNN vote and the linear probe, on a tiny fixed model: it runs exactly when
its rule holds, and is otherwise refused with a `ConfigurationError`.
"""

import math
import numbers
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from andkit import evaluation
from andkit.data import BlobSpec, generate_blobs
from andkit.encoder import EncoderConfig, init_params
from andkit.errors import ConfigurationError
from andkit.evaluation import encode, knn_accuracy, knn_predict_batch, linear_probe
from andkit.memory import FeatureBank
from andkit.pipeline import TrainConfig

U32_MAX = 2**32 - 1

# the values at and beside every field rule's edges, and values of each wrong type
EDGES = [
    0, 1, 2, -1, U32_MAX - 1, U32_MAX, 2**32, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64,
    10**400, 0.0, -0.0, 0.5, 1.0, 1.5, 5e-324, 1.7e308, math.inf, -math.inf, math.nan,
    np.int64(2), np.float64(0.5), np.float64(math.nan), True, False, "1", "", None, [4, 3], (4, 3),
]
VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.integers(min_value=-2, max_value=6),
    st.integers(),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(),  # nan, infinities and subnormals included
    st.integers(min_value=-2, max_value=6).map(np.int64),
    st.floats().map(np.float64),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(min_value=-1, max_value=5), max_size=4),
)
SIZES = st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4)
LAYER_SIZES = st.one_of(
    SIZES.map(tuple),
    SIZES,  # a list, as a manifest holds
    st.lists(st.integers(min_value=0, max_value=5), max_size=4).map(tuple),
    st.sampled_from([(4, 2**32), (4, U32_MAX), (4, 0), (4.0, 3), (True, 3), ("4", "3"), (4,)]),
    VALUES,
)


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int past float range
        return False


def train_config_ok(kw: dict) -> bool:
    """Every TrainConfig field rule, restated; `kw` holds every field."""
    sizes = kw["layer_sizes"]
    sizes = tuple(sizes) if isinstance(sizes, list) else sizes
    if not (isinstance(sizes, tuple) and len(sizes) >= 2 and all(map(is_int, sizes))):
        return False
    if not (min(sizes) >= 1 and sizes[-1] >= 2 and max(sizes) <= U32_MAX):
        return False
    counts = [kw[name] for name in ("rounds", "epochs_per_round", "batch_size", "k", "seed")]
    init = kw["init_epochs"]
    if not (all(map(is_int, counts)) and (init is None or is_int(init))):
        return False
    reals = [kw[name] for name in ("base_lr", "momentum", "tau", "eta")]
    if not all(map(is_finite_real, reals)):
        return False
    if not all(type(kw[name]) is bool for name in ("one_off", "instance_only")):
        return False
    return (
        1 <= kw["rounds"] <= U32_MAX
        and 0 <= kw["epochs_per_round"] <= U32_MAX
        and (init is None or 0 <= init < U32_MAX)
        and 1 <= kw["batch_size"] <= U32_MAX
        and 1 <= kw["k"] <= U32_MAX
        and -(2**63) <= kw["seed"] < 2**63
        and kw["base_lr"] > 0
        and 0 <= kw["momentum"] < 1
        and kw["tau"] > 0
        and 0 < kw["eta"] <= 1
        and not (kw["one_off"] and kw["instance_only"])
    )


def blob_spec_ok(kw: dict) -> bool:
    """Every BlobSpec field rule, restated; `kw` holds every field."""
    counts = (kw["num_classes"], kw["per_class"], kw["dim"])
    return (
        all(map(is_int, (*counts, kw["seed"])))
        and min(counts) >= 2
        and -(2**63) <= kw["seed"] < 2**63
        and is_finite_real(kw["center_scale"])
        and kw["center_scale"] >= 0
        and is_finite_real(kw["noise_sigma"])
        and kw["noise_sigma"] > 0
    )


BASES = {TrainConfig: TrainConfig(layer_sizes=(4, 3)), BlobSpec: BlobSpec(2, 3, 3)}


def check_build(cls, ok, kw: dict) -> None:
    """`cls(**kw)` and `replace(base, **kw)` build exactly when `ok` holds, else refuse."""
    base = BASES[cls]
    every = {f.name: getattr(base, f.name) for f in fields(cls)} | kw
    for build in (lambda: cls(**every), lambda: replace(base, **kw)):
        try:
            built = build()
        except ConfigurationError:
            assert not ok(every), every
            continue
        assert ok(every), every
        expected = {k: tuple(v) if isinstance(v, list) else v for k, v in every.items()}
        assert {f.name: getattr(built, f.name) for f in fields(cls)} == expected


TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.name != "layer_sizes"]
BLOB_FIELDS = [f.name for f in fields(BlobSpec)]


@given(LAYER_SIZES, st.dictionaries(st.sampled_from(TRAIN_FIELDS), VALUES, max_size=4))
@settings(max_examples=400, deadline=None)
@example(None, {})
@example((4, 3), {"tau": 0.0})
@example((4, 3), {"one_off": True, "instance_only": True})
def test_train_config_holds_its_rules_or_is_refused(layer_sizes, kw):
    check_build(TrainConfig, train_config_ok, {"layer_sizes": layer_sizes, **kw})


@given(st.dictionaries(st.sampled_from(BLOB_FIELDS), VALUES, max_size=3))
@settings(max_examples=400, deadline=None)
@example({"center_scale": "5"})
@example({"noise_sigma": None})
def test_blob_spec_holds_its_rules_or_is_refused(kw):
    check_build(BlobSpec, blob_spec_ok, kw)


def test_each_field_alone_at_every_edge():
    for cls, ok in ((TrainConfig, train_config_ok), (BlobSpec, blob_spec_ok)):
        for f in fields(cls):
            for value in EDGES:
                check_build(cls, ok, {f.name: value})


SPLIT = generate_blobs(BlobSpec(2, 4, 3, seed=1))  # 8 labelled rows
PARAMS = init_params(EncoderConfig((3, 2)))
BANK = FeatureBank(features=encode(PARAMS, SPLIT.inputs))
PROBE_RUNS = 2  # most epochs a swept probe fits for real: 2**64 epochs would never end


def positive_real_ok(value) -> bool:
    return is_finite_real(value) and value > 0


def k_eval_ok(available: int):
    return lambda value: value is None or (is_int(value) and 1 <= value <= available)


def probe_epochs(value):
    """`linear_probe` at `value` epochs; past PROBE_RUNS, a stub fit shows the gate passed it."""
    if not (is_int(value) and value > PROBE_RUNS):
        return linear_probe(SPLIT, SPLIT, PARAMS, epochs=value)
    reached = []

    def fit(feats, labels, num_classes, epochs, lr):
        reached.append(epochs)
        return np.zeros((num_classes, feats.shape[1])), np.zeros(num_classes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_fit_probe", fit)
        linear_probe(SPLIT, SPLIT, PARAMS, epochs=value)
    assert reached == [value]


LABEL_SIDE = {
    "knn_predict_batch tau": (
        lambda v: knn_predict_batch(BANK.features, BANK, SPLIT.labels, tau=v), positive_real_ok
    ),
    "knn_predict_batch k_eval": (
        lambda v: knn_predict_batch(BANK.features, BANK, SPLIT.labels, k_eval=v),
        k_eval_ok(SPLIT.n),
    ),
    "knn_accuracy k_eval": (
        lambda v: knn_accuracy(SPLIT, PARAMS, BANK, SPLIT.labels, k_eval=v, leave_one_out=True),
        k_eval_ok(SPLIT.n - 1),
    ),
    "linear_probe epochs": (probe_epochs, lambda v: is_int(v) and v >= 0),
    "linear_probe lr": (lambda v: linear_probe(SPLIT, SPLIT, PARAMS, lr=v), positive_real_ok),
}


@pytest.mark.parametrize("name", LABEL_SIDE)
def test_label_side_parameter_at_every_edge(name):
    call, ok = LABEL_SIDE[name]
    for value in EDGES:
        try:
            call(value)
        except ConfigurationError:
            assert not ok(value), (name, value)
            continue
        assert ok(value), (name, value)
