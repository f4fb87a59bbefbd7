"""Command-line entry point: generate, train, eval, inspect, curve.

Every command is flags-only and honours --seed; a train run writes a
manifest with the fully resolved configuration, and re-running from that
manifest reproduces the checkpoint, plans and metrics byte for byte. `inspect`
reads the plans a train run wrote next to its checkpoint; it re-plans on the
final bank only when that file is absent. Every file a command writes is
written whole or not at all (`write_atomic`).

Exit codes: 0 success, 1 runtime failure, 2 usage error: a missing or malformed
flag or manifest, or any out-of-range flag or manifest value. Every usage error
is a `ConfigurationError`.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import sys
from pathlib import Path

from . import __version__
from .affinity import build_neighbourhoods
from .data import (
    BlobSpec,
    Dataset,
    generate_blobs,
    load_dataset,
    read_lines,
    save_dataset,
    write_atomic,
)
from .errors import AndkitError, ConfigurationError, ContractError, ParseError
from .evaluation import (
    DEFAULT_EVAL_TAU,
    EvalReport,
    consistency_curve_csv,
    consistent_rows,
    encode,
    knn_predict_batch,
    linear_probe,
    neighbourhood_consistency,
    per_class_accuracy,
)
from .encoder import forward  # not called here; perfbench/spans.py wraps cli.forward by name
from .numerics import check_positive
from .pipeline import (
    PLANS_FILE,
    MetricsRecord,
    TrainConfig,
    load_checkpoint,
    load_plan,
    plan_record,
    plan_round,
    save_checkpoint,
    save_plans,
    train,
)


def _parse_layers(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"--layers expects comma-separated integers, got {text!r}") from None


def _given(target, args) -> dict:
    """The parameters of `target` (a dataclass or function) set on the command line.

    Their flags default to `argparse.SUPPRESS`, so a flag left out is absent from `args`
    and its parameter keeps the default that `target` declares, its only one.
    """
    names = inspect.signature(target).parameters
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _emit(text: str, out) -> None:
    """Write a command's text output to the file `out`, or to stdout when it is not given."""
    if out:
        write_atomic(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    dataset = generate_blobs(BlobSpec(**_given(BlobSpec, args)))
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} samples ({dataset.dim} dims, {args.num_classes} classes) to {args.out}")
    return 0


def _make_monitor(dataset: Dataset):
    """The one round monitor (train and `scripts/paper_claims.py`); labels never reach training."""
    labels = dataset.labels

    def monitor(r, plan, bank, params):
        consistent, inconsistent = neighbourhood_consistency(plan.members[plan.selected], labels)
        feats = encode(params, dataset.inputs)
        preds = knn_predict_batch(feats, bank, labels, leave_one_out=True)
        return {
            "consistent_count": consistent,
            "inconsistent_count": inconsistent,
            "knn_accuracy": float((preds == labels).mean()),
        }

    return monitor


# config keys TrainConfig no longer has, each with the value that means today's behaviour:
# older manifests hold them, and rerun with the key dropped; any other value is refused
_RETIRED_KEYS = {"force_singleton_neighbourhoods": False, "lr_reset_per_round": True}


def cmd_train(args) -> int:
    if args.manifest:
        named = ("data", "layers", *_given(TrainConfig, args))
        given = [args.flags[name] for name in named if getattr(args, name, None) is not None]
        if given:
            raise ConfigurationError(f"--manifest takes no config flags: {', '.join(given)}")
        try:
            manifest = json.loads(Path(args.manifest).read_text())
            blob = manifest["config"]
            for key, kept in _RETIRED_KEYS.items():
                if isinstance(blob, dict) and key in blob and blob.pop(key) is not kept:
                    raise TypeError(f"retired config key {key!r} only accepts {kept}")
            config = TrainConfig(**blob)
            data_path = Path(manifest["data"])  # a TypeError unless it is a path string
            out_dir = Path(args.out) if args.out else Path(manifest["out"])
        except (ValueError, KeyError, TypeError) as err:
            raise ConfigurationError(f"{args.manifest}: malformed manifest: {err!r}") from None
        dataset = load_dataset(data_path)
    else:
        if not args.data or not args.out:
            raise ConfigurationError("--data and --out are required (or use --manifest)")
        data_path = args.data
        out_dir = Path(args.out)
        dataset = load_dataset(data_path)
        layers = (dataset.dim,) + _parse_layers(getattr(args, "layers", "64,16"))
        config = TrainConfig(layer_sizes=layers, **_given(TrainConfig, args))
    if out_dir.exists() and not out_dir.is_dir():  # refused now, not after the whole run
        raise ConfigurationError(f"output directory {out_dir} exists and is not a directory")

    labelled = _make_monitor(dataset) if dataset.labels is not None else None
    plans = []  # each round's plan, encoded at once, so no round's arrays stay alive

    def monitor(r, plan, bank, params):
        plans.append(plan_record(plan))
        return {} if labelled is None else labelled(r, plan, bank, params)

    params, bank, records = train(dataset.inputs, config, monitor=monitor)

    out_dir.mkdir(parents=True, exist_ok=True)
    crc = save_checkpoint(params, bank, config, out_dir / "checkpoint.andc")
    save_plans(plans, bank.n, config.k, crc, out_dir / PLANS_FILE)
    lines = [json.dumps(dataclasses.asdict(rec)) + "\n" for rec in records]
    write_atomic(out_dir / "metrics.jsonl", "".join(lines).encode("utf-8"))
    manifest = {
        "artifact_version": __version__,
        "command": "train",
        "data": str(data_path),
        "out": str(out_dir),
        "config": dataclasses.asdict(config),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomic(out_dir / "manifest.json", text.encode("utf-8"))
    final = records[-1].mean_loss if records else float("nan")
    print(f"trained {config.rounds} rounds on {dataset.n} samples; final mean loss {final:.6f}")
    print(f"outputs in {out_dir}/: checkpoint.andc, {PLANS_FILE}, metrics.jsonl, manifest.json")
    return 0


def cmd_eval(args) -> int:
    check_positive("--tau", args.tau)  # before the checkpoint is read
    ckpt = load_checkpoint(args.checkpoint)
    split = load_dataset(args.data)
    if split.labels is None:
        raise ContractError(f"{args.data}: evaluation needs a labelled dataset")
    bank_split = load_dataset(args.bank_data) if args.bank_data else split
    if bank_split.labels is None:
        raise ContractError(f"{args.bank_data}: bank dataset must be labelled")
    if bank_split.n != ckpt.bank.n:
        raise ContractError(
            f"bank dataset has {bank_split.n} samples but checkpoint bank has {ckpt.bank.n}"
        )

    feats = encode(ckpt.params, split.inputs)
    preds = knn_predict_batch(
        feats, ckpt.bank, bank_split.labels, leave_one_out=bank_split is split,
        **_given(knn_predict_batch, args),
    )
    linear_acc = None
    if args.probe:
        linear_acc = linear_probe(bank_split, split, ckpt.params, **_given(linear_probe, args))
    consistent, inconsistent = neighbourhood_consistency(
        build_neighbourhoods(ckpt.bank, ckpt.config.k), bank_split.labels
    )
    report = EvalReport(
        knn_accuracy=float((preds == split.labels).mean()),
        linear_accuracy=linear_acc,
        consistent_count=consistent,
        inconsistent_count=inconsistent,
        per_class_accuracy=per_class_accuracy(preds, split.labels),
    )
    _emit(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    r = args.round if args.round is not None else ckpt.final_round
    if not 1 <= r <= ckpt.config.rounds:
        raise ConfigurationError(f"--round must lie in [1, {ckpt.config.rounds}], got {r}")
    labels = None
    if args.data:
        labelled = load_dataset(args.data)
        if labelled.labels is None or labelled.n != ckpt.bank.n:
            raise ContractError(f"{args.data}: needs labels for all {ckpt.bank.n} bank rows")
        labels = labelled.labels
    plans = Path(args.checkpoint).with_name(PLANS_FILE)
    if plans.exists():
        plan = load_plan(plans, ckpt, r)
    else:
        print(f"note: no {plans}; re-planning round {r} on the final bank", file=sys.stderr)
        plan = plan_round(ckpt.bank, ckpt.config, r)
    n = ckpt.bank.n
    consistent = [""] * n
    if labels is not None:
        consistent = consistent_rows(plan.members, labels).astype(int).tolist()
    row = "%d," + ";".join(["%d"] * plan.members.shape[1]) + ",%r,%d,%s\n"
    selected = plan.selected.astype(int).tolist()
    columns = (range(n), *plan.members.T.tolist(), plan.entropies.tolist(), selected, consistent)
    table = (row * n) % tuple(itertools.chain.from_iterable(zip(*columns)))
    _emit("anchor,members,entropy,selected,consistent\n" + table, args.out)
    return 0


def cmd_curve(args) -> int:
    rows = []
    for lineno, line in enumerate(read_lines(args.metrics), start=1):
        if not line:
            continue
        try:
            row = json.loads(line)
            MetricsRecord(**row)  # a TypeError unless the line holds only a record's fields
            missing = {"consistent_count", "inconsistent_count"} - row.keys()
            if missing:
                raise TypeError(f"no {' or '.join(sorted(missing))}")
            counts = {type(row["consistent_count"]), type(row["inconsistent_count"])}
            if type(row["round"]) is not int or counts not in ({int}, {type(None)}):
                raise TypeError("round must be an integer, the counts both integers or both null")
        except (ValueError, TypeError) as err:
            raise ParseError(f"{args.metrics}: line {lineno}: bad metrics record: {err}") from None
        rows.append(row)
    _emit(consistency_curve_csv(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="andkit",
        description="Anchor-neighbourhood curriculum training and evaluation toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"andkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    given_only = {"argument_default": argparse.SUPPRESS}  # a flag left out: see `_given`
    gen = sub.add_parser("generate", help="write a synthetic blob dataset", **given_only)
    gen.add_argument("--classes", dest="num_classes", type=int, required=True)
    gen.add_argument("--per-class", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--center-scale", type=float)
    gen.add_argument("--noise-sigma", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True, help="CSV for a .csv path, else binary .ands")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="run the curriculum trainer", **given_only)
    tr.add_argument("--data", default=None, help="dataset path (.ands binary or .csv)")
    tr.add_argument("--out", default=None, help="output directory")
    tr.add_argument("--manifest", default=None, help="rerun a prior manifest's exact configuration")
    tr.add_argument("--rounds", type=int)
    tr.add_argument("--epochs", dest="epochs_per_round", type=int, help="epochs per round")
    tr.add_argument("--init-epochs", type=int, help="0 skips the warm-up (default: --epochs)")
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--lr", dest="base_lr", type=float)
    tr.add_argument("--momentum", type=float)
    tr.add_argument("--tau", type=float)
    tr.add_argument("--eta", type=float)
    tr.add_argument("--k", type=int)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--layers", help="hidden and output sizes after the input dim")
    tr.add_argument("--one-off", action="store_true", help="plan all anchors once, no curriculum")
    tr.add_argument(
        "--instance-only", action="store_true", help="baseline: never use neighbourhood terms"
    )
    # retired: every round anneals from --lr; parsed and never read, as perfbench/run.py passes it
    tr.add_argument("--lr-reset-per-round", action="store_true", help=argparse.SUPPRESS)
    # dest -> flag as typed, so that a --manifest run names the flags it refuses
    tr.set_defaults(func=cmd_train, flags={a.dest: a.option_strings[0] for a in tr._actions})

    ev = sub.add_parser("eval", help="score a checkpoint on a labelled split", **given_only)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="labelled split to score")
    ev.add_argument(
        "--bank-data",
        default=None,
        help="labelled training split backing the memory bank; omit when --data is it",
    )
    ev.add_argument("--knn-k", dest="k_eval", type=int)
    ev.add_argument("--tau", type=float, default=DEFAULT_EVAL_TAU)
    ev.add_argument(
        "--probe",
        action="store_true",
        default=False,
        help="also fit a linear probe on --bank-data and score it on --data; without"
        " --bank-data it is fit and scored on --data, not a held-out score",
    )
    ev.add_argument("--probe-epochs", dest="epochs", type=int)
    ev.add_argument("--probe-lr", dest="lr", type=float)
    ev.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    ev.set_defaults(func=cmd_eval)

    ins = sub.add_parser("inspect", help="dump a round's per-anchor curriculum plan as CSV")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--round", type=int, help="round whose plan to show (default: last)")
    ins.add_argument("--data", help="labelled dataset for the consistency column")
    ins.add_argument("--out", help="write CSV here instead of stdout")
    ins.set_defaults(func=cmd_inspect)

    cv = sub.add_parser("curve", help="per-round consistency counts from a metrics file, as CSV")
    cv.add_argument("--metrics", required=True, help="metrics.jsonl from a train run")
    cv.add_argument("--out", help="write CSV here instead of stdout")
    cv.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (AndkitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
