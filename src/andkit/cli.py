"""Command-line entry point: generate, train, eval, inspect, curve.

Every command is flags-only and honours --seed; a train run writes a
manifest with the fully resolved configuration, and re-running from that
manifest reproduces the checkpoint and metrics byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage error: a missing or malformed
flag or manifest, or any out-of-range flag or manifest value. Every usage error
is a `ConfigurationError`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .affinity import build_neighbourhoods
from .data import BlobSpec, Dataset, generate_blobs, load_dataset, read_lines, save_dataset
from .errors import AndkitError, ConfigurationError, ContractError, ParseError
from .evaluation import (
    DEFAULT_EVAL_TAU,
    DEFAULT_K_EVAL,
    EvalReport,
    consistency_curve_csv,
    consistent_rows,
    knn_predict_batch,
    linear_probe,
    neighbourhood_consistency,
    per_class_accuracy,
)
from .encoder import forward
from .pipeline import (
    MetricsRecord,
    TrainConfig,
    load_checkpoint,
    plan_round,
    save_checkpoint,
    train,
)


def _parse_layers(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"--layers expects comma-separated integers, got {text!r}") from None


def _emit(text: str, out) -> None:
    """Write a command's text output to the file `out`, or to stdout when it is not given."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    dataset = generate_blobs(
        BlobSpec(
            num_classes=args.classes,
            per_class=args.per_class,
            dim=args.dim,
            center_scale=args.center_scale,
            noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
    )
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} samples ({dataset.dim} dims, {args.classes} classes) to {args.out}")
    return 0


def _make_monitor(dataset: Dataset):
    """The one round monitor (train and the blob benchmark); labels never reach training."""
    labels = dataset.labels
    k_eval = min(DEFAULT_K_EVAL, dataset.n - 1)

    def monitor(r, plan, bank, params):
        consistent, inconsistent = neighbourhood_consistency(plan.members[plan.selected], labels)
        feats, _ = forward(params, dataset.inputs)
        preds = knn_predict_batch(feats, bank, labels, k_eval, DEFAULT_EVAL_TAU, leave_one_out=True)
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
        try:
            manifest = json.loads(Path(args.manifest).read_text())
            blob = manifest["config"]
            for key, kept in _RETIRED_KEYS.items():
                if isinstance(blob, dict) and key in blob and blob.pop(key) is not kept:
                    raise TypeError(f"retired config key {key!r} only accepts {kept}")
            config = TrainConfig(**blob)
            config.validate()
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
        config = TrainConfig(
            layer_sizes=(dataset.dim,) + _parse_layers(args.layers),
            rounds=args.rounds,
            epochs_per_round=args.epochs,
            init_epochs=args.init_epochs,
            batch_size=args.batch_size,
            base_lr=args.lr,
            momentum=args.momentum,
            tau=args.tau,
            eta=args.eta,
            k=args.k,
            seed=args.seed,
            one_off=args.one_off,
            instance_only=args.instance_only,
        )

    monitor = _make_monitor(dataset) if dataset.labels is not None else None
    params, bank, records = train(dataset.inputs, config, monitor=monitor)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, bank, config, out_dir / "checkpoint.andc")
    with open(out_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")
    manifest = {
        "artifact_version": __version__,
        "command": "train",
        "data": str(data_path),
        "out": str(out_dir),
        "config": dataclasses.asdict(config),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    final = records[-1].mean_loss if records else float("nan")
    print(f"trained {config.rounds} rounds on {dataset.n} samples; final mean loss {final:.6f}")
    print(f"outputs in {out_dir}/: checkpoint.andc, metrics.jsonl, manifest.json")
    return 0


def cmd_eval(args) -> int:
    if not (math.isfinite(args.tau) and args.tau > 0):
        raise ConfigurationError(f"--tau must be a finite number > 0, got {args.tau}")
    ckpt = load_checkpoint(args.checkpoint)
    split = load_dataset(args.data)
    if split.labels is None:
        raise ContractError(f"{args.data}: evaluation needs a labelled dataset")
    if args.bank_data:
        bank_split = load_dataset(args.bank_data)
        if bank_split.labels is None:
            raise ContractError(f"{args.bank_data}: bank dataset must be labelled")
        leave_one_out = False
    else:
        bank_split = split
        leave_one_out = True
    if bank_split.n != ckpt.bank.n:
        raise ContractError(
            f"bank dataset has {bank_split.n} samples but checkpoint bank has {ckpt.bank.n}"
        )

    feats, _ = forward(ckpt.params, split.inputs)
    preds = knn_predict_batch(
        feats, ckpt.bank, bank_split.labels, args.knn_k, args.tau, leave_one_out
    )
    linear_acc = None
    if args.probe:
        linear_acc = linear_probe(
            bank_split, split, ckpt.params, epochs=args.probe_epochs, lr=args.probe_lr
        )
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
    plan = plan_round(ckpt.bank, ckpt.config, r)
    flags = None if labels is None else consistent_rows(plan.members, labels)
    lines = ["anchor,members,entropy,selected,consistent"]
    for i, row in enumerate(plan.members.tolist()):
        consistent = "" if flags is None else str(int(flags[i]))
        members = ";".join(str(j) for j in row)
        lines.append(
            f"{i},{members},{float(plan.entropies[i])!r},{int(plan.selected[i])},{consistent}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_curve(args) -> int:
    rows = []
    for lineno, line in enumerate(read_lines(args.metrics), start=1):
        if not line:
            continue
        try:
            row = json.loads(line)
            MetricsRecord(**row)  # a TypeError unless the line holds exactly a record's fields
            if not isinstance(row["round"], int):
                raise TypeError(f"round must be an integer, got {row['round']!r}")
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

    gen = sub.add_parser("generate", help="write a synthetic blob dataset")
    gen.add_argument("--classes", type=int, required=True)
    gen.add_argument("--per-class", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--center-scale", type=float, default=5.0)
    gen.add_argument("--noise-sigma", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="CSV for a .csv path, else binary .ands")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="run the curriculum trainer")
    tr.add_argument("--data", help="dataset path (.ands binary or .csv)")
    tr.add_argument("--out", help="output directory")
    tr.add_argument("--manifest", help="re-run the exact configuration of a prior manifest")
    tr.add_argument("--rounds", type=int, default=4)
    tr.add_argument("--epochs", type=int, default=20, help="epochs per round")
    tr.add_argument("--init-epochs", type=int, help="0 skips the warm-up (default: --epochs)")
    tr.add_argument("--batch-size", type=int, default=128)
    tr.add_argument("--lr", type=float, default=0.03)
    tr.add_argument("--momentum", type=float, default=0.9)
    tr.add_argument("--tau", type=float, default=0.07)
    tr.add_argument("--eta", type=float, default=0.5)
    tr.add_argument("--k", type=int, default=1)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--layers", default="64,16", help="hidden and output sizes after the input dim")
    tr.add_argument("--one-off", action="store_true", help="plan all anchors once, no curriculum")
    tr.add_argument(
        "--instance-only", action="store_true", help="baseline: never use neighbourhood terms"
    )
    # retired: every round anneals from --lr; parsed and never read, as perfbench/run.py passes it
    tr.add_argument("--lr-reset-per-round", action="store_true", help=argparse.SUPPRESS)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on a labelled split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="labelled split to score")
    ev.add_argument(
        "--bank-data",
        help="labelled training split backing the memory bank; omit when --data is it",
    )
    ev.add_argument("--knn-k", type=int, default=DEFAULT_K_EVAL)
    ev.add_argument("--tau", type=float, default=DEFAULT_EVAL_TAU)
    ev.add_argument("--probe", action="store_true", help="also train a linear probe")
    ev.add_argument("--probe-epochs", type=int, default=200)
    ev.add_argument("--probe-lr", type=float, default=0.5)
    ev.add_argument("--out", help="write the JSON report here instead of stdout")
    ev.set_defaults(func=cmd_eval)

    ins = sub.add_parser("inspect", help="dump per-anchor curriculum state as CSV")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--round", type=int, default=None, help="default: final trained round")
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
