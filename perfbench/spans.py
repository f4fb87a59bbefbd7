"""Traced andkit CLI run and the per-layer metrics derived from its spans.

Run as a script, it executes one andkit command with a span around every
layer call that ``andkit.cli`` and ``andkit.pipeline`` make, then writes the
spans as JSON when the command ends:

    python3 perfbench/spans.py SPANS.json RUN_ID train --data d.ands --out run/

The wrapping replaces module attributes at run time; nothing under ``src/``
is edited. Each span records name, start, end, parent index and run id, and
computed byte and flop counts where the arguments give the array sizes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder; `spans` is written out once, at exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, sizes=None):
        """Return `fn` with a span named `name` around each call.

        `sizes(*args)`, when given, returns computed counters (bytes, flops)
        attached to the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            if sizes is not None:
                span.update(sizes(*args))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced


def _bank_square(bank, *_):
    # one dense N x N product bank @ bank.T (2*N*N*d flops) plus one more
    # N x N array: probabilities for the entropy, argsort indices for top-k
    n, d = bank.features.shape
    return {"bytes": 2 * 8 * n * n, "flops": 2 * n * n * d}


def _batch_dense(pairs, plan, bank, tau):
    # one dense b x N float64 array per batch, as round_batch_loss builds several
    return {"bytes": 8 * len(pairs) * bank.features.shape[0]}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions under the names that cli and pipeline call."""
    import andkit.cli as cli
    import andkit.pipeline as pipeline

    targets = [
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "cmd_inspect", "cli.inspect", None),
        (cli, "load_dataset", "data.load", None),
        (cli, "train", "pipeline.train", None),
        (cli, "save_checkpoint", "cli.checkpoint_write", None),
        (cli, "load_checkpoint", "cli.checkpoint_read", None),
        (cli, "forward", "encoder.forward", None),
        (cli, "knn_predict_batch", "evaluation.knn", None),
        (cli, "linear_probe", "evaluation.probe", None),
        (cli, "neighbourhood_consistency", "evaluation.consistency", None),
        (cli, "plan_round", "pipeline.plan", None),
        (cli, "build_neighbourhoods", "affinity.topk", _bank_square),
        (pipeline, "init_params", "encoder.init", None),
        (pipeline, "init_bank", "memory.init", None),
        (pipeline, "make_batches", "data.shuffle", None),
        (pipeline, "forward", "encoder.forward", None),
        (pipeline, "backward", "encoder.backward", None),
        (pipeline, "sgd_nesterov_step", "encoder.step", None),
        (pipeline, "round_batch_loss", "losses.batch", _batch_dense),
        (pipeline, "update_batch", "memory.ema", None),
        (pipeline, "plan_round", "pipeline.plan", None),
        (pipeline, "bank_entropies", "pipeline.entropy", _bank_square),
        (pipeline, "build_neighbourhoods", "affinity.topk", _bank_square),
    ]
    for module, attr, name, sizes in targets:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, sizes))

    make_monitor = cli._make_monitor

    @functools.wraps(make_monitor)
    def traced_make_monitor(*args, **kwargs):
        return tracer.wrap(make_monitor(*args, **kwargs), "cli.monitor")

    cli._make_monitor = traced_make_monitor


# Per-layer metrics and their units, in the order they are printed. Every
# `_s` metric is the summed duration of the named span; spans without child
# spans are leaves, so for them this is also their self time.
LAYER_UNITS = {
    "data.load_s": "s",
    "encoder.init_s": "s",
    "memory.init_s": "s",
    "data.shuffle_s": "s",
    "data.shuffle_calls": "count",
    "encoder.forward_s": "s",
    "encoder.backward_s": "s",
    "encoder.step_s": "s",
    "encoder.batches": "count",
    "losses.batch_s": "s",
    "losses.batch_ms.p50": "ms",
    "losses.batch_ms.p90": "ms",
    "losses.batch_bytes": "B",
    "memory.ema_s": "s",
    "pipeline.plan_s": "s",
    "pipeline.plans": "count",
    "pipeline.entropy_s": "s",
    "affinity.topk_s": "s",
    "affinity.topk_calls": "count",
    "affinity.plan_bytes": "B",
    "affinity.plan_flops": "flop",
    "pipeline.epoch_ms.p50": "ms",
    "pipeline.epoch_ms.p90": "ms",
    "pipeline.self_s": "s",
    "evaluation.knn_s": "s",
    "evaluation.knn_calls": "count",
    "evaluation.consistency_s": "s",
    "evaluation.probe_s": "s",
    "cli.monitor_s": "s",
    "cli.checkpoint_write_s": "s",
    "cli.checkpoint_read_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# span name -> the metric summing its durations, and the metric counting its calls
_TIMED = {
    "data.load": "data.load_s",
    "encoder.init": "encoder.init_s",
    "memory.init": "memory.init_s",
    "data.shuffle": "data.shuffle_s",
    "encoder.forward": "encoder.forward_s",
    "encoder.backward": "encoder.backward_s",
    "encoder.step": "encoder.step_s",
    "losses.batch": "losses.batch_s",
    "memory.ema": "memory.ema_s",
    "pipeline.plan": "pipeline.plan_s",
    "pipeline.entropy": "pipeline.entropy_s",
    "affinity.topk": "affinity.topk_s",
    "evaluation.knn": "evaluation.knn_s",
    "evaluation.consistency": "evaluation.consistency_s",
    "evaluation.probe": "evaluation.probe_s",
    "cli.monitor": "cli.monitor_s",
    "cli.checkpoint_write": "cli.checkpoint_write_s",
    "cli.checkpoint_read": "cli.checkpoint_read_s",
}
_COUNTED = {
    "data.shuffle": "data.shuffle_calls",
    "encoder.backward": "encoder.batches",
    "pipeline.plan": "pipeline.plans",
    "affinity.topk": "affinity.topk_calls",
    "evaluation.knn": "evaluation.knn_calls",
}


def _p50_p90(values_ms: list[float]) -> tuple[float, float]:
    if not values_ms:
        return 0.0, 0.0
    if len(values_ms) == 1:
        return values_ms[0], values_ms[0]
    return statistics.median(values_ms), statistics.quantiles(values_ms, n=10)[8]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate the spans of one traced session into the per-layer metrics.

    `spans` may hold several runs (one per command); parent indices refer to
    positions within the list of the run they came from, so every run's
    spans are aggregated separately and the results summed.
    """
    runs: dict[str, list[dict]] = {}
    for s in spans:
        runs.setdefault(s["run"], []).append(s)
    out = {name: 0.0 for name in LAYER_UNITS if name != "trace.overhead_s"}
    batch_ms, epoch_ms = [], []
    for run in runs.values():
        own = self_times(run)
        shuffle_starts = []
        for s, self_s in zip(run, own):
            name, dur = s["name"], s["end"] - s["start"]
            if name in _TIMED:
                out[_TIMED[name]] += dur
            if name in _COUNTED:
                out[_COUNTED[name]] += 1
            if name == "losses.batch":
                batch_ms.append(1000.0 * dur)
                out["losses.batch_bytes"] += s["bytes"]
            elif name in ("pipeline.entropy", "affinity.topk"):
                out["affinity.plan_bytes"] += s["bytes"]
                out["affinity.plan_flops"] += s["flops"]
            elif name == "data.shuffle":
                shuffle_starts.append(s["start"])
            elif name == "pipeline.train":
                out["pipeline.self_s"] += self_s
            elif name in ("cli.train", "cli.eval", "cli.inspect"):
                out["cli.self_s"] += self_s
        epoch_ms += [1000.0 * (b - a) for a, b in zip(shuffle_starts, shuffle_starts[1:])]
    out["losses.batch_ms.p50"], out["losses.batch_ms.p90"] = _p50_p90(batch_ms)
    out["pipeline.epoch_ms.p50"], out["pipeline.epoch_ms.p90"] = _p50_p90(epoch_ms)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: spans.py SPANS.json RUN_ID <andkit command and flags>", file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    from andkit.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
