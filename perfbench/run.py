"""andkit benchmark: end-to-end train / eval / inspect times, traced per-layer split.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout that holds ``src/andkit``. The benchmark
drives andkit from outside, as a user does: it writes a seeded ``.ands`` blob
dataset, then times whole ``python3 -m andkit.cli`` processes (train, eval
--probe, inspect --data) with BLAS pinned to one thread. Sessions repeat
until ``--seconds`` have passed and medians are reported. Every command's
output goes through a correctness gate (see `Gate`); a failed check counts
in ``failed`` and is printed, never dropped.

``--trace 0`` reports the end-to-end metrics from untraced processes.
``--trace 1`` alternates untraced and traced runs of the workload's own
commands and reports the per-layer metrics of `spans.LAYER_UNITS`, taken
from spans recorded around each layer call (see ``spans.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it print every
metric by name and unit, ``failed_share``, the output digests and the
environment. Workloads, their reasons and the predicted per-layer moves are
in README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# One BLAS thread: with the default threading, run-to-run times on a
# 2-core machine vary by about 2.5x.
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_PROBES = 9
COMMAND_TIMEOUT_S = 150.0
BENCH_LR = 0.03 * 128  # README's per-sample rate, rescaled for the mean batch loss

E2E_UNITS = {
    "train_s": "s",
    "train_samples_per_s": "1/s",
    "eval_s": "s",
    "inspect_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "knn_acc": "fraction",
}


@dataclass(frozen=True)
class Workload:
    """Shapes and schedule of one workload; inputs come from the run's seed."""

    name: str
    per_class: int
    k: int
    init_epochs: int
    rounds: int
    epochs: int
    knn_floor: float  # leave-one-out kNN accuracy the final checkpoint must reach
    timed_train: bool = True  # False: train once at set-up, time eval and inspect only
    classes: int = 4
    dim: int = 32
    layers: str = "64,16"

    @property
    def n(self) -> int:
        return self.classes * self.per_class

    @property
    def total_epochs(self) -> int:
        return self.init_epochs + self.rounds * self.epochs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", per_class=100, k=1, init_epochs=20, rounds=4, epochs=20, knn_floor=0.75),
        Workload("plan-heavy", per_class=1250, k=10, init_epochs=2, rounds=4, epochs=2, knn_floor=0.9),
        Workload(
            "eval-read",
            per_class=1250,
            k=10,
            init_epochs=2,
            rounds=1,
            epochs=2,
            knn_floor=0.9,
            timed_train=False,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at N = 100 and 6 epochs, for the smoke test."""
    return replace(w, per_class=25, init_epochs=2, rounds=2, epochs=2, knn_floor=0.5)


@dataclass
class Command:
    """One finished andkit process."""

    name: str  # train | eval | inspect
    code: int
    wall_s: float
    rss_mb: float
    out: Path  # checkpoint directory for train, report file otherwise

    @property
    def spans(self) -> Path:
        return (self.out if self.name == "train" else self.out.parent) / f"{self.name}.spans.json"


@dataclass
class Unit:
    """Commands checked together by the gate; counts once in `attempted`."""

    commands: list[Command]
    problems: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.problems and all(c.code == 0 for c in self.commands)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run argv to completion; return exit code, wall seconds and peak RSS in MB."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Runner:
    """Spawns the timed andkit processes of one benchmark run."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.data = work / "data.ands"
        self.log = work / "stderr.log"
        self.count = 0

    def _cli(self, name: str, args: list[str], out: Path, traced: bool) -> Command:
        self.count += 1
        command = Command(name, 0, 0.0, 0.0, out)
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), str(command.spans), name, name, *args]
        else:
            argv = [sys.executable, "-m", "andkit.cli", name, *args]
        command.code, command.wall_s, command.rss_mb = run_child(argv, self.work, self.log)
        return command

    def fresh_dir(self) -> Path:
        path = self.work / f"u{self.count:03d}"
        path.mkdir()
        return path

    def train(self, traced: bool = False) -> Command:
        w = self.w
        out = self.fresh_dir()
        args = [
            "--data", str(self.data), "--out", str(out),
            "--rounds", str(w.rounds), "--epochs", str(w.epochs),
            "--init-epochs", str(w.init_epochs), "--k", str(w.k), "--layers", w.layers,
            "--lr", repr(BENCH_LR), "--lr-reset-per-round", "--seed", str(self.seed),
        ]  # fmt: skip
        return self._cli("train", args, out, traced)

    def read(self, checkpoint: Path, traced: bool = False) -> list[Command]:
        """`andkit eval --probe`, then `andkit inspect --data`, on one checkpoint."""
        out = self.fresh_dir()
        ckpt = ["--checkpoint", str(checkpoint), "--data", str(self.data)]
        report, table = out / "eval.json", out / "inspect.csv"
        commands = [self._cli("eval", [*ckpt, "--probe", "--out", str(report)], report, traced)]
        if commands[0].code == 0:
            commands.append(self._cli("inspect", [*ckpt, "--out", str(table)], table, traced))
        return commands

    def session(self, checkpoint: Path | None) -> Unit:
        """The workload's user session: [train,] eval, inspect."""
        commands = []
        if checkpoint is None:
            commands.append(self.train())
            if commands[0].code != 0:
                return Unit(commands)
            checkpoint = commands[0].out / "checkpoint.andc"
        return Unit(commands + self.read(checkpoint))

    def setup_times(self) -> list[float]:
        probe = HERE / "setup_probe.py"
        argv = [sys.executable, str(probe), str(self.data), self.w.layers, str(self.seed)]
        times = []
        for _ in range(SETUP_PROBES):
            out = subprocess.run(argv, cwd=self.work, env=child_env(), capture_output=True,
                                 text=True, timeout=COMMAND_TIMEOUT_S, check=True)
            times.append(float(out.stdout.strip()))
        return times


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Gate:
    """Correctness checks on every command a run makes.

    A unit passes only if every process exited 0, every ``mean_loss`` in
    ``metrics.jsonl`` is finite, the checkpoint round-trips through
    ``load_checkpoint``, the kNN accuracy reaches the workload's floor, the
    eval report and inspect CSV agree with the checkpoint, and same-seed
    outputs are byte-identical across the run.
    """

    def __init__(self, w: Workload, dataset):
        self.w, self.dataset = w, dataset
        self.digests: dict[str, str] = {}
        self.knn_acc: float | None = None

    def same_bytes(self, kind: str, path: Path) -> list[str]:
        digest = sha256(path)
        first = self.digests.setdefault(kind, digest)
        return [] if digest == first else [f"{kind} {path.name} differs from the same-seed run"]

    def checkpoint(self, path: Path) -> list[str]:
        from andkit.errors import AndkitError
        from andkit.pipeline import load_checkpoint, save_checkpoint

        try:
            ckpt = load_checkpoint(path)
        except (AndkitError, OSError) as err:
            return [f"checkpoint does not load: {err}"]
        again = path.with_name(path.name + ".roundtrip")
        save_checkpoint(ckpt.params, ckpt.bank, ckpt.config, again, ckpt.final_round)
        same = again.read_bytes() == path.read_bytes()
        again.unlink()
        return [] if same else ["checkpoint does not round-trip through load/save"]

    def train(self, out: Path) -> list[str]:
        problems = []
        metrics = out / "metrics.jsonl"
        rows = [json.loads(line) for line in metrics.read_text().splitlines() if line]
        if len(rows) != self.w.total_epochs:
            problems.append(f"{len(rows)} metric rows, expected {self.w.total_epochs}")
        if not all(math.isfinite(r["mean_loss"]) for r in rows):
            problems.append("non-finite mean_loss in metrics.jsonl")
        problems += self.checkpoint(out / "checkpoint.andc")
        return problems + self.same_bytes("checkpoint", out / "checkpoint.andc")

    def final_knn(self, checkpoint: Path) -> list[str]:
        """Leave-one-out weighted-kNN accuracy of the final checkpoint.

        Runs after the timed section. The vote is the protocol andkit's eval
        follows (top k_eval bank rows, weights exp(s / tau), ties to the
        lower class id), written here with `argpartition` instead of
        andkit's sort, so that it also checks the eval report.
        """
        import numpy as np
        from andkit.encoder import forward
        from andkit.evaluation import DEFAULT_EVAL_TAU, DEFAULT_K_EVAL
        from andkit.pipeline import load_checkpoint

        ckpt = load_checkpoint(checkpoint)
        labels = self.dataset.labels.astype(np.int64)
        feats, _ = forward(ckpt.params, self.dataset.inputs)
        sims = feats @ ckpt.bank.features.T
        np.fill_diagonal(sims, -np.inf)
        top = np.argpartition(-sims, DEFAULT_K_EVAL - 1, axis=1)[:, :DEFAULT_K_EVAL]
        weights = np.exp(np.take_along_axis(sims, top, axis=1) / DEFAULT_EVAL_TAU)
        votes = np.zeros((labels.size, labels.max() + 1))
        np.add.at(votes, (np.arange(labels.size)[:, None], labels[top]), weights)
        self.knn_acc = float((votes.argmax(axis=1) == labels).mean())
        if self.knn_acc < self.w.knn_floor:
            return [f"knn_acc {self.knn_acc:.4f} below the floor {self.w.knn_floor}"]
        return []

    def eval_report(self, path: Path) -> list[str]:
        report = json.loads(path.read_text())
        problems = []
        # the two sums run in different orders, so allow one vote to flip
        if abs(report["knn_accuracy"] - self.knn_acc) > 1.0 / self.dataset.n:
            problems.append(f"eval knn_accuracy {report['knn_accuracy']} != {self.knn_acc}")
        if not 0.0 <= report["linear_accuracy"] <= 1.0:
            problems.append(f"eval linear_accuracy {report['linear_accuracy']} out of [0, 1]")
        if report["consistent_count"] + report["inconsistent_count"] != self.dataset.n:
            problems.append("eval consistency counts do not cover every anchor")
        return problems + self.same_bytes("eval", path)

    def inspect_csv(self, path: Path) -> list[str]:
        lines = path.read_text().splitlines()
        if lines[:1] != ["anchor,members,entropy,selected,consistent"]:
            return ["inspect CSV header is wrong"]
        if len(lines) != self.dataset.n + 1:
            return [f"inspect CSV has {len(lines) - 1} rows, expected {self.dataset.n}"]
        for i, line in enumerate(lines[1:]):
            anchor, members, entropy, selected, consistent = line.split(",")
            members = members.split(";")
            if (
                int(anchor) != i
                or members[0] != anchor
                or len(set(members)) != self.w.k + 1
                or not math.isfinite(float(entropy))
                or selected not in ("0", "1")
                or consistent not in ("0", "1")
            ):
                return [f"inspect CSV row {i} is malformed: {line}"]
        return self.same_bytes("inspect", path)

    def check(self, unit: Unit) -> None:
        checks = {"train": self.train, "eval": self.eval_report, "inspect": self.inspect_csv}
        for c in unit.commands:
            if c.code != 0:
                unit.problems.append(f"andkit {c.name} exited {c.code}")
                continue
            try:
                unit.problems += checks[c.name](c.out)
            except (OSError, ValueError, KeyError) as err:
                unit.problems.append(f"andkit {c.name} output unreadable: {err!r}")


def environment() -> dict:
    """What the numbers depend on: interpreter, numpy, BLAS, cores, memory."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_PINS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "mem_available_mb": None,
    }
    for name, key, line_key in (
        ("/proc/cpuinfo", "cpu_model", "model name"),
        ("/proc/meminfo", "mem_available_mb", "MemAvailable"),
    ):
        try:
            for line in Path(name).read_text().splitlines():
                if line.startswith(line_key):
                    value = line.split(":", 1)[1].strip()
                    info[key] = int(value.split()[0]) // 1024 if key.startswith("mem") else value
                    break
        except OSError:
            pass
    return info


def import_andkit():
    """Import andkit from this checkout's ``src/``, with BLAS pinned first."""
    os.environ.update(BLAS_PINS)
    sys.path.insert(0, str(SRC))
    import andkit

    if Path(andkit.__file__).resolve().parent != (SRC / "andkit").resolve():
        raise RuntimeError(f"andkit imported from {andkit.__file__}, not from {SRC}")
    return andkit


def make_dataset(w: Workload, seed: int, path: Path):
    from andkit.data import BlobSpec, generate_blobs, load_dataset, save_bin

    save_bin(generate_blobs(BlobSpec(w.classes, w.per_class, w.dim, seed=seed)), path)
    return load_dataset(path)


def repeat_for(seconds: float, step) -> None:
    """Call `step` once, then again until `seconds` have passed since the first call."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """One benchmark run; returns the result object, every gated unit and the digests.

    Raises `statistics.StatisticsError` when no run of some command passed,
    so that no metric can be formed.
    """
    from spans import LAYER_UNITS, layer_metrics

    dataset = make_dataset(w, seed, work / "data.ands")
    runner = Runner(w, seed, work)
    gate = Gate(w, dataset)
    setup = [] if trace else runner.setup_times()
    units: list[Unit] = []
    fixed = None
    if not w.timed_train:
        units.append(Unit([runner.train()]))
        fixed = units[0].commands[0].out / "checkpoint.andc"

    sessions: list[Unit] = []
    traced: list[Unit] = []
    if trace:
        # untraced and traced runs alternate, so drift hits both alike
        def step():
            sessions.append(runner.session(fixed))
            if w.timed_train:
                traced.append(Unit([runner.train(traced=True)]))
            else:
                traced.append(Unit(runner.read(fixed, traced=True)))

        repeat_for(seconds, step)
    else:
        repeat_for(seconds, lambda: sessions.append(runner.session(fixed)))
    units += sessions + traced

    # everything below runs after the timed section
    trains = [c for u in units for c in u.commands if c.name == "train" and c.code == 0]
    final_problems = gate.final_knn(trains[0].out / "checkpoint.andc") if trains else []
    for unit in units:
        gate.check(unit)
        unit.problems += final_problems

    def times(name, pool=units):
        return [c.wall_s for u in pool for c in u.commands if c.name == name and c.code == 0]

    if trace:
        commands = ("train",) if w.timed_train else ("eval", "inspect")
        untraced = units[: len(units) - len(traced)]
        per = [
            layer_metrics([s for c in u.commands for s in json.loads(c.spans.read_text())])
            for u in traced
            if u.ok()
        ]
        if not per:
            raise statistics.StatisticsError("no traced run passed the gate")
        metrics = {name: statistics.median(p[name] for p in per) for name in per[0]}
        metrics["trace.overhead_s"] = sum(
            statistics.median(times(c, traced)) - statistics.median(times(c, untraced))
            for c in commands
        )
        units_of = LAYER_UNITS
    else:
        train_s = statistics.median(times("train"))
        metrics = {
            "train_s": train_s,
            "train_samples_per_s": w.n * w.total_epochs / train_s,
            "eval_s": statistics.median(times("eval")),
            "inspect_s": statistics.median(times("inspect")),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in u.commands) for u in sessions),
            "knn_acc": gate.knn_acc,
        }
        units_of = E2E_UNITS
    failed = sum(not u.ok() for u in units)
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()},
    }
    return result, units, gate.digests


def report(w: Workload, seed: int, result: dict, units: list[Unit], digests: dict) -> None:
    print(f"workload {w.name}  seed {seed}  N={w.n}  epochs={w.total_epochs}  k={w.k}")
    for name, m in result["metrics"].items():
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    share = failed / attempted
    print(f"  {'failed_share':<26} {share:>16.6g} fraction ({failed} of {attempted} gated units)")
    for unit in units:
        for problem in unit.problems:
            print(f"  GATE FAILED: {problem}")
    for kind, digest in sorted(digests.items()):
        print(f"  sha256 {kind:<10} {digest}")
    print("environment " + json.dumps(environment(), sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: N = 100, for the smoke test"
    )
    args = parser.parse_args(argv)
    if not (SRC / "andkit" / "__init__.py").is_file():
        print(f"error: no andkit sources at {SRC}", file=sys.stderr)
        return 2
    import_andkit()
    sys.path.insert(0, str(HERE))
    w = WORKLOADS[args.workload]
    if args.size == "tiny":
        w = tiny(w)

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result, units, digests = run(w, args.seed, args.seconds, bool(args.trace), work)
    except statistics.StatisticsError:
        print(f"error: no command of {w.name} passed; outputs kept in {work}", file=sys.stderr)
        return 1
    report(w, args.seed, result, units, digests)
    if result["correct"]:
        shutil.rmtree(work)
    else:
        print(f"  outputs kept in {work}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
