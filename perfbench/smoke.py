"""Smoke test of the benchmark itself; exits 0 when every check passes.

    python3 perfbench/smoke.py

Runs each workload at the tiny size (N = 100) with tracing off and on. It
checks that the last line is a passing result whose metrics are exactly
those of BENCHMARK.json, and that each metric was printed above it by name
with its unit. It also checks that the gate trips on a truncated
checkpoint, and that the benchmark refuses to run without the andkit
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_workload(name: str, trace: int, expected: dict[str, str]) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]  # fmt: skip
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: gate did not pass: {proc.stdout}")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != BENCHMARK.json {expected}")
    printed = {tuple(line.split()[::2]) for line in lines if len(line.split()) == 3}
    for metric, unit in expected.items():
        if (metric, unit) not in printed:
            problems.append(f"{where}: {metric} [{unit}] not printed by name with its unit")
    if not any(line.split()[:1] == ["failed_share"] for line in lines):
        problems.append(f"{where}: failed_share not printed")
    if not any(line.startswith("environment ") for line in lines):
        problems.append(f"{where}: environment not printed")
    return problems


def check_truncated_checkpoint(work: Path) -> list[str]:
    """The gate must reject a checkpoint cut short by one byte."""
    sys.path.insert(0, str(HERE))
    import run

    run.import_andkit()
    w = run.tiny(run.WORKLOADS["desk"])
    dataset = run.make_dataset(w, 3, work / "data.ands")
    train = run.Runner(w, 3, work).train()
    if train.code != 0:
        return [f"tiny train exited {train.code}: {(work / 'stderr.log').read_text()}"]
    gate = run.Gate(w, dataset)
    unit = run.Unit([train])
    gate.check(unit)
    if not unit.ok():
        return [f"gate rejects an intact checkpoint: {unit.problems}"]
    ckpt = train.out / "checkpoint.andc"
    ckpt.write_bytes(ckpt.read_bytes()[:-1])
    unit = run.Unit([train])
    gate.check(unit)
    if unit.ok() or not any("does not load" in p for p in unit.problems):
        return [f"gate passed a truncated checkpoint: {unit.problems}"]
    return []


def check_refuses_without_sources(work: Path) -> list[str]:
    """In a directory with only BENCHMARK.json and perfbench/, exit non-zero, print no result."""
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "desk", "--seed", "1",
            "--seconds", "1", "--trace", "0"]  # fmt: skip
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without andkit sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += check_workload(workload["name"], trace, expected[trace])
    work = ROOT / ".perfbench-work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems += check_truncated_checkpoint(work)
        problems += check_refuses_without_sources(work)
    finally:
        shutil.rmtree(work)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
