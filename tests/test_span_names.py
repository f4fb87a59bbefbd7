"""The benchmark's tracer wraps andkit functions by name; renaming one must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs_on_this_tree():
    # a fresh interpreter, so the wrapped names do not leak into other tests
    code = "from spans import Tracer, install; install(Tracer('names'))"
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
