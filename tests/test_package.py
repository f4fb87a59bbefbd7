"""The package's import graph: the command line sits on top, and no library module reaches it."""

import os
import subprocess
import sys
from pathlib import Path

import andkit

SRC = Path(andkit.__file__).resolve().parents[1]


def test_no_module_but_cli_imports_cli():
    # a fresh interpreter, since this one has imported andkit.cli already
    code = (
        "import importlib, pkgutil, sys, andkit\n"
        "names = [m.name for m in pkgutil.iter_modules(andkit.__path__) if m.name != 'cli']\n"
        "for name in names:\n"
        "    importlib.import_module('andkit.' + name)\n"
        "print(len(names), 'andkit.cli' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    count, imported = done.stdout.split()
    assert int(count) >= 9  # every module but cli was imported
    assert imported == "False"
