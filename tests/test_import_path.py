"""The import path of ``wittram verify`` stays light.

``import wittram.cli`` loads neither ``dataclasses`` (which pulls in
``inspect``, ``ast`` and ``dis``), nor ``csv``, nor the symbolic layer
``wittram.universal``: the symbolic suite, ``witt-poly`` and ``--format
csv`` import what they need when they run.  Each case starts a fresh
interpreter, because the test process has loaded all of them already.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "csv", "wittram.universal")

#: SHA-256 of the stdout of runs that load the symbolic layer on demand,
#: recorded while it was still imported with the package
OUTPUT_DIGESTS = {
    ("verify", "--extension", "cyclotomic-step", "--suites", "symbolic",
     "--format", "json"):
        "c72f04d58c415ac5c9563e3b87e9f93d91d7298d45cb5bb3ed7b0c2953f0699e",
    ("witt-poly", "--p", "3", "--level", "2", "--which", "f"):
        "1ec9ca9f66d5eb02c858b191930100f1a218e3a3ebb5b5961d62d6d639592649",
}


def _python(args):
    return subprocess.run([sys.executable] + args, cwd=ROOT, capture_output=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH="src"))


def test_cli_import_loads_no_heavy_module():
    done = _python(["-c", "import sys, wittram.cli\n"
                          f"for name in {HEAVY!r}:\n"
                          "    if name in sys.modules:\n"
                          "        print(name)\n"])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == []


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS), ids=lambda a: a[0])
def test_runs_that_need_the_symbolic_layer_are_unchanged(argv):
    done = _python(["-m", "wittram.cli"] + list(argv))
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == OUTPUT_DIGESTS[argv]
