"""The import path of ``wittram verify`` stays light.

``import wittram.cli`` loads neither ``dataclasses`` (which pulls in
``inspect``, ``ast`` and ``dis``), nor ``csv``, nor the symbolic layer
``wittram.universal``: the symbolic suite, ``witt-poly`` and ``--format
csv`` import what they need when they run, ``witt-poly`` never loads
the verify stack, and ``extension-info`` loads nothing past the build.  The package binds no names, so ``import wittram`` loads
no submodule, and building an extension loads only the three modules it
runs.  A verify run leaves OpenSSL (``_hashlib``) unloaded.  Each case
starts a fresh interpreter, because the test process has loaded all of
them already.
"""

import hashlib
import importlib.util
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


def _run(code):
    """stdout of ``code`` in a fresh interpreter, split into words."""
    done = _python(["-c", code])
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().split()


def test_bare_import_loads_no_submodule():
    assert _run("import sys, wittram\n"
                "print(*(m for m in sys.modules if m.startswith('wittram.')))") == []


def test_building_an_extension_loads_three_modules():
    new = _run("import sys\n"
               "before = set(sys.modules)\n"
               "from wittram.extensions import resolve_extension\n"
               "resolve_extension('quadratic-gaussian', 48)\n"
               "print(*sorted(set(sys.modules) - before))")
    assert [m for m in new if m.startswith("wittram")] == [
        "wittram", "wittram.errors", "wittram.extensions", "wittram.rings"]
    assert "hashlib" not in new and "json" not in new


def test_cli_import_loads_no_heavy_module():
    done = _python(["-c", "import sys, wittram.cli\n"
                          f"for name in {HEAVY!r}:\n"
                          "    if name in sys.modules:\n"
                          "        print(name)\n"])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == []


def test_witt_poly_loads_no_verify_stack():
    assert _run("import contextlib, io, sys\n"
                "from wittram.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                "    code = main(['witt-poly', '--p', '3', '--level', '2', '--which', 'f'])\n"
                "print(code, len(out.getvalue().splitlines()) > 0)\n"
                "for name in ('cohomology', 'harness', 'report'):\n"
                "    print(name, 'wittram.' + name in sys.modules)") == [
        "0", "True", "cohomology", "False", "harness", "False", "report", "False"]


def test_extension_info_loads_only_the_build():
    # every check of the data runs in the build, so d comes from t alone
    assert _run("import contextlib, io, sys\n"
                "from wittram.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                "    code = main(['extension-info', '--extension', 'cyclotomic-step'])\n"
                "print(code, 'd: 2' in out.getvalue().splitlines())\n"
                "for name in ('cohomology', 'linalg', 'witt', 'report', 'harness'):\n"
                "    print(name, 'wittram.' + name in sys.modules)") == [
        "0", "True", "cohomology", "False", "linalg", "False", "witt", "False",
        "report", "False", "harness", "False"]


@pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                    and importlib.util.find_spec("_sha256") is None,
                    reason="this Python has no builtin _sha2 or _sha256 module")
def test_verify_loads_no_openssl():
    # every suite runs, so both hashes are taken: run seeds and symbolic digests
    assert _run("import contextlib, io, sys\n"
                "from wittram.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(['verify', '--extension', 'quadratic-gaussian',\n"
                "                 '--trials', '3'])\n"
                "print(code, '_hashlib' in sys.modules)") == ["0", "False"]


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS), ids=lambda a: a[0])
def test_runs_that_need_the_symbolic_layer_are_unchanged(argv):
    done = _python(["-m", "wittram.cli"] + list(argv))
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == OUTPUT_DIGESTS[argv]
