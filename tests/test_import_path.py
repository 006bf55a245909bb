"""The import path of ``wittram verify`` stays light.

``import wittram.cli`` loads neither ``dataclasses`` (which pulls in
``inspect``, ``ast`` and ``dis``), nor ``csv``, nor the symbolic layer
``wittram.universal``: the symbolic suite, ``witt-poly`` and ``--format
csv`` import what they need when they run, and ``witt-poly`` never loads
the verify stack.  The package namespace is lazy:
``import wittram`` loads no submodule, and building an extension loads
only the three modules it runs.  Each case starts a fresh interpreter,
because the test process has loaded all of them already.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "csv", "wittram.universal")

#: every name the package re-exports, by home module
EXPORTS = {
    "errors": ("ConfigError", "IntegralityError", "InvalidExtension",
               "LengthMismatch", "NoSolution", "NotEisenstein",
               "PrecisionExhausted", "ResourceLimit", "SamplingExhausted",
               "SigmaNotARoot", "SigmaWrongOrder", "VerificationError",
               "WittramError"),
    "rings": ("OLElement", "Tower", "Valuation", "valuation_K", "valuation_L"),
    "extensions": ("BUILTIN_NAMES", "ExtensionData", "ExtensionSpec",
                   "SigmaBasis", "build_extension", "load_spec_file",
                   "ramification_break", "resolve_extension", "sigma_basis"),
    "witt": ("WittVec", "apply_sigma", "ghost_map", "restrict", "teichmuller",
             "verschiebung", "witt_add", "witt_neg", "witt_trace", "witt_zero"),
    "linalg": ("HowellBasis", "howell_form", "member", "smith_invariants"),
    "cohomology": ("LinearMap", "h1_level1", "linear_map_of", "negative_control",
                   "sample_trace_zero", "solve_linear", "trace_image_exponent",
                   "verify_cascade", "verify_restriction_vanishing",
                   "verify_trace_valuations"),
    "harness": ("RunConfig", "run", "symbolic_suite"),
    "report": ("Report", "emit_report"),
}

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
               "from wittram import resolve_extension\n"
               "resolve_extension('quadratic-gaussian', 48)\n"
               "print(*sorted(set(sys.modules) - before))")
    assert [m for m in new if m.startswith("wittram")] == [
        "wittram", "wittram.errors", "wittram.extensions", "wittram.rings"]
    assert "hashlib" not in new and "json" not in new


def test_re_exported_names_are_their_home_objects():
    # the package is asked first, so each name goes through the lazy path
    assert _run("import importlib, wittram\n"
                f"exports = {EXPORTS!r}\n"
                "got = {n: getattr(wittram, n) for ns in exports.values() for n in ns}\n"
                "for home, names in exports.items():\n"
                "    mod = importlib.import_module('wittram.' + home)\n"
                "    for n in names:\n"
                "        if got[n] is not getattr(mod, n) or n not in dir(wittram):\n"
                "            print(n)\n"
                "from wittram import linalg\n"
                "print(linalg.__name__)") == ["wittram.linalg"]


def test_unknown_name_is_an_attribute_error():
    assert _run("import wittram\n"
                "try:\n"
                "    wittram.nope\n"
                "except AttributeError as exc:\n"
                "    print(type(exc).__name__)") == ["AttributeError"]


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


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS), ids=lambda a: a[0])
def test_runs_that_need_the_symbolic_layer_are_unchanged(argv):
    done = _python(["-m", "wittram.cli"] + list(argv))
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == OUTPUT_DIGESTS[argv]
