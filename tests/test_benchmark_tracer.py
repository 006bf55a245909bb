"""The benchmark tracer still wraps every name it traces.

``wittbench/tracer.py`` raises at install when a function it wraps is gone
from the package, so one traced run guards all of those names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ["verify", "--extension", "quadratic-gaussian", "--suites", "cascade,h1",
          "--m", "1", "--trials", "1", "--format", "json"]
SYMBOLIC = ["verify", "--extension", "quadratic-gaussian", "--suites", "symbolic",
            "--format", "json"]


def _python(args):
    return subprocess.run([sys.executable] + args, cwd=ROOT, capture_output=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH="src"))


def test_traced_verify_prints_the_untraced_report(tmp_path):
    summary = tmp_path / "summary.json"
    traced = _python(["wittbench/tracer.py", str(summary)] + VERIFY)
    plain = _python(["-m", "wittram.cli"] + VERIFY)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    spans = json.loads(summary.read_text(encoding="utf-8"))["spans"]
    assert spans["cohomology.h1_level1"]["calls"] >= 1


def test_traced_symbolic_suite_sees_the_wrapped_polynomials(tmp_path):
    # the symbolic suite imports the universal layer when it runs, after the
    # tracer has wrapped it; its spans prove that it calls the wrappers
    summary = tmp_path / "summary.json"
    traced = _python(["wittbench/tracer.py", str(summary)] + SYMBOLIC)
    plain = _python(["-m", "wittram.cli"] + SYMBOLIC)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    spans = json.loads(summary.read_text(encoding="utf-8"))["spans"]
    assert spans["universal.sum_polynomials"]["calls"] >= 1
    assert spans["harness.suite.symbolic"]["calls"] == 1
