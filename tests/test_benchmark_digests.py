"""The benchmark workloads' reports still hash to their recorded digests,
and each workload makes its pinned number of Howell eliminations, builds
one extension and lifts its tower to the pinned precisions.

``wittbench/run.py`` rejects a verify run whose report bytes differ from
``wittbench/digests.json`` while the report version is the recorded one.
This runs the verify configuration of every workload in BENCHMARK.json at
two verify seeds in-process and compares the digests of the printed
reports, so a moved report byte shows in the tests too.  The digest file
is only read here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wittram import cli, extensions
from wittram.harness import RunConfig, run
from wittram.report import REPORT_VERSION

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "wittbench" / "digests.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_workloads() -> dict:
    """``WORKLOADS`` of wittbench/run.py, which defines each verify argv."""
    spec = importlib.util.spec_from_file_location("wittbench_run",
                                                  ROOT / "wittbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_report_matches_the_recorded_digest(name, seed, monkeypatch,
                                                      capsysbinary):
    if DIGESTS["report_version"] != REPORT_VERSION:
        pytest.skip(f"digests are recorded for report version "
                    f"{DIGESTS['report_version']}, the reports are version "
                    f"{REPORT_VERSION}; the gate skips the digest rule too")
    monkeypatch.chdir(ROOT)  # spec file paths are echoed relative to the root
    code = cli.main(WORKLOADS[name].verify_argv(seed))
    out = capsysbinary.readouterr().out
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == DIGESTS["reports"][name][str(seed)]


@pytest.mark.parametrize("name,eliminations", [
    ("cyclo3-m2", 4), ("cyclo7-wide", 0), ("gauss-m4", 4)])
def test_workload_makes_its_pinned_eliminations(name, eliminations, howell_calls,
                                                monkeypatch):
    # the trace at N and in the sampler's lift, the saturated kernel and
    # sigma-1 are eliminated once each; h1, the trace lemmas and a control
    # that does not apply eliminate nothing.  The count does not depend on
    # the number of trials.
    w = WORKLOADS[name]
    monkeypatch.chdir(ROOT)
    report, code = run(RunConfig(w.extension, w.precision, w.m, trials=2,
                                 suites=w.suites))
    assert code == 0
    assert len(howell_calls) == eliminations


@pytest.mark.parametrize("name,margins", [
    ("cyclo3-m2", [2]), ("cyclo7-wide", []), ("gauss-m4", [4])])
def test_workload_builds_one_extension(name, margins, lifts, monkeypatch):
    # sigma is built and checked once, at the requested precision; the
    # sampler works in one lift of the ring to N + m, and a run without a
    # sampler or a witness lifts nothing
    w = WORKLOADS[name]
    monkeypatch.chdir(ROOT)
    builds = []
    build = extensions.build_extension

    def counting(spec, precision=None):
        builds.append(precision)
        return build(spec, precision)

    monkeypatch.setattr(extensions, "build_extension", counting)
    report, code = run(RunConfig(w.extension, w.precision, w.m, trials=2,
                                 suites=w.suites))
    assert code == 0
    assert builds == [w.precision]
    assert lifts == [w.precision + k for k in margins]
