"""Tests of the benchmark itself: python3 -m pytest wittbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from run import BENCH, ROOT, WORKLOADS

NO_DIGESTS = {"report_version": None, "reports": {}}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def pair(request, tmp_path_factory):
    """An untraced and a traced verify of one workload, at two trials."""
    w = dataclasses.replace(WORKLOADS[request.param], trials=2)
    summary_path = tmp_path_factory.mktemp("trace") / "summary.json"
    plain = run.run_child(["-m", "wittram.cli"] + w.verify_argv(0), 300.0)
    traced = run.run_child([str(BENCH / "tracer.py"), str(summary_path)]
                           + w.verify_argv(0), 300.0)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    return w, plain, traced, summary


def calls(summary, span):
    return summary["spans"].get(span, {"calls": 0})["calls"]


def test_traced_report_is_byte_identical(pair):
    w, plain, traced, _ = pair
    assert plain.code == 0 and traced.code == 0
    # digests are recorded at the workload's own trial count, not at two
    assert run.gate(w, 0, plain.code, plain.out, NO_DIGESTS) == []
    assert traced.out == plain.out


def test_expected_counts(pair):
    w, _, _, summary = pair
    assert calls(summary, "rings.flat_mul") > 0
    if w.name == "cyclo7-wide":
        assert calls(summary, "witt.evaluate_poly") == 0
        assert calls(summary, "witt.witt_add") == 0
    else:
        # witt_add evaluates m+1 addition laws; the rest are carry targets,
        # which only a rebinding inside cohomology sees
        assert calls(summary, "witt.evaluate_poly") > (w.m + 1) * calls(summary, "witt.witt_add")
        assert summary["sampler"]["vectors"] == calls(summary, "cohomology.sample_trace_zero")
        assert 0 < summary["sampler"]["member_accepted"] <= summary["sampler"]["member_tests"]


def test_self_time_never_exceeds_total(pair):
    _, _, _, summary = pair
    for name, span in summary["spans"].items():
        assert 0 <= span["self_s"] <= span["total_s"] + 1e-9, name
    assert summary["root_s"] <= summary["main_s"]


def test_tampered_digest_fails_gate():
    w = WORKLOADS["gauss-m4"]
    child = run.run_child(["-m", "wittram.cli"] + w.verify_argv(0), 300.0)
    digests = run.load_digests()
    assert run.gate(w, 0, child.code, child.out, digests) == []
    recorded = digests["reports"][w.name]["0"]
    digests["reports"][w.name]["0"] = ("0" if recorded[0] != "0" else "1") + recorded[1:]
    assert run.gate(w, 0, child.code, child.out, digests) == [
        "report bytes differ from the recorded digest"]


def test_gate_rejects_failed_checks_and_exit_codes():
    w = WORKLOADS["gauss-m4"]
    doc = {"version": "other", "config": {"seed": 0}, "suites": [
        {"suite": s, "status": "pass",
         "checks": [{"name": "c", "status": "pass", "failures": 0}]} for s in w.suites]}
    digests = run.load_digests()
    assert run.gate(w, 0, 0, json.dumps(doc).encode(), digests) == []
    assert run.gate(w, 0, 1, json.dumps(doc).encode(), digests) == ["exit code 1"]
    doc["suites"][2]["checks"][0]["failures"] = 1
    assert run.gate(w, 0, 0, json.dumps(doc).encode(), digests) == [
        "check cascade/c failed"]


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "wittbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "wittbench/run.py", "--workload", "gauss-m4",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
