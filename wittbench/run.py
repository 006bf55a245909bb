"""Benchmark of `wittram verify`, end to end and per layer.

Usage, from the root of a checkout:

    python3 wittbench/run.py --workload cyclo3-m2 --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: one fresh-interpreter
`python3 -m wittram.cli verify ... --format json` at a time, the next one
started when the previous one has exited.  Inputs come from ``--seed``: it
fixes the order in which the verify seeds of the workload's pool are run.
Every report passes a correctness gate (see ``gate``).  Times are scaled to
a reference machine speed measured between children (see ``Run.child``).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs pairs of
an untraced and a traced verify on the same verify seed and reports the
per-layer metrics from the traced one (see ``tracer.py``).  ``--workload
all`` runs every workload in turn.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".wittbench"
DIGESTS = BENCH / "digests.json"

#: verify seeds with a recorded report digest, per workload
POOL_SIZE = 32
#: fresh-interpreter set-up samples per run; the median is reported
SETUP_PROBES = 9
#: fewest verify runs (pairs, when traced) a run reports on
MIN_SAMPLES = 3
#: no child is started that could outlive this many seconds of the run
HARD_LIMIT_S = 170.0
#: the calibration loop's time on the reference machine; timings are
#: reported in seconds of that machine (NOTES.md, "Machine speed")
REFERENCE_CALIBRATION_S = 0.025

SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import wittram
from wittram.extensions import resolve_extension
ext = resolve_extension(sys.argv[1], int(sys.argv[2]))
setup_s = time.perf_counter() - t0
print(json.dumps({"setup_s": setup_s, "module": wittram.__file__, "t": ext.t}))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    extension: str        # built-in name, or a spec file relative to the root
    precision: int
    m: int
    suites: tuple
    trials: int

    def verify_argv(self, seed: int) -> list:
        flag = "--spec-file" if self.extension.endswith(".json") else "--extension"
        return ["verify", flag, self.extension, "--precision", str(self.precision),
                "--m", str(self.m), "--suites", ",".join(self.suites),
                "--trials", str(self.trials), "--seed", str(seed), "--format", "json"]


# Why each workload, and which layers it stresses or bypasses: NOTES.md.
WORKLOADS = {w.name: w for w in (
    Workload("cyclo3-m2", "cyclotomic-step", 32, 2, ("cascade", "proposition"), 12),
    Workload("cyclo7-wide", "wittbench/cyclo7.json", 32, 1,
             ("symbolic", "trace-lemmas", "h1", "negative-control"), 30),
    Workload("gauss-m4", "quadratic-gaussian", 48, 4,
             ("symbolic", "trace-lemmas", "cascade", "proposition", "h1",
              "negative-control"), 40),
)}

END_TO_END = (("verify_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: per-layer metrics read from one span: (metric, unit, span, field)
SPAN_METRICS = (
    ("rings.flat_mul.calls", "count", "rings.flat_mul", "calls"),
    ("rings.flat_mul.self_s", "s", "rings.flat_mul", "self_s"),
    ("rings.flat_mul.us_per_call", "us", "rings.flat_mul", "us_per_call"),
    ("rings.tower_init.calls", "count", "rings.tower_init", "calls"),
    ("rings.tower_init.self_s", "s", "rings.tower_init", "self_s"),
    ("witt.evaluate_poly.calls", "count", "witt.evaluate_poly", "calls"),
    ("witt.evaluate_poly.terms", "count", "witt.evaluate_poly", "value"),
    ("witt.evaluate_poly.self_s", "s", "witt.evaluate_poly", "self_s"),
    ("witt.witt_add.calls", "count", "witt.witt_add", "calls"),
    ("witt.witt_add.total_s", "s", "witt.witt_add", "total_s"),
    ("witt.witt_trace.total_s", "s", "witt.witt_trace", "total_s"),
    ("universal.sum_polynomials.self_s", "s", "universal.sum_polynomials", "self_s"),
    ("universal.carry_polynomial.calls", "count", "universal.carry_polynomial", "calls"),
    ("universal.carry_polynomial.self_s", "s", "universal.carry_polynomial", "self_s"),
    ("extensions.build_extension.calls", "count", "extensions.build_extension", "calls"),
    ("extensions.build_extension.total_s", "s", "extensions.build_extension", "total_s"),
    ("extensions.apply_sigma.calls", "count", "extensions.apply_sigma", "calls"),
    ("extensions.apply_sigma.self_s", "s", "extensions.apply_sigma", "self_s"),
    ("extensions.trace.self_s", "s", "extensions.trace", "self_s"),
    ("linalg.howell_form.calls", "count", "linalg.howell_form", "calls"),
    ("linalg.howell_form.self_s", "s", "linalg.howell_form", "self_s"),
    ("linalg.member.calls", "count", "linalg.member", "calls"),
    ("linalg.solve_columnwise.self_s", "s", "linalg.solve_columnwise", "self_s"),
    ("linalg.quotient_invariants.total_s", "s", "linalg.quotient_invariants", "total_s"),
    ("cohomology.sample_trace_zero.calls", "count", "cohomology.sample_trace_zero", "calls"),
    ("cohomology.linear_map_of.self_s", "s", "cohomology.linear_map_of", "self_s"),
    ("cohomology.h1_level1.total_s", "s", "cohomology.h1_level1", "total_s"),
) + tuple((f"harness.suite.{s}.total_s", "s", f"harness.suite.{s}", "total_s")
          for s in WORKLOADS["gauss-m4"].suites) + (
    ("report.emit_report.total_s", "s", "report.emit_report", "total_s"),
)

#: per-layer metrics that need more than one span
DERIVED_METRICS = (
    ("cohomology.sample_trace_zero.ms_p50", "ms"),
    ("cohomology.sampler.accept_ratio", "ratio"),
    ("cohomology.sampler.draws_per_vector", "count"),
    ("harness.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)

PER_LAYER = tuple((m, u) for m, u, _, _ in SPAN_METRICS) + DERIVED_METRICS

#: samples printed with the metrics but not part of the result: raw wall
#: times and the calibration that scales them
PRINTED_ONLY = (("verify_wall_s", "s"), ("setup_wall_s", "s"), ("calibration_ms", "ms"),
                ("verify_wall_s.untraced", "s"), ("verify_wall_s.traced", "s"))


class CheckoutError(Exception):
    """The directory the benchmark runs in cannot run wittram."""


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list, timeout_s: float) -> Child:
    """Run one fresh interpreter to completion; time it and read its peak RSS.

    ``os.wait4`` returns the resource usage of that one child, unlike
    ``RUSAGE_CHILDREN``, which keeps the maximum over all children.
    """
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                 wall, usage.ru_maxrss / 1024.0)


def check_checkout():
    if not (ROOT / "src" / "wittram" / "__init__.py").is_file():
        raise CheckoutError(f"no wittram sources under {ROOT / 'src'}")


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc, mod = 0, (1 << 61) - 1
        for i in range(150_000):
            acc = (acc * 31 + i * i) % mod
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def report_digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def gate(w: Workload, seed: int, code: int, out: bytes, digests: dict) -> list:
    """Reasons a verify run fails the correctness gate; empty when it passes.

    A run passes when it exits 0, its JSON report has every requested suite
    and no check with status ``fail`` or ``failures > 0``, and, when the
    report version and the seed have a recorded digest, the report bytes
    hash to it.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if doc.get("config", {}).get("seed") != seed:
        problems.append("report echoes another seed")
    seen = {s["suite"] for s in doc.get("suites", [])}
    missing = set(w.suites) - seen
    if missing:
        problems.append(f"suites missing from the report: {sorted(missing)}")
    for s in doc.get("suites", []):
        if s["status"] == "fail":
            problems.append(f"suite {s['suite']} failed")
        for c in s["checks"]:
            if c["status"] == "fail" or c["failures"] > 0:
                problems.append(f"check {s['suite']}/{c['name']} failed")
    if doc.get("version") == digests["report_version"]:
        expected = digests["reports"].get(w.name, {}).get(str(seed))
        if expected is not None and report_digest(out) != expected:
            problems.append("report bytes differ from the recorded digest")
    return problems


def verify_seeds(w: Workload, seed: int):
    """The pool's verify seeds in an order fixed by the benchmark seed."""
    order = list(range(POOL_SIZE))
    random.Random(f"{w.name}:{seed}").shuffle(order)
    while True:
        yield from order


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def span_value(summary: dict, span: str, field: str) -> float:
    s = summary["spans"].get(span)
    if s is None:
        return 0
    if field == "us_per_call":
        return s["self_s"] / s["calls"] * 1e6 if s["calls"] else 0.0
    return s[field]


class Run:
    """One benchmark run of one workload: samples, failures and output lines."""

    def __init__(self, w: Workload, seed: int, seconds: int, trace: bool):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.t0 = time.perf_counter()
        self.digests = load_digests()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}          # metric -> list of per-sample values
        self.calibration = None    # latest calibration_s()
        self.sampler = {"vectors": 0, "member_tests": 0, "member_accepted": 0,
                        "kernel_draws": 0}

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def budget(self) -> float:
        return HARD_LIMIT_S - self.elapsed()

    def add(self, metric: str, value: float):
        self.samples.setdefault(metric, []).append(value)

    def child(self, argv: list) -> tuple:
        """A child run, and the factor that scales its times to the reference
        machine: calibrations just before and just after it give the speed."""
        before = self.calibration
        child = run_child(argv, self.budget())
        self.calibration = calibration_s()
        self.add("calibration_ms", self.calibration * 1e3)
        return child, 2 * REFERENCE_CALIBRATION_S / (before + self.calibration)

    def setup_probe(self) -> float:
        """Reference seconds for `import wittram` plus `resolve_extension`."""
        child, scale = self.child(["-c", SETUP_PROBE, self.w.extension,
                                   str(self.w.precision)])
        if child.code != 0:
            raise CheckoutError(f"set-up probe failed: {child.err.decode(errors='replace')}")
        doc = json.loads(child.out)
        module = Path(doc["module"]).resolve()
        if module.parent != (ROOT / "src" / "wittram").resolve():
            raise CheckoutError(f"wittram was imported from {module}, not from the checkout")
        self.add("setup_wall_s", doc["setup_s"])
        return doc["setup_s"] * scale

    def verify(self, vseed: int, traced: bool, summary_path: Path = None) -> tuple:
        """One verify run, its scale factor, and the reasons it fails the gate."""
        argv = self.w.verify_argv(vseed)
        if traced:
            argv = [str(BENCH / "tracer.py"), str(summary_path)] + argv
        else:
            argv = ["-m", "wittram.cli"] + argv
        child, scale = self.child(argv)
        return child, scale, gate(self.w, vseed, child.code, child.out, self.digests)

    def count(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def measure(self):
        check_checkout()
        self.calibration = calibration_s()
        self.setup_probe()
        self.samples.clear()    # the warm-up, which writes the bytecode cache
        for _ in range(0 if self.trace else SETUP_PROBES):
            self.add("setup_s", self.setup_probe())
        seeds = verify_seeds(self.w, self.seed)
        durations = []
        # a sample starts only if one of typical length ends within --seconds
        while len(durations) < MIN_SAMPLES or \
                self.elapsed() + statistics.median(durations) <= self.seconds:
            if durations and self.budget() < 2 * max(durations):
                break
            start = self.elapsed()
            if self.trace:
                # alternate the order so neither side always runs first
                self.traced_pair(next(seeds), traced_first=len(durations) % 2 == 1)
            else:
                vseed = next(seeds)
                child, scale, problems = self.verify(vseed, traced=False)
                self.count(f"verify seed {vseed}", problems)
                self.add("verify_s", child.wall_s * scale)
                self.add("verify_wall_s", child.wall_s)
                self.add("peak_rss_mb", child.peak_rss_mb)
            durations.append(self.elapsed() - start)
        n = len(durations)
        if n < MIN_SAMPLES:
            self.problems.append(f"only {n} samples fit in the time limit")

    def traced_pair(self, vseed: int, traced_first: bool):
        """An untraced and a traced verify of one seed, in the given order."""
        summary_path = WORK / "trace.json"
        runs = {traced: self.verify(vseed, traced, summary_path)
                for traced in (traced_first, not traced_first)}
        plain, _, problems = runs[False]
        self.count(f"verify seed {vseed}", problems)
        traced, _, problems = runs[True]
        if traced.out != plain.out:
            problems.append("traced and untraced report bytes differ")
        self.count(f"traced verify seed {vseed}", problems)
        if traced.code != 0 or not summary_path.is_file():
            return
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        summary_path.unlink()
        traced_s = traced.wall_s - summary["post_s"]
        for metric, _, span, field in SPAN_METRICS:
            self.add(metric, span_value(summary, span, field))
        sampler = summary["sampler"]
        for key in self.sampler:
            self.sampler[key] += sampler[key]
        self.add("cohomology.sample_trace_zero.ms_p50", sampler["ms_p50"])
        self.add("harness.untraced_s", traced_s - summary["root_s"])
        self.add("trace.overhead_s", traced_s - plain.wall_s)
        self.add("verify_wall_s.untraced", plain.wall_s)
        self.add("verify_wall_s.traced", traced_s)

    def metrics(self) -> dict:
        s = self.sampler
        pooled = {
            "cohomology.sampler.accept_ratio":
                s["member_accepted"] / s["member_tests"] if s["member_tests"] else 0.0,
            "cohomology.sampler.draws_per_vector":
                s["kernel_draws"] / s["vectors"] if s["vectors"] else 0.0,
        }
        out = {}
        for metric, unit in PER_LAYER if self.trace else END_TO_END:
            if metric in pooled:
                value = pooled[metric]
            elif metric in self.samples:
                value = statistics.median(self.samples[metric])
            else:
                self.problems.append(f"no samples for {metric}")
                value = 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def lines(self) -> list:
        lines = [f"workload {self.w.name}: seed={self.seed} seconds={self.seconds} "
                 f"trace={int(self.trace)} closed loop, 1 client"]
        units = dict(END_TO_END + PER_LAYER + PRINTED_ONLY)
        for metric, values in self.samples.items():
            q1, med, q3 = quartiles(values)
            lines.append(f"  {metric:<40} median {med:.6g} {units[metric]}  "
                         f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        if self.trace:
            s = self.sampler
            lines.append(f"  sampler: {s['member_accepted']} of {s['member_tests']} "
                         f"membership tests accepted, {s['kernel_draws']} kernel "
                         f"draws for {s['vectors']} vectors")
        frac = self.failed / self.attempted if self.attempted else 0.0
        lines.append(f"  {'failed_frac':<40} {frac:.4f} ratio  "
                     f"({self.failed} of {self.attempted} verify runs)")
        lines.extend(f"  FAIL {p}" for p in self.problems)
        return lines


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return res.stdout.strip()


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        check_checkout()
        print("context: " + json.dumps({
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_rev": git_rev(), "src_sha256": src_sha256()}, sort_keys=True))
        runs = []
        for name in names:
            run = Run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            run.measure()
            print("\n".join(run.lines()), flush=True)
            runs.append(run)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(runs) == 1:
        metrics = runs[0].metrics()
    else:
        metrics = {f"{r.w.name}.{k}": v for r in runs for k, v in r.metrics().items()}
    for r in runs:
        sys.stderr.writelines(f"FAIL {r.w.name}: {p}\n" for p in r.problems)
    result = {
        "correct": all(not r.problems for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
