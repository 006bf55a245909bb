"""Run records and their text / JSON / CSV serializations.

Suites tally checks only through ``CheckResult.record(ok, counterexample)``
(one trial: a pass, or a failure that fails the check and keeps the
counterexample, when given, under ``detail["counterexamples"]``) and
``CheckResult.skip()`` (one trial counted as skipped, at the precision
horizon).  Checks without trials set ``status`` directly.

JSON and CSV renderings are byte-stable for a fixed (config, seed) pair:
they contain no timestamps and no wall-clock durations, and all dict keys
are emitted sorted.  Durations are kept on the records for the human
readable text format only.
"""

from __future__ import annotations

import io
import json

REPORT_VERSION = "1"

CSV_COLUMNS = ("suite", "extension", "check", "p", "N", "t", "m",
               "status", "trials", "passes", "failures", "skipped", "detail")


class CheckResult:
    """Outcome of one named check inside a suite."""

    __slots__ = ("name", "status", "trials", "passes", "failures", "skipped",
                 "detail")

    def __init__(self, name: str, status: str, detail: dict = None):
        self.name = name
        self.status = status  # "pass" | "fail" | "skip" | "info"
        self.trials = self.passes = self.failures = self.skipped = 0
        self.detail = {} if detail is None else detail

    def record(self, ok: bool, counterexample: dict = None) -> None:
        """Count one trial as a pass, or as a failure of the check."""
        self.trials += 1
        if ok:
            self.passes += 1
            return
        self.failures += 1
        self.status = "fail"
        if counterexample is not None:
            self.detail.setdefault("counterexamples", []).append(counterexample)

    def skip(self) -> None:
        """Count one trial as skipped."""
        self.trials += 1
        self.skipped += 1


class SuiteRecord:
    """All checks of one suite run against one extension."""

    __slots__ = ("suite", "extension", "p", "N", "t", "m", "checks",
                 "duration_s")

    def __init__(self, suite: str, extension: str, p: int, N: int, t: int,
                 m: int, checks: list):
        self.suite = suite
        self.extension = extension
        self.p = p
        self.N = N
        self.t = t
        self.m = m
        self.checks = checks
        self.duration_s = 0.0

    @classmethod
    def of(cls, suite: str, ext, m: int, checks: list) -> "SuiteRecord":
        """A record whose extension name, p, N and t are read off ``ext``."""
        return cls(suite, ext.name, ext.p, ext.N, ext.t, m, checks)

    @property
    def status(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        if any(c.status == "pass" for c in self.checks):
            return "pass"
        return "info"


class Report:
    """A versioned run: the echoed config and one record per suite."""

    __slots__ = ("version", "config", "suites")

    def __init__(self, version: str, config: dict, suites: list = None):
        self.version = version
        self.config = config
        self.suites = [] if suites is None else suites

    @property
    def failed(self) -> bool:
        return any(s.status == "fail" for s in self.suites)


def _check_dict(check: CheckResult) -> dict:
    return {
        "name": check.name,
        "status": check.status,
        "trials": check.trials,
        "passes": check.passes,
        "failures": check.failures,
        "skipped": check.skipped,
        "detail": check.detail,
    }


def _suite_dict(suite: SuiteRecord) -> dict:
    return {
        "suite": suite.suite,
        "extension": suite.extension,
        "params": {"p": suite.p, "N": suite.N, "t": suite.t, "m": suite.m},
        "status": suite.status,
        "checks": [_check_dict(c) for c in suite.checks],
    }


def to_json(report: Report) -> str:
    doc = {
        "version": report.version,
        "config": report.config,
        "suites": [_suite_dict(s) for s in report.suites],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def to_csv(report: Report) -> str:
    import csv  # only this format needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in report.suites:
        for c in s.checks:
            writer.writerow([
                s.suite, s.extension, c.name, s.p, s.N, s.t, s.m,
                c.status, c.trials, c.passes, c.failures, c.skipped,
                json.dumps(c.detail, sort_keys=True),
            ])
    return buf.getvalue()


def to_text(report: Report) -> str:
    lines = [f"wittram report v{report.version}"]
    cfg = ", ".join(f"{k}={v}" for k, v in sorted(report.config.items()))
    lines.append(f"config: {cfg}")
    for s in report.suites:
        lines.append("")
        lines.append(f"[{s.suite}] extension={s.extension} p={s.p} N={s.N} "
                     f"t={s.t} m={s.m} status={s.status.upper()} "
                     f"({s.duration_s:.3f}s)")
        name_w = max((len(c.name) for c in s.checks), default=0)
        for c in s.checks:
            counts = ""
            if c.trials:
                counts = (f"  trials={c.trials} passes={c.passes} "
                          f"failures={c.failures} skipped={c.skipped}")
            detail = ""
            if c.detail:
                detail = "  " + json.dumps(c.detail, sort_keys=True)
            lines.append(f"  {c.name:<{name_w}}  {c.status.upper():<5}{counts}{detail}")
    overall = "FAIL" if report.failed else "PASS"
    lines.append("")
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str) -> str:
    """Serialize a report as text, json or csv."""
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown report format {fmt!r}")
