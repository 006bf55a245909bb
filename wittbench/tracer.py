"""Outside-in span tracer for one `wittram verify` process.

The tracer never edits the package: it replaces selected public functions
and methods with timing wrappers after import.  A function imported by
value (``from .witt import evaluate_poly``) lives on as a separate name in
the importing module, so every wittram module that holds the original
object gets the wrapper, not only the module that defines it.

Spans (name, start, end, parent, value) are kept in compact arrays while
the program runs and reduced to per-name counts and times when it ends.
Self time is a span's duration minus the durations of its direct children.

Run as a script it traces one CLI invocation:

    PYTHONPATH=src python3 wittbench/tracer.py SUMMARY.json verify ...

The report goes to stdout exactly as `python3 -m wittram.cli` prints it;
the span summary goes to SUMMARY.json.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array

#: span names whose wrapped callable lives in one module only: the harness
#: names each suite function once, while cohomology calls some of them
#: internally (the proposition suite falls back to the negative control)
SUITE_FUNCTIONS = {
    "symbolic": "symbolic_suite",
    "trace-lemmas": "verify_trace_valuations",
    "cascade": "cascade_suite",
    "proposition": "verify_restriction_vanishing",
    "h1": "h1_suite",
    "negative-control": "negative_control",
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []               # span name table, indexed by name id
        self.name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")       # per-span integer payload (0 if unused)
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, value=None):
        """A wrapper of ``fn`` that records one span per call.

        ``value(args, result)``, when given, is stored as the span's payload.
        """
        nid = self.name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        payload, stack = self.value, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            payload.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if value is not None:
                payload[idx] = value(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, payload sums, and the
        sampler figures that need the parent of each span."""
        n = len(self.span_name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        root_s = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                root_s += dur[i]
        k = len(self.names)
        calls, total, self_s, vsum = [0] * k, [0.0] * k, [0.0] * k, [0] * k
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            total[nid] += dur[i]
            self_s[nid] += dur[i] - child[i]
            vsum[nid] += self.value[i]
        spans = {name: {"calls": calls[i], "total_s": total[i],
                        "self_s": self_s[i], "value": vsum[i]}
                 for i, name in enumerate(self.names)}

        sampler = self.name_ids.get("cohomology.sample_trace_zero", -2)
        member = self.name_ids.get("linalg.member", -2)
        draw = self.name_ids.get("cohomology.random_from_basis", -2)
        tests = accepted = draws = 0
        sample_ms = []
        for i, nid in enumerate(self.span_name):
            if nid == sampler:
                sample_ms.append(dur[i] * 1e3)
            elif self.parent[i] >= 0 and self.span_name[self.parent[i]] == sampler:
                if nid == member:
                    tests += 1
                    accepted += self.value[i]
                elif nid == draw:
                    draws += 1
        return {
            "spans": spans,
            "root_s": root_s,
            "sampler": {
                "vectors": len(sample_ms),
                "member_tests": tests,
                "member_accepted": accepted,
                "kernel_draws": draws,
                "ms_p50": statistics.median(sample_ms) if sample_ms else 0.0,
            },
        }


def _rebind(original, replacement, modules) -> int:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    count = 0
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an imported wittram package."""
    import wittram.cli  # noqa: F401  (imports every module that binds a traced name)
    from wittram import cohomology, extensions, harness, linalg, report, rings, universal, witt

    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "wittram" or name.startswith("wittram."))]

    def everywhere(name, owner, attr, value=None):
        original = getattr(owner, attr)
        if _rebind(original, tracer.wrap(name, original, value), modules) == 0:
            raise RuntimeError(f"no module binds {owner.__name__}.{attr}")

    def method(name, cls, attr):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    method("rings.flat_mul", rings.Tower, "flat_mul")
    method("rings.tower_init", rings.Tower, "__init__")
    everywhere("witt.evaluate_poly", witt, "evaluate_poly",
               lambda args, result: args[0].num_terms)
    everywhere("witt.witt_add", witt, "witt_add")
    everywhere("witt.witt_trace", witt, "witt_trace")
    everywhere("universal.sum_polynomials", universal, "sum_polynomials")
    everywhere("universal.carry_polynomial", universal, "carry_polynomial")
    everywhere("extensions.build_extension", extensions, "build_extension")
    method("extensions.apply_sigma", extensions.ExtensionData, "apply_sigma")
    method("extensions.trace", extensions.ExtensionData, "trace")
    everywhere("linalg.howell_form", linalg, "howell_form")
    everywhere("linalg.member", linalg, "member",
               lambda args, result: int(result))
    everywhere("linalg.solve_columnwise", linalg, "solve_columnwise")
    everywhere("linalg.quotient_invariants", linalg, "quotient_invariants")
    everywhere("cohomology.sample_trace_zero", cohomology, "sample_trace_zero")
    everywhere("cohomology.random_from_basis", cohomology, "random_from_basis")
    everywhere("cohomology.linear_map_of", cohomology, "linear_map_of")
    everywhere("cohomology.h1_level1", cohomology, "h1_level1")
    everywhere("report.emit_report", report, "emit_report")
    for suite, attr in SUITE_FUNCTIONS.items():
        if _rebind(getattr(harness, attr),
                   tracer.wrap(f"harness.suite.{suite}", getattr(harness, attr)),
                   [harness]) != 1:
            raise RuntimeError(f"harness does not bind {attr}")


def main(argv) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    import wittram.cli

    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    code = wittram.cli.main(cli_argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    post = time.perf_counter()
    doc = tracer.summary()
    doc["main_s"] = main_s
    with open(summary_path, "w", encoding="utf-8") as fh:
        doc["post_s"] = time.perf_counter() - post
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
