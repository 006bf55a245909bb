"""Golden SHA-256 digests of complete JSON reports.

Each case runs all six suites through ``run`` and ``emit_report`` exactly as
``wittram verify --format json`` does, and compares the digest of the report
text with a constant.  Any change to the arithmetic that alters a sampled
element, a witness or an invariant changes the digest.
"""

import hashlib
import json

import pytest

from wittram.harness import RunConfig, run
from wittram.report import emit_report

from oracles import SQRT2_DOC

#: the suites that run at p = 5 and p = 7 without Witt arithmetic
WIDE_SUITES = ("trace-lemmas", "h1", "negative-control")

GOLDEN = {
    "quadratic-gaussian": (dict(precision=40, m=2, trials=10),
                           "f2b381a458b6bc5bb8949c5cfeeca76a80d4be4e836fd56b92e17285aa4c1abd"),
    "quadratic-sqrt2": (dict(precision=48, m=2, trials=10),
                        "81dd02238ef039d64cd4c589c5b075d1f754a8cec666de1c02c16473b6c365cf"),
    "cyclotomic-step": (dict(m=1, trials=10),
                        "7865e95272f92920e272f313a657e53a8d23f911f692a1bf1d5ee82fff353ce9"),
    "sqrt2.json": (dict(precision=48, m=2, trials=10),
                   "c0babff4b60ae9cbbafe9a625bdac8b5cff958ad167b8a4189df9569f763aaf3"),
    # the rank-20 and rank-42 rings: products, sigma and the trace at p = 5, 7
    "cyclo5.json": (dict(m=1, trials=10, suites=WIDE_SUITES),
                    "afac02703105970e02fec54d4b7af31e016d8df9624c148c379afc2cd962897b"),
    "cyclo7.json": (dict(m=1, trials=10, suites=WIDE_SUITES),
                    "eabf67fa6456cecb65e55a7ad265f96dc3074c3fb660fffcffe9eb248d736817"),
}


@pytest.mark.parametrize("extension", sorted(GOLDEN))
def test_report_digest(extension, tmp_path, monkeypatch):
    # the spec path is echoed in the report, so it is kept relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sqrt2.json").write_text(json.dumps(SQRT2_DOC), encoding="utf-8")
    for p in (5, 7):
        (tmp_path / f"cyclo{p}.json").write_text(
            json.dumps({"kind": "cyclotomic-step", "p": p}), encoding="utf-8")
    params, digest = GOLDEN[extension]
    report, code = run(RunConfig(extension=extension, fmt="json", **params))
    text = emit_report(report, "json")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest
