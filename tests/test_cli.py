"""CLI behavior: exit codes, formats, golden polynomial output, determinism."""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wittram
from wittram import cli, cohomology, extensions, harness, universal
from wittram.cli import main
from wittram.errors import (
    ConfigError,
    IntegralityError,
    InvalidExtension,
    NoSolution,
    WittramError,
)
from wittram.extensions import (
    MAX_RANK,
    MAX_WORK,
    ExtensionData,
    build_extension,
    resolve_extension,
)
from wittram.harness import SUITE_ORDER, RunConfig, run
from wittram.report import emit_report

from oracles import REFUSED_SPECS, SQRT2_DOC, T4_SPEC

SRC = Path(wittram.__file__).resolve().parent


def test_witt_poly_golden_z(capsys):
    assert main(["witt-poly", "--p", "2", "--level", "1", "--which", "z",
                 "--arity", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "-1 0:0^1 1:0^1\n1 0:1^1\n1 1:1^1\n"


def test_witt_poly_golden_f(capsys):
    assert main(["witt-poly", "--p", "2", "--level", "1", "--which", "f"]) == 0
    assert capsys.readouterr().out == "-1 0:0^1 1:0^1\n"


def test_witt_poly_golden_g(capsys):
    assert main(["witt-poly", "--p", "2", "--level", "2", "--which", "g"]) == 0
    out = capsys.readouterr().out
    assert out == "-1 0:0^3 1:0^1\n-1 0:0^2 1:0^2\n-1 0:0^1 1:0^3\n"


def test_witt_poly_zero_prints_nothing(capsys):
    assert main(["witt-poly", "--p", "2", "--level", "0", "--which", "f"]) == 0
    assert capsys.readouterr().out == ""


def test_witt_poly_rejects_foreign_arity_for_f(capsys):
    assert main(["witt-poly", "--p", "2", "--level", "1", "--which", "f",
                 "--arity", "3"]) == 2


def test_witt_poly_resource_limit(capsys):
    assert main(["witt-poly", "--p", "3", "--level", "3", "--which", "z"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["--p", "2", "--level", "-1", "--which", "z"], "--level"),
    (["--p", "2", "--level", "-1", "--which", "f"], "--level"),
    (["--p", "2", "--level", "0", "--which", "g"], "--level"),
    (["--p", "2", "--level", "1", "--which", "z", "--arity", "1"], "--arity"),
    (["--p", "0", "--level", "1", "--which", "z"], "--p"),
    (["--p", "1", "--level", "1", "--which", "z"], "--p"),
    (["--p", "-3", "--level", "1", "--which", "z"], "--p"),
    (["--p", "4", "--level", "1", "--which", "z"], "--p"),
], ids=["z-level-1", "f-level-1", "g-level0", "arity1", "p0", "p1", "p-3",
        "p4"])
def test_witt_poly_bad_arguments_exit_2(argv, flag, capsys):
    assert main(["witt-poly"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {flag} ")


@pytest.mark.parametrize("level", [200, 2000])
def test_witt_poly_huge_level_hits_the_term_limit(level, capsys):
    # the dense term bound passes the limit long before p^level is formed
    assert main(["witt-poly", "--p", "2", "--level", str(level),
                 "--which", "z"]) == 2
    _assert_one_error_line(capsys)


def test_witt_poly_large_prime_exits_2_at_once():
    # 2^61 - 1 lies above the trial-division cap 2^32, so it is refused
    # before any division; division up to its square root never returned
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wittram.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "wittram.cli", "witt-poly",
         "--p", "2305843009213693951", "--level", "1", "--which", "z"],
        capture_output=True, text=True, timeout=10, env=env)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0] == "error: cannot certify that p = 2305843009213693951 is prime"


def test_witt_poly_uncertifiable_prime_exits_2(capsys):
    assert main(["witt-poly", "--p", str(2 ** 89 - 1), "--level", "1",
                 "--which", "z"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot certify")


def test_witt_poly_arity_beyond_the_packed_layout_exits_2(capsys):
    assert main(["witt-poly", "--p", "2", "--level", "0", "--which", "z",
                 "--arity", "64"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 64
    assert main(["witt-poly", "--p", "2", "--level", "0", "--which", "z",
                 "--arity", "65"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "packed monomial layout" in err[0]


@settings(max_examples=60, deadline=None)
@given(p=st.integers(-3, 8), level=st.integers(-2, 3),
       arity=st.one_of(st.none(), st.integers(-1, 3)),
       which=st.sampled_from(["z", "f", "g"]))
def test_witt_poly_fuzz_exit_codes(p, level, arity, which):
    # whatever the arguments, witt-poly prints a polynomial or one error line,
    # never a traceback
    argv = ["witt-poly", "--p", str(p), "--level", str(level), "--which", which]
    if arity is not None:
        argv += ["--arity", str(arity)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    if code == 2:
        assert lines and lines[0].startswith("error:")


def test_extension_info(capsys):
    assert main(["extension-info", "--extension", "quadratic-sqrt2"]) == 0
    out = capsys.readouterr().out
    assert "t: 2" in out
    assert "d: 1" in out
    assert "e_L: 2" in out


def test_kummer_step_spec_file_at_the_largest_break(tmp_path, capsys):
    # K = Q_3(varpi) with e_K = 6, L = K(varpi^(1/3)): t = pf = 9 = 3^2
    spec = tmp_path / "kummer.json"
    spec.write_text(json.dumps({"kind": "kummer-step", "p": 3, "f": 3,
                                "radicand": "uniformizer"}), encoding="utf-8")
    assert main(["extension-info", "--spec-file", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "extension: kummer-step\np: 3\ne_K: 6\ne_L: 18\nt: 9\n" in out
    assert main(["verify", "--spec-file", str(spec), "--suites", "h1",
                 "--format", "json"]) == 0
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    assert suite["checks"][0]["detail"]["invariant_factors"] == [3] * 6


#: t = 6 and e_L = 6: at N = 32 and m = 2, N*e_L = 192 = 4*(t+e_L)*(m+2)
GUARDED_KUMMER = {"kind": "kummer-step", "p": 2, "f": 3, "radicand": "uniformizer"}


@pytest.mark.parametrize("suite", ["h1", "symbolic"])
def test_suites_that_read_no_m_skip_the_precision_guard(tmp_path, capsys, suite):
    spec = tmp_path / "kummer.json"
    spec.write_text(json.dumps(GUARDED_KUMMER), encoding="utf-8")
    assert main(["verify", "--spec-file", str(spec), "--m", "2", "--suites", suite,
                 "--format", "json"]) == 0
    (record,) = json.loads(capsys.readouterr().out)["suites"]
    assert (record["suite"], record["status"]) == (suite, "pass")
    if suite == "h1":
        assert record["checks"][0]["detail"]["invariant_factors"] == [2, 2, 2]


def test_a_suite_that_reads_m_keeps_the_precision_guard(tmp_path, capsys):
    spec = tmp_path / "kummer.json"
    spec.write_text(json.dumps(GUARDED_KUMMER), encoding="utf-8")
    assert main(["verify", "--spec-file", str(spec), "--m", "2",
                 "--suites", "h1,negative-control"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: precision guard violated: N*e_L = 192 must exceed "
                            "4*(t+e_L)*(m+2) = 192; raise --precision\n")


def test_a_trace_lemmas_run_is_guarded_at_m_0(capsys):
    # trace-lemmas reads no m and its record states m = 0, so its run is
    # guarded at m = 0 whatever --m says; a suite that reads m keeps --m
    def verify(suites, *flags):
        code = main(["verify", "--extension", "quadratic-gaussian", "--suites", suites,
                     "--trials", "5", "--format", "json", *flags])
        return code, capsys.readouterr()

    code, at_5 = verify("trace-lemmas", "--m", "5")
    assert code == 0
    code, at_0 = verify("trace-lemmas", "--m", "0")
    assert code == 0
    assert json.loads(at_5.out)["suites"] == json.loads(at_0.out)["suites"]
    guard = "error: precision guard violated: N*e_L = {} must exceed 4*(t+e_L)*(m+2) = {}"
    code, low = verify("trace-lemmas", "--m", "5", "--precision", "12")
    assert (code, low.err) == (2, guard.format(24, 24) + "; raise --precision\n")
    code, cascade = verify("trace-lemmas,cascade", "--m", "5")
    assert (code, cascade.err) == (2, guard.format(64, 84) + "; raise --precision\n")


def test_unknown_extension_exits_2(capsys):
    assert main(["verify", "--extension", "quadratic-sqrt5"]) == 2


def test_requires_exactly_one_extension_source(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "--extension", "a", "--spec-file", "b"]) == 2


def test_spec_file_named_like_a_built_in_is_read_as_a_file(tmp_path, capsys,
                                                          monkeypatch):
    # --spec-file always reads the file, even one named like a built-in
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quadratic-sqrt2").write_text(json.dumps(
        {"kind": "cyclotomic-step", "p": 5, "precision": 20}), encoding="utf-8")
    assert main(["extension-info", "--spec-file", "quadratic-sqrt2"]) == 0
    out = capsys.readouterr().out
    assert "extension: cyclotomic-step\np: 5\n" in out and "precision: 20\n" in out
    assert main(["verify", "--spec-file", "quadratic-sqrt2", "--suites", "h1",
                 "--format", "json"]) == 0
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    assert (suite["extension"], suite["params"]["N"]) == ("cyclotomic-step", 20)


@pytest.mark.parametrize("command", ["verify", "extension-info"])
def test_extension_flag_takes_a_built_in_name_only(capsys, command):
    # --extension never reads a spec file, not even an existing one
    cyclo7 = os.path.join(os.path.dirname(__file__), "..", "wittbench", "cyclo7.json")
    assert os.path.exists(cyclo7)
    assert main([command, "--extension", cyclo7]) == 2
    _assert_one_error_line(capsys)


def test_guard_violation_exits_2(capsys):
    assert main(["verify", "--extension", "quadratic-sqrt2",
                 "--precision", "2", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert "guard" in err


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["verify", "extension-info"])
def test_precision_zero_exits_2(command, capsys):
    assert main([command, "--extension", "quadratic-gaussian",
                 "--precision", "0"]) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["verify", "extension-info"])
@pytest.mark.parametrize("source,precision", [
    (["--extension", "quadratic-sqrt2"], "14400"),
    (None, "100000"),  # cyclotomic-step at p = 7
])
def test_precision_above_the_ceiling_exits_2(tmp_path, capsys, monkeypatch,
                                             command, source, precision):
    # refused before any tower is built: 2^14400 has 4335 decimal digits,
    # more than a report can print, and the p = 7 tower at N = 100000 alone
    # takes over a minute to build
    if source is None:
        path = tmp_path / "cyclo7.json"
        path.write_text(json.dumps({"kind": "cyclotomic-step", "p": 7}),
                        encoding="utf-8")
        source = ["--spec-file", str(path)]

    def no_tower(*args):
        raise AssertionError("a tower was built above the precision ceiling")

    monkeypatch.setattr(extensions, "Tower", no_tower)
    assert main([command] + source + ["--precision", precision]) == 2
    _assert_one_error_line(capsys)


def test_precision_ceiling_is_the_int_to_str_limit(capsys):
    # 2^14284 has 4300 decimal digits, 2^14285 has 4301
    assert main(["extension-info", "--extension", "quadratic-sqrt2",
                 "--precision", "14284"]) == 0
    assert "precision: 14284\n" in capsys.readouterr().out
    with pytest.raises(ConfigError, match="more than 4300 decimal digits"):
        build_extension("quadratic-sqrt2", precision=14285)


#: cyclotomic-step at p = 3 with 3^32 added to sigma(pi_L): the built-in
#: extension at N <= 32, but sigma(pi_L) is no root of E_L above that
SHIFTED_CYCLO_DOC = {"kind": "custom", "p": 3, "E_K": [3, 3],
                     "E_L": [[0, -1], [3, 0], [3, 0]],
                     "sigma_pi": [[str(3 ** 32)], [4], [6], [4], [1]]}


@pytest.fixture
def sources(tmp_path):
    """CLI flags of two extensions that are valid at the requested precision
    and cannot be built above it."""
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(SHIFTED_CYCLO_DOC), encoding="utf-8")
    return {"shifted": ["--spec-file", str(path), "--precision", "32"],
            "sqrt2": ["--extension", "quadratic-sqrt2", "--precision", "14284"]}


def test_shifted_cyclotomic_spec_is_the_built_in_at_its_precision(sources, capsys):
    ext = extensions.resolve_extension(sources["shifted"][1], 32)
    assert ext.sigma == build_extension("cyclotomic-step", precision=32).sigma
    assert main(["extension-info"] + sources["shifted"]) == 0
    assert main(["verify", "--suites", "trace-lemmas"] + sources["shifted"]) == 0


@pytest.mark.parametrize("source,factors", [("shifted", [3, 3]), ("sqrt2", [2])])
def test_h1_runs_at_the_requested_precision(sources, capsys, source, factors):
    # h1 works at N alone, so neither data that are no extension above N
    # nor the precision ceiling stops it
    assert main(["verify", "--suites", "h1", "--format", "json"]
                + sources[source]) == 0
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    assert suite["status"] == "pass"
    assert suite["checks"][0]["detail"] == {"invariant_factors": factors}


@pytest.mark.parametrize("suites", ["cascade", "proposition", "h1,trace-lemmas",
                                    ",".join(SUITE_ORDER)])
def test_shifted_cyclotomic_spec_verifies_as_the_built_in(sources, capsys, suites):
    # sigma is checked once, at the requested precision; the sampler and the
    # Witt traces work above it in lifts of the ring, which need no sigma,
    # so data that are no extension above N verify as the extension they
    # are at N
    records = []
    for source in (sources["shifted"],
                   ["--extension", "cyclotomic-step", "--precision", "32"]):
        assert main(["verify", "--suites", suites, "--m", "2", "--trials", "20",
                     "--format", "json"] + source) == 0
        records.append(json.loads(capsys.readouterr().out)["suites"])
    shifted, builtin = records
    assert [r.pop("extension") for r in shifted] == ["custom"] * len(shifted)
    assert [r.pop("extension") for r in builtin] == ["cyclotomic-step"] * len(builtin)
    assert shifted == builtin


#: quadratic-sqrt2 at N = 48 with 2^47 added to sigma(pi_L): a root of E_L,
#: of order 2 and with t = 2, but its conjugates sum to 2^47, not to
#: tr(pi_L) = 0, so it is no Galois action
OFF_TRACE_DOC = {"kind": "custom", "p": 2, "E_K": [-2], "E_L": [[-2], [0]],
                 "sigma_pi": [["140737488355328"], [-1]], "precision": 48}


@pytest.mark.parametrize("argv", [["extension-info"], ["verify"]] + [
    ["verify", "--suites", suite] for suite in SUITE_ORDER],
    ids=lambda argv: argv[-1])
def test_sigma_off_the_trace_exits_2_for_every_command_and_suite(tmp_path, capsys,
                                                                 argv):
    # the build refuses the data, so no command and no suite set runs them
    path = tmp_path / "off_trace.json"
    path.write_text(json.dumps(OFF_TRACE_DOC), encoding="utf-8")
    assert main(argv + ["--spec-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert "the conjugates of pi_L do not sum to tr(pi_L)" in line


@pytest.mark.parametrize("suite", ["cascade", "proposition"])
def test_sampler_runs_at_the_precision_ceiling(sources, capsys, suite):
    # the sampler's lift to N + 1 and the negative control's length-2 Witt
    # trace lie past the 4300-digit ceiling, which bounds N only
    assert main(["verify", "--suites", suite, "--trials", "3"] + sources["sqrt2"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("spec,precision,m", [
    ({"kind": "cyclotomic-step", "p": 5}, 32, 1),
    ({"kind": "cyclotomic-step", "p": 5}, 32, 2),
    ({"kind": "cyclotomic-step", "p": 5}, 32, 3),
    ({"kind": "cyclotomic-step", "p": 7}, 32, 1),
    ({"kind": "cyclotomic-step", "p": 11}, 32, 1),
    (T4_SPEC, 48, 3),
    (T4_SPEC, 52, 4)], ids=["p5-m1", "p5-m2", "p5-m3", "p7-m1", "p11-m1", "t4-N48-m3",
                            "t4-N52-m4"])
def test_cascade_and_proposition_pass_where_rejection_sampling_gave_up(
        tmp_path, capsys, spec, precision, m):
    # a rejection sampler keeps a level-1 draw with probability
    # |E_1|/|ker(tr)|, which is 5^-4 at cyclotomic-step p = 5; it exhausted
    # its retry budget on each of these, a false FAIL where the theorem holds
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["verify", "--spec-file", str(path), "--precision", str(precision),
                 "--m", str(m), "--suites", "cascade,proposition", "--trials", "5",
                 "--seed", "0"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--m", "-1"), ("--trials", "0"),
                                        ("--trials", "-3"), ("--m", "abc")])
def test_bad_m_or_trials_exits_2(flag, value, capsys):
    assert main(["verify", "--extension", "quadratic-gaussian",
                 flag, value]) == 2
    _assert_one_error_line(capsys)


@settings(max_examples=40, deadline=None)
@given(extension=st.sampled_from(["quadratic-gaussian", "quadratic-sqrt2"]),
       m=st.integers(-2, 3), trials=st.integers(-2, 3),
       precision=st.integers(-2, 80),
       suites=st.lists(st.sampled_from(SUITE_ORDER), min_size=1, unique=True))
@example(extension="quadratic-sqrt2", m=-1, trials=3, precision=48, suites=["cascade"])
@example(extension="quadratic-gaussian", m=1, trials=1, precision=19, suites=["cascade"])
@example(extension="quadratic-gaussian", m=1, trials=1, precision=18, suites=["cascade"])
@example(extension="quadratic-gaussian", m=3, trials=1, precision=20, suites=["trace-lemmas"])
def test_verify_fuzz_exit_codes(extension, m, trials, precision, suites):
    # whatever the flags, verify ends with a documented exit code and at most
    # one line on stderr, never with an escaping exception.  It passes exactly
    # when m >= 0, trials >= 1, the build accepts N (N >= 2) and, unless the
    # suites are h1 and symbolic alone, the precision guard
    # N*e_L > 4(t+e_L)(m+2) holds, with e_L = 2, t = 1 (gaussian) or 2
    # (sqrt2), and m as the suites read it: --m if cascade, proposition or
    # negative-control is selected, else 0; every other run is a
    # configuration error
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--extension", extension, "--m", str(m),
                     "--trials", str(trials), "--precision", str(precision),
                     "--suites", ",".join(suites), "--format", "json"])
    t = {"quadratic-gaussian": 1, "quadratic-sqrt2": 2}[extension]
    guarded = set(suites) - {"h1", "symbolic"}
    m_read = m if guarded - {"trace-lemmas"} else 0
    runs = m >= 0 and trials >= 1 and precision >= 2 and (
        not guarded or 2 * precision > 4 * (t + 2) * (m_read + 2))
    assert code == (0 if runs else 2)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    if code == 2:
        assert lines and lines[0].startswith("error:")


def test_unknown_suite_exits_2(capsys):
    assert main(["verify", "--extension", "quadratic-sqrt2",
                 "--suites", "nope"]) == 2


@pytest.mark.parametrize("suites", ["h1,h1", "h1,cascade,h1"])
def test_repeated_suite_exits_2(capsys, suites):
    # the report's config would echo the suite twice, while it runs once
    assert main(["verify", "--extension", "quadratic-sqrt2",
                 "--suites", suites]) == 2
    _assert_one_error_line(capsys)
    with pytest.raises(ConfigError, match="suite 'h1' is selected twice"):
        run(RunConfig(extension="quadratic-sqrt2", suites=tuple(suites.split(","))))


def test_term_budget_is_no_flag(capsys):
    # the symbolic layer's budget is a constant: --max-terms is an unknown flag
    assert main(["verify", "--extension", "quadratic-sqrt2", "--suites", "h1",
                 "--max-terms", "5"]) == 2
    _assert_one_error_line(capsys)
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--max-terms" not in capsys.readouterr().out


@pytest.mark.parametrize("suites", [",", ""])
def test_empty_suite_selection_exits_2(capsys, suites):
    assert main(["verify", "--extension", "quadratic-sqrt2",
                 "--suites", suites]) == 2
    _assert_one_error_line(capsys)
    with pytest.raises(ConfigError, match="no suite selected"):
        run(RunConfig(extension="quadratic-sqrt2", suites=()))


def test_proposition_run_passes(capsys):
    code = main(["verify", "--extension", "quadratic-gaussian", "--m", "1",
                 "--trials", "25", "--seed", "7", "--suites", "proposition"])
    assert code == 0
    out = capsys.readouterr().out
    assert "proposition" in out
    assert "PASS" in out


def test_cyclotomic_length_four_passes(capsys):
    # p = 3, m = 3: the carry polynomial f_3 exceeds the term budget, so
    # this length is reachable through the ghost map only
    code = main(["verify", "--extension", "cyclotomic-step", "--m", "3",
                 "--trials", "20", "--suites", "cascade,proposition",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in doc["suites"]] == ["cascade", "proposition"]
    for suite in doc["suites"]:
        assert suite["params"]["m"] == 3
        for check in suite["checks"]:
            assert check["status"] == "pass"
            assert check["failures"] == 0
            assert check["passes"] > 0


def test_integrality_failure_inside_a_suite_exits_1(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise IntegralityError("z_1 has a non-integer coefficient")

    monkeypatch.setattr(universal, "sum_polynomials", broken)
    code = main(["verify", "--extension", "quadratic-sqrt2", "--trials", "5",
                 "--suites", "symbolic,h1", "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    symbolic, h1 = doc["suites"]
    assert symbolic["suite"] == "symbolic"
    assert symbolic["status"] == "fail"
    assert symbolic["checks"][0]["detail"]["error"] == (
        "IntegralityError: z_1 has a non-integer coefficient")
    assert h1["suite"] == "h1"
    assert h1["status"] == "pass"


def test_proposition_negative_control_mode(capsys):
    # p^m = 2 <= t = 2: informational run, exit 0
    code = main(["verify", "--extension", "quadratic-sqrt2", "--m", "1",
                 "--trials", "10", "--suites", "proposition", "--format",
                 "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    suites = doc["suites"]
    assert suites[0]["suite"] == "negative-control"
    assert suites[0]["checks"][0]["detail"]["witness_found"] is True


def test_json_report_structure(capsys):
    code = main(["verify", "--extension", "quadratic-sqrt2", "--m", "1",
                 "--trials", "10", "--seed", "1",
                 "--suites", "trace-lemmas,h1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "1"
    assert doc["config"]["extension"] == "quadratic-sqrt2"
    assert doc["config"]["max_terms"] == 10 ** 7  # the symbolic layer's fixed budget
    names = [s["suite"] for s in doc["suites"]]
    assert names == ["trace-lemmas", "h1"]
    for suite in doc["suites"]:
        assert set(suite["params"]) == {"p", "N", "t", "m"}
        for check in suite["checks"]:
            assert {"name", "status", "trials", "passes", "failures",
                    "skipped", "detail"} <= set(check)


def test_csv_report_columns(capsys):
    code = main(["verify", "--extension", "quadratic-sqrt2", "--m", "1",
                 "--trials", "5", "--suites", "h1", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == ("suite,extension,check,p,N,t,m,status,trials,passes,"
                      "failures,skipped,detail")


def test_report_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--extension", "quadratic-gaussian", "--m", "1",
                 "--trials", "5", "--suites", "h1", "--format", "json",
                 "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["suites"][0]["suite"] == "h1"


def test_reports_are_byte_identical(tmp_path):
    args = ["verify", "--extension", "quadratic-sqrt2", "--m", "1",
            "--trials", "25", "--seed", "7", "--format", "json"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_run_config_roundtrip_without_cli():
    config = RunConfig(extension="quadratic-gaussian", m=1, trials=10,
                       seed=3, suites=("h1", "negative-control"))
    report, code = run(config)
    assert code == 0
    text = emit_report(report, "text")
    assert "h1" in text
    csv_text = emit_report(report, "csv")
    assert csv_text.splitlines()[0].startswith("suite,extension")


#: the spec-file text of each refused document, and of one that is no JSON
BAD_SPEC_FILES = {defect: (json.dumps(doc), message)
                  for defect, (doc, message) in REFUSED_SPECS.items()}
BAD_SPEC_FILES["bad-json"] = ("{\"kind\": \"custom\",", "malformed spec file")
# the decoder would keep the last value and build p = 7
BAD_SPEC_FILES["repeated-key"] = ('{"kind": "cyclotomic-step", "p": 5, "p": 7}',
                                  "ValueError: key 'p' is repeated")
# the JSON decoder raises RecursionError, not ValueError, on deep nesting
BAD_SPEC_FILES["too-deep"] = ("[" * 100000 + "]" * 100000, "RecursionError")


@pytest.mark.parametrize("command", ["verify", "extension-info"])
@pytest.mark.parametrize("defect", sorted(BAD_SPEC_FILES))
def test_malformed_spec_file_exits_2(tmp_path, capsys, command, defect):
    # the same table is refused in code in
    # tests/test_extensions.py::test_spec_made_in_code_is_refused_like_its_document
    text, message = BAD_SPEC_FILES[defect]
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--spec-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


def _refusal_patterns() -> dict:
    """The message of each ``raise InvalidExtension(...)`` in src/wittram as
    a pattern, each formatted field matching any text, with its source line;
    Hilbert's formula aside, which no spec reaches."""
    patterns = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hilbert = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "_check_hilbert"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "InvalidExtension"
                    and id(node) not in hilbert):
                message = node.exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                pattern = "".join(re.escape(part.value) if isinstance(part, ast.Constant)
                                  else ".*" for part in parts)
                patterns[pattern] = f"{path.name}:{node.lineno}"
    return patterns


def test_every_refusal_of_extension_data_is_in_the_table(tmp_path):
    # each refusal then runs in code and through both commands, in
    # test_malformed_spec_file_exits_2 and
    # tests/test_extensions.py::test_spec_made_in_code_is_refused_like_its_document
    messages = []
    for defect, (text, _) in BAD_SPEC_FILES.items():
        path = tmp_path / f"{defect}.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidExtension) as refused:
            resolve_extension(str(path))
        messages.append(str(refused.value))
    patterns = _refusal_patterns()
    assert len(patterns) > 20
    missing = [line for pattern, line in patterns.items()
               if not any(re.fullmatch(pattern, m, re.DOTALL) for m in messages)]
    assert missing == []


@pytest.mark.parametrize("argv", [
    ["verify", "--extension", "quadratic-gaussian", "--format", "xml"],
    [],
], ids=["unknown-format", "no-command"])
def test_a_parse_error_is_one_error_line(capsys, argv):
    # argparse would print its usage block first; --m abc is in
    # test_bad_m_or_trials_exits_2
    assert main(argv) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert "usage: wittram" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "extension-info"])
@pytest.mark.parametrize("doc,rank", [
    ({"kind": "cyclotomic-step", "p": 101}, "101*100 = 10100"),
    (dict(SQRT2_DOC, e_K=2000, E_K=[-2] + [0] * 1999), "2*2000 = 4000"),
], ids=["cyclotomic-p101", "custom-degree-2000"])
def test_rank_above_the_bound_exits_2_before_any_build(tmp_path, capsys, monkeypatch,
                                                       command, doc, rank):
    # cyclotomic-step at p = 61 (D = 3660) took 44 s and 551 MB to build;
    # these are refused in well under a second, before any tower is built
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def no_tower(*args):
        raise AssertionError("a tower was built above the rank bound")

    monkeypatch.setattr(extensions, "Tower", no_tower)
    start = time.perf_counter()
    assert main([command, "--spec-file", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: tower rank D = p*e_K = {rank} exceeds the "
                            f"bound {MAX_RANK}\n")


@pytest.mark.parametrize("command", ["verify", "extension-info"])
def test_work_above_the_bound_exits_2_before_any_build(tmp_path, capsys, monkeypatch,
                                                       command):
    # cyclotomic-step at p = 13 passes the rank and the digit bounds at
    # N = 1024, where h1 alone took 3.0 s against 0.11 s at N = 32
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "cyclotomic-step", "p": 13}), encoding="utf-8")

    def no_tower(*args):
        raise AssertionError("a tower was built above the work bound")

    monkeypatch.setattr(extensions, "Tower", no_tower)
    start = time.perf_counter()
    assert main([command, "--spec-file", str(path), "--precision", "1024"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: tower rank D = 156 at precision N = 1024: work ")
    assert line.endswith(f" exceeds the bound {MAX_WORK}")


@pytest.mark.parametrize("command", ["verify", "extension-info"])
def test_memory_exhaustion_exits_2_with_one_line(monkeypatch, capsys, command):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(harness, "resolve_extension", exhausted)
    monkeypatch.setattr(cli, "resolve_extension", exhausted)
    assert main([command, "--extension", "quadratic-gaussian"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


_SCALARS = st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(str),
                    st.booleans(), st.floats(-9, 9), st.just("1.5"))
_SPEC_LISTS = st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
                       max_size=4)


@settings(max_examples=40, deadline=None)
@given(doc=st.fixed_dictionaries(
    {"kind": st.sampled_from(["custom", "cyclotomic-step", "quadratic-gaussian",
                              "quadratic-sqrt2", "junk"]),
     "p": st.sampled_from([-2, 0, 2, 3, 4])},
    optional={"precision": st.integers(-2, 64), "e_K": _SCALARS,
              "E_K": _SPEC_LISTS, "E_L": _SPEC_LISTS, "sigma_pi": _SPEC_LISTS}))
@example(doc={"kind": "custom", "p": 2, "precision": 48, "E_K": [-2],
              "E_L": [[-2], [0]], "sigma_pi": [[0], [-1]]})
def test_spec_document_fuzz_exit_codes(tmp_path_factory, doc):
    # whatever the document holds, both commands end with a documented exit
    # code and at most one line on stderr, never with an escaping exception;
    # the same dict made in code builds or raises a WittramError, never
    # another exception
    try:
        build_extension(doc)
    except WittramError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["extension-info", "--spec-file", str(path)],
                 ["verify", "--spec-file", str(path), "--trials", "2",
                  "--suites", "trace-lemmas,h1"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1
        if code == 2:
            assert lines and lines[0].startswith("error:")


# -- failing suites: statuses, counts, detail keys and exact report bytes


def _run_json(**params):
    report, code = run(RunConfig(extension="quadratic-gaussian", fmt="json",
                                 **params))
    text = emit_report(report, "json")
    return code, json.loads(text), hashlib.sha256(text.encode()).hexdigest()


def _checks(doc):
    return {(s["suite"], c["name"]): c for s in doc["suites"] for c in s["checks"]}


def _counts(check):
    return (check["status"], check["trials"], check["passes"],
            check["failures"], check["skipped"])


def test_vanishing_violation_reports_witness_and_counterexamples(monkeypatch):
    # claiming t = 3 for the Gaussian extension (t = 1) keeps p^m = 4 > t, so
    # the proposition runs and its valuation bound must fail
    ext = build_extension("quadratic-gaussian", precision=48)
    ext = ExtensionData(ext.spec, ext.tower, ext.sigma, t=3)
    monkeypatch.setattr(harness, "resolve_extension", lambda name, precision: ext)
    code, doc, digest = _run_json(precision=48, m=2, trials=10)
    assert code == 1
    assert [(s["suite"], s["status"]) for s in doc["suites"]] == [
        ("symbolic", "pass"), ("trace-lemmas", "fail"), ("cascade", "fail"),
        ("proposition", "fail"), ("h1", "pass"), ("negative-control", "info")]
    checks = _checks(doc)
    valuation = checks["proposition", "first-component-valuation"]
    assert _counts(valuation) == ("fail", 10, 5, 5, 0)
    assert sorted(valuation["detail"]) == ["counterexamples", "witness"]
    assert [sorted(c) for c in valuation["detail"]["counterexamples"]] == [
        ["trial", "v_L(a_0)", "vector"]] * 5
    assert _counts(checks["proposition", "first-component-coboundary"]) == (
        "pass", 10, 10, 0, 0)
    assert _counts(checks["trace-lemmas", "trace-valuation-lower-bound"]) == (
        "fail", 10, 3, 7, 0)
    assert _counts(checks["cascade", "valuation-cascade"]) == ("fail", 20, 12, 8, 0)
    assert digest == "7aaa4e0a6b76f2a5d4415891ee0937a3e87904af512d70b9371fd42ca65185df"


def test_unsolvable_coboundary_fails_the_proposition(monkeypatch):
    solve = cohomology.solve_linear

    def no_preimage(ext, which, b):
        if which == "sigma-minus-one":
            raise NoSolution("forced")
        return solve(ext, which, b)

    monkeypatch.setattr(cohomology, "solve_linear", no_preimage)
    code, doc, digest = _run_json(precision=40, m=2, trials=10,
                                  suites=("proposition",))
    assert code == 1
    checks = _checks(doc)
    valuation = checks["proposition", "first-component-valuation"]
    coboundary = checks["proposition", "first-component-coboundary"]
    assert _counts(valuation) == ("pass", 10, 10, 0, 0)
    assert sorted(valuation["detail"]) == ["witness"]
    assert _counts(coboundary) == ("fail", 10, 0, 10, 0)
    assert sorted(coboundary["detail"]) == ["counterexamples"]
    assert [sorted(c) for c in coboundary["detail"]["counterexamples"]] == [
        ["trial", "vector"]] * 10
    assert digest == "6a36377973ddb89cf5cd67bfb4d6c05b7036a50807b6ff437b65dded17fb4eb1"


def test_a_wrong_coboundary_preimage_fails_the_proposition(monkeypatch):
    # the proposition checks each preimage the solver returns: zeros are
    # wrong for every nonzero a_0
    monkeypatch.setattr(cohomology, "solve_columnwise", lambda lin, b: (0,) * lin.width)
    code, doc, _ = _run_json(m=2, trials=10, suites=("proposition",))
    assert code == 1
    assert [(s["suite"], s["status"]) for s in doc["suites"]] == [("proposition", "fail")]
    (check,) = doc["suites"][0]["checks"]
    assert (check["name"], check["status"]) == ("consistency", "fail")
    assert check["detail"] == {
        "error": "VerificationError: solver returned a wrong coboundary preimage"}


def _gaussian_spec(tmp_path, precision):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "quadratic-gaussian",
                                "precision": precision}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("flags,expected", [([], 40),
                                            (["--precision", "48"], 48)])
def test_spec_file_precision_is_used(tmp_path, capsys, flags, expected):
    path = _gaussian_spec(tmp_path, 40)
    assert main(["extension-info", "--spec-file", path] + flags) == 0
    assert f"precision: {expected}\n" in capsys.readouterr().out
    assert main(["verify", "--spec-file", path, "--suites", "h1",
                 "--format", "json"] + flags) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["precision"] == expected
    assert doc["suites"][0]["params"]["N"] == expected


@pytest.mark.parametrize("command", ["verify", "extension-info"])
def test_spec_file_precision_zero_exits_2(tmp_path, capsys, command):
    assert main([command, "--spec-file", _gaussian_spec(tmp_path, 0)]) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("doc,p", [
    ({"kind": "quadratic-gaussian", "p": 2}, 2),
    ({"kind": "quadratic-sqrt2", "p": "2", "precision": 40}, 2),
    ({"kind": "cyclotomic-step"}, 3),
    ({"kind": "cyclotomic-step", "p": 5}, 5),
    (SQRT2_DOC, 2),
])
def test_spec_file_fields_the_kind_reads_are_accepted(tmp_path, capsys, doc, p):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["extension-info", "--spec-file", str(path)]) == 0
    assert f"p: {p}\n" in capsys.readouterr().out


def test_vanishing_el_constant_term_exits_2_as_not_eisenstein(tmp_path, capsys):
    # E_L = x^2: its constant term vanishes at precision, so v_K(c_0) is at
    # least the horizon N e_K >= 2, and it is not Eisenstein
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "custom", "p": 2, "E_K": [-2],
                                "E_L": [[0], [0]], "sigma_pi": [[0], [-1]]}),
                    encoding="utf-8")
    assert main(["extension-info", "--spec-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constant term of E_L vanishes at precision N=32\n"
