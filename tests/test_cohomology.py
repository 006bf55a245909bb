"""Operator matrices, trace laws, the sampler, and the level-1 quotient."""

import hashlib
import random
from math import prod

import pytest

from wittram import cohomology
from wittram.cohomology import (
    cascade_suite,
    derive_seed,
    h1_level1,
    h1_suite,
    linear_map_of,
    member,
    negative_control,
    random_element,
    restriction_image,
    sample_trace_zero,
    solve_linear,
    trace_index_exponent,
    trace_kernel_saturated,
    verify_restriction_vanishing,
    verify_trace_valuations,
)
from wittram.errors import NoSolution, VerificationError
from wittram.extensions import (
    ExtensionData,
    build_extension,
)
from wittram.linalg import LinearMap, howell_form, quotient_invariants
from wittram.report import REPORT_VERSION, Report, emit_report
from wittram.rings import Tower, matvec
from wittram.witt import WittVec, witt_add, witt_trace

from oracles import (
    T4_SPEC,
    apply_map,
    apply_sigma,
    order_exponent,
    spec_id,
    teichmuller,
    uniform_element,
    verify_cascade,
    witt_neg,
    witt_zero,
)


# -- operator matrices ------------------------------------------------------------


def test_sigma_minus_one_matrix_sqrt2(sqrt2):
    lm = linear_map_of(sqrt2, "sigma-minus-one")
    pN = sqrt2.tower.pN
    assert lm.rows == ((0, 0), (0, (-2) % pN))


def test_trace_matrix_sqrt2(sqrt2):
    lm = linear_map_of(sqrt2, "trace")
    assert lm.rows == ((2, 0),)


def test_trace_of_one_is_p(all_extensions):
    for ext in all_extensions:
        lm = linear_map_of(ext, "trace")
        col = [row[0] for row in lm.rows]
        expected = [0] * ext.e_K
        expected[0] = ext.p
        assert col == expected


def test_matrix_matches_ring_computation(all_extensions):
    rng = random.Random(41)
    for ext in all_extensions:
        tr = linear_map_of(ext, "trace")
        sm = linear_map_of(ext, "sigma-minus-one")
        for _ in range(34):
            a = uniform_element(ext, rng)
            pad = (0,) * (ext.tower.dim - ext.e_K)
            assert apply_map(tr, a) + pad == ext.trace(a).coeffs
            assert apply_map(sm, a) == (ext.apply_sigma(a) - a).coeffs


def test_coboundaries_inside_trace_kernel(all_extensions):
    for ext in all_extensions:
        kernel = linear_map_of(ext, "trace").kernel
        for row in linear_map_of(ext, "sigma-minus-one").image.rows:
            assert member(kernel, row)


# -- solving ------------------------------------------------------------------------


def test_solve_sigma_minus_one_example(sqrt2):
    b = 2 * sqrt2.tower.pi_L
    x = solve_linear(sqrt2, "sigma-minus-one", b.coeffs)
    assert sqrt2.apply_sigma(x) - x == b


def test_solve_sigma_minus_one_unit_fails(sqrt2):
    with pytest.raises(NoSolution):
        solve_linear(sqrt2, "sigma-minus-one", sqrt2.tower.one_ol.coeffs)


def test_solve_zero_accepted(sqrt2):
    lm = linear_map_of(sqrt2, "trace")
    x = solve_linear(sqrt2, "trace", (0,) * sqrt2.e_K)
    assert not any(apply_map(lm, x))


@pytest.fixture(scope="module")
def presented_maps(all_extensions):
    """Every operator of the built-ins and of cyclotomic-step at p = 5 and
    p = 7, at the working precision N and built again at N + 4."""
    exts = list(all_extensions) + [build_extension({"kind": "cyclotomic-step", "p": p})
                                   for p in (5, 7)]
    exts += [build_extension(ext.spec, ext.N + 4) for ext in exts]
    return [(ext, which) for ext in exts for which in ("trace", "sigma-minus-one")]


def test_presented_columns_give_image_kernel_and_preimages(presented_maps):
    rng = random.Random(17)
    for ext, which in presented_maps:
        lin, pN = linear_map_of(ext, which), ext.tower.pN
        cols = [list(col) for col in zip(*lin.rows)]
        assert lin.image.rows == howell_form(cols, ext.p, ext.N, len(lin.rows)).rows
        for x in lin.kernel.rows:
            assert not any(matvec(lin.rows, x, pN))
        for _ in range(10):
            b = apply_map(lin, random_element(ext, rng))
            assert apply_map(lin, solve_linear(ext, which, b)) == b


def test_warm_linear_map_solves_without_eliminating(gaussian, cyclo, howell_calls):
    rng = random.Random(3)
    for ext in (gaussian, cyclo):
        lin = linear_map_of(ext, "sigma-minus-one")
        solve_linear(ext, "sigma-minus-one", ext.tower.zero_ol.coeffs)
        howell_calls.clear()
        for _ in range(10):
            b = apply_map(lin, random_element(ext, rng))
            assert apply_map(lin, solve_linear(ext, "sigma-minus-one", b)) == b
        assert howell_calls == []


# -- trace image -----------------------------------------------------------------------


def test_trace_image_exponents(gaussian, sqrt2, cyclo):
    # tr(O_L) = p_K^d with d = floor((t+1)(p-1)/p), by Hilbert's formula,
    # which the build checks; the Smith count of the trace's columns is the
    # oracle
    assert [trace_index_exponent(ext) for ext in (sqrt2, gaussian, cyclo)] == [1, 1, 2]
    others = [build_extension(spec, precision=48) for spec in (
        T4_SPEC, {"kind": "cyclotomic-step", "p": 5},
        {"kind": "cyclotomic-step", "p": 7})]
    for ext in (gaussian, sqrt2, cyclo, *others):
        assert trace_index_exponent(ext) == (ext.t + 1) * (ext.p - 1) // ext.p


def test_trace_image_sqrt2_is_two_z2(sqrt2):
    img = linear_map_of(sqrt2, "trace").image
    assert member(img, (2,))
    assert not member(img, (1,))


# -- saturated kernel --------------------------------------------------------------------


def test_saturation_removes_spurious_elements(sqrt2):
    t = sqrt2.tower
    spurious = t.ol_const(2 ** (sqrt2.N - 1))  # trace = 2^N, zero at precision
    raw = linear_map_of(sqrt2, "trace").kernel
    sat = trace_kernel_saturated(sqrt2, sqrt2.tower.lift(sqrt2.N + 1))
    assert member(raw, spurious.coeffs)
    assert not member(sat, spurious.coeffs)
    assert member(sat, t.pi_L.coeffs)  # tr(pi) = 0 exactly


def test_saturated_kernel_is_exact_kernel_gaussian(gaussian):
    # exact trace-zero elements are the Z/p^N multiples of 1 - pi
    t = gaussian.tower
    sat = trace_kernel_saturated(gaussian, gaussian.tower.lift(gaussian.N + 1))
    gen = t.one_ol - t.pi_L
    assert member(sat, gen.coeffs)
    assert order_exponent(sat) == gaussian.N


@pytest.mark.parametrize("spec,precision", [
    ({"kind": "quadratic-gaussian"}, 48),
    ({"kind": "quadratic-gaussian"}, 6),
    ({"kind": "quadratic-sqrt2"}, 32),
] + [({"kind": "cyclotomic-step", "p": p}, 32) for p in (3, 5, 7)]
  + [(T4_SPEC, 48), (T4_SPEC, 12)], ids=spec_id)
def test_one_extra_digit_saturates_the_trace_kernel(spec, precision):
    # tr(1) = p: the kernel mod p^(N+1) projects onto the exact kernel K mod
    # p^N, so every lift above N gives the same rows, and the spurious part
    # is p^(N-1) O_K: ker(tr mod p^N) = K + p^(N-1) O_K
    ext = build_extension(spec, precision=precision)
    sat = trace_kernel_saturated(ext, ext.tower.lift(ext.N + 1))
    for k in (2, 4):
        assert trace_kernel_saturated(ext, ext.tower.lift(ext.N + k)).rows == sat.rows
    raw = linear_map_of(ext, "trace").kernel
    assert all(member(raw, row) for row in sat.rows)
    assert order_exponent(sat) < order_exponent(raw)
    dim, top = ext.tower.dim, ext.p ** (ext.N - 1)
    spurious = [tuple(top * (c == j) for c in range(dim)) for j in range(ext.e_K)]
    assert howell_form(list(sat.rows) + spurious, ext.p, ext.N, dim).rows == raw.rows
    with pytest.raises(ValueError, match="lift above N"):
        trace_kernel_saturated(ext, ext.tower)


# -- trace valuation laws ----------------------------------------------------------------


def test_trace_lower_bound_hand_case(sqrt2):
    # a = 1: v_K(tr(1)) = v_K(2) = 1 >= (0 + 2)/2
    tr = sqrt2.trace(sqrt2.tower.one_ol)
    assert tr == sqrt2.tower.ol_const(2)


def test_power_trace_hand_case_sqrt2(sqrt2):
    t = sqrt2.tower
    a = t.pi_L
    diff = sqrt2.trace(a ** 2) - sqrt2.trace(a) ** 2
    assert diff == t.ol_const(4)  # v_K = 2 = v_K(2) + v_L(pi)


def test_power_trace_hand_case_gaussian(gaussian):
    t = gaussian.tower
    a = t.pi_L
    diff = gaussian.trace(a ** 2) - gaussian.trace(a) ** 2
    assert diff == t.ol_const(-4)


def test_trace_valuation_suite(all_extensions):
    for ext in all_extensions:
        record = verify_trace_valuations(ext, trials=60, seed=5)
        assert record.status == "pass"
        for check in record.checks:
            assert check.failures == 0
            assert check.skipped <= check.trials // 20


def test_trace_valuation_suite_product_count_at_p7(monkeypatch):
    # per trial: a^7 and tr(a)^7 by square-and-multiply (4 products each)
    # and one product with pi_L^k from the power table.  The tower's trace
    # matrix and its table of the pi_L^k, k < 2 e_L, are built first.
    ext = build_extension({"kind": "cyclotomic-step", "p": 7})
    ext.trace(ext.tower.pi_L)
    calls = []
    flat_mul = Tower.flat_mul

    def counting(self, x, y):
        calls.append(1)
        return flat_mul(self, x, y)

    monkeypatch.setattr(Tower, "flat_mul", counting)
    # the table costs one product per power, on a fresh tower too
    fresh = ext.tower.lift(ext.N + 1)
    fresh.pi_L_power(5)
    assert len(calls) == 5
    ext.tower.pi_L_power(2 * ext.e_L - 1)
    calls.clear()
    assert verify_trace_valuations(ext, trials=30, seed=0).status == "pass"
    assert len(calls) <= 270


# -- sampler ------------------------------------------------------------------------------


def test_sample_length_one_lies_in_kernel(all_extensions):
    for ext in all_extensions:
        v = sample_trace_zero(ext, 0, seed=1)
        assert len(v) == 1
        kernel = trace_kernel_saturated(ext, ext.tower.lift(ext.N + 1))
        assert ext.trace(v[0]).is_zero or member(kernel, v[0].coeffs)


def test_sampled_vectors_are_trace_zero(all_extensions):
    for ext in all_extensions:
        for s in range(5):
            v = sample_trace_zero(ext, 1, seed=s)
            assert witt_trace(v).is_zero


def test_sampler_is_deterministic(sqrt2):
    a = sample_trace_zero(sqrt2, 1, seed=123)
    b = sample_trace_zero(sqrt2, 1, seed=123)
    assert a.components == b.components
    c = sample_trace_zero(sqrt2, 1, seed=124)
    assert a.components != c.components  # overwhelmingly likely


def test_sampler_at_length_three(sqrt2_hi, cyclo):
    for ext in (sqrt2_hi, cyclo):
        v = sample_trace_zero(ext, 2, seed=7)
        assert witt_trace(v).is_zero


def test_sampler_refuses_a_draw_whose_witt_trace_is_nonzero(monkeypatch):
    # p^m added to the first coordinate of the last ghost block keeps every
    # level divisible and moves a_m by 1, so the Witt trace gains tr(1) = p
    # in component m; the generators are built before the patch
    ext, m = build_extension("quadratic-gaussian", precision=48), 2
    hi, _ = cohomology.trace_zero_generators(ext, m)
    combine = cohomology.witt_combination

    def shifted(tower, coeffs, ghosts):
        ghost = combine(tower, coeffs, ghosts)
        ghost[m * tower.dim] += ext.p ** m
        return ghost

    monkeypatch.setattr(cohomology, "witt_combination", shifted)
    with pytest.raises(VerificationError,
                       match="level recursion produced a nonzero Witt trace"):
        sample_trace_zero(ext, m, seed=0)


def test_length_one_sample_makes_only_the_saturation_lift(lifts):
    # a length-1 Witt trace works at the extension's own precision, so the
    # saturated kernel's lift, one digit above N, is the one lift
    ext = build_extension("quadratic-sqrt2")
    sample_trace_zero(ext, 0, seed=1)
    assert lifts == [ext.N + 1]


def test_length_three_sample_makes_only_the_lift_to_n_plus_2(lifts):
    # the saturated kernel, every carry target and the final Witt trace
    # work in the one lift to N+m
    ext = build_extension("cyclotomic-step")
    assert witt_trace(sample_trace_zero(ext, 2, seed=0)).is_zero
    assert lifts == [ext.N + 2]


def test_length_five_sample_makes_only_the_lift_to_n_plus_4(lifts):
    # at m = 4 the one lift is to N+4
    ext = build_extension("quadratic-gaussian")
    assert witt_trace(sample_trace_zero(ext, 4, seed=0)).is_zero
    assert lifts == [ext.N + 4]


def test_caches_key_extensions_and_maps_by_identity(lifts):
    # an extension is its own cache key and its tower keeps its lifts: each
    # lift and operator matrix is built once, and a fresh build of the same
    # spec gets its own
    ext = build_extension("quadratic-gaussian")
    lifted = ext.tower.lift(ext.N + 4)
    assert ext.tower.lift(ext.N + 4) is lifted
    assert ext.tower.lift(ext.N) is ext.tower
    trace = linear_map_of(ext, "trace")
    assert linear_map_of(ext, "trace") is trace
    assert trace.image is trace.image
    assert lifts == [ext.N + 4]

    fresh = build_extension("quadratic-gaussian")
    assert fresh != ext
    assert fresh.tower.lift(fresh.N + 4) is not lifted
    assert lifts == [ext.N + 4, ext.N + 4]
    fresh_trace = linear_map_of(fresh, "trace")
    assert fresh_trace is not trace
    assert fresh_trace.rows == trace.rows
    assert fresh_trace != trace
    assert fresh_trace.image != trace.image


# -- cascade -------------------------------------------------------------------------------


def test_cascade_hand_equality_case(sqrt2):
    t = sqrt2.tower
    v = WittVec(sqrt2, (t.pi_L, -t.one_ol))
    levels = verify_cascade(v)
    assert levels == [{"level": 1, "status": "pass", "lhs": 2, "rhs": 2,
                       "margin": 0}]


def test_cascade_zero_vector_skips(sqrt2):
    levels = verify_cascade(witt_zero(sqrt2, 3))
    assert all(rec["status"] == "skip" for rec in levels)


def test_cascade_suite_tallies_the_skipped_levels(sqrt2, monkeypatch):
    # every level of a zero vector is skipped at the horizon: 4 trials of
    # 2 levels each, none passed and none failed
    monkeypatch.setattr(cohomology, "sample_trace_zero",
                        lambda ext, m, seed=0: witt_zero(ext, m + 1))
    record = cascade_suite(sqrt2, 2, trials=4)
    check = record.checks[0]
    assert record.status == check.status == "pass"
    assert (check.trials, check.skipped, check.passes, check.failures) == (8, 8, 0, 0)


def test_cascade_on_coboundary(sqrt2):
    b = teichmuller(sqrt2, sqrt2.tower.pi_L, 2)
    v = witt_add(apply_sigma(b, 1), witt_neg(b))
    for rec in verify_cascade(v):
        assert rec["status"] in ("pass", "skip")


def test_cascade_rejects_non_trace_zero(sqrt2):
    v = teichmuller(sqrt2, sqrt2.tower.one_ol, 2)
    with pytest.raises(ValueError):
        verify_cascade(v)


def test_cascade_levels_at_the_precision_horizon():
    # built without the harness guard, so that the horizon is reached: at
    # cyclotomic-step p = 5, N = 3 the horizon N e_L = 60 lies below the
    # cap p t (p-1) = 80, at gaussian N = 3 (horizon 6) above the cap 2
    cyclo5 = build_extension({"kind": "cyclotomic-step", "p": 5}, precision=3)
    t = cyclo5.tower
    assert (t.horizon_L, cyclo5.p * cyclo5.t * (cyclo5.p - 1)) == (60, 80)

    def levels(ext, a0, a1):
        return cohomology._cascade_levels(WittVec(ext, (a0, a1)))

    unresolved = {"level": 1, "status": "skip",
                  "reason": "bound unresolved at horizon"}
    assert levels(cyclo5, t.pi_L_power(15), t.zero_ol) == [unresolved]
    assert levels(cyclo5, t.pi_L_power(16), t.zero_ol) == [
        {"level": 1, "status": "pass", "lhs": 80, "rhs": 80, "margin": 0}]
    assert levels(cyclo5, t.pi_L_power(59), t.zero_ol) == [
        {"level": 1, "status": "pass", "lhs": 295, "rhs": 80, "margin": 215}]
    assert levels(cyclo5, t.zero_ol, t.pi_L) == [
        {"level": 1, "status": "skip",
         "reason": "v_L(a_{n-1}) at precision horizon"}]
    gauss3 = build_extension("quadratic-gaussian", precision=3)
    g = gauss3.tower
    assert levels(gauss3, g.pi_L, g.zero_ol) == [
        {"level": 1, "status": "pass", "lhs": 2, "rhs": 2, "margin": 0}]


def test_cascade_level_passes_at_margin_0_and_fails_at_margin_minus_1(gaussian):
    # quadratic-gaussian has p = 2, t = 1 and cap p t (p-1) = 2, so level 1
    # checks 2 v_L(a_0) >= min(v_L(a_1) + 1, 2)
    t = gaussian.tower

    def level(a0, a1):
        (rec,) = cohomology._cascade_levels(WittVec(gaussian, (a0, a1)))
        return rec

    assert level(t.pi_L, t.pi_L) == {"level": 1, "status": "pass", "lhs": 2,
                                     "rhs": 2, "margin": 0}
    assert level(t.one_ol, t.one_ol) == {"level": 1, "status": "fail", "lhs": 0,
                                         "rhs": 1, "margin": -1}


def test_trace_lower_bound_passes_at_margin_0_and_fails_at_margin_minus_1(gaussian,
                                                                          monkeypatch):
    # lemma (i) on a = pi_L of quadratic-gaussian: v_L(a) = 1 and tr(pi_L) = -2,
    # so p v_K(tr(a)) = 2 = v_L(a) + t(p-1) at t = 1; a claimed t = 2 puts
    # the bound at 3
    monkeypatch.setattr(cohomology, "random_element", lambda ext, rng: ext.tower.pi_L)
    lower, _ = verify_trace_valuations(gaussian, trials=1).checks
    assert (lower.status, lower.passes) == ("pass", 1)
    wrong = ExtensionData(gaussian.spec, gaussian.tower, gaussian.sigma, t=2)
    lower, _ = verify_trace_valuations(wrong, trials=1).checks
    assert lower.status == "fail"
    assert lower.detail["counterexamples"] == [
        {"trial": 0, "v_L(a)": 1, "p*v_K(tr(a))": 2, "bound": 3}]


def test_trace_valuation_skips_at_the_precision_horizon():
    # (trials, skipped) of the lower bound and of the power law at N = 3
    expected = {("cyclotomic-step", 5): [(60, 0), (60, 46)],
                ("quadratic-gaussian", 2): [(60, 1), (60, 36)]}
    for (kind, p), counts in expected.items():
        ext = build_extension({"kind": kind, "p": p}, precision=3)
        record = verify_trace_valuations(ext, trials=60, seed=0)
        assert record.status == "pass"
        assert [(c.trials, c.skipped) for c in record.checks] == counts
        assert all(c.failures == 0 for c in record.checks)


def test_cascade_on_sampled_vectors(all_extensions):
    for ext in all_extensions:
        for s in range(5):
            v = sample_trace_zero(ext, 1, seed=derive_seed("cascade-test", s))
            for rec in verify_cascade(v):
                assert rec["status"] in ("pass", "skip")


# -- restriction vanishing -----------------------------------------------------------------


def test_vanishing_gaussian(gaussian):
    record = verify_restriction_vanishing(gaussian, 1, trials=30, seed=3)
    assert record.status == "pass"
    assert all(c.failures == 0 for c in record.checks)


def test_vanishing_sqrt2_length_three(sqrt2_hi):
    record = verify_restriction_vanishing(sqrt2_hi, 2, trials=20, seed=3)
    assert record.status == "pass"


def test_vanishing_cyclotomic(cyclo):
    record = verify_restriction_vanishing(cyclo, 1, trials=20, seed=3)
    assert record.status == "pass"


def test_vanishing_falls_back_to_control(sqrt2):
    # p^m = 2 <= t = 2: runs the sharpness control instead
    record = verify_restriction_vanishing(sqrt2, 1, trials=10, seed=3)
    assert record.suite == "negative-control"


def test_unsolvable_coboundary_returns_the_failing_record(gaussian, monkeypatch):
    # a counterexample fails the record, which carries the first failing
    # vector as the witness on its first check; nothing is raised
    solve = cohomology.solve_linear

    def no_preimage(ext, which, b):
        if which == "sigma-minus-one":
            raise NoSolution("forced")
        return solve(ext, which, b)

    monkeypatch.setattr(cohomology, "solve_linear", no_preimage)
    record = verify_restriction_vanishing(gaussian, 2, trials=10, seed=0)
    valuation, coboundary = record.checks
    assert record.status == "fail"
    assert (valuation.status, coboundary.status) == ("pass", "fail")
    assert (coboundary.trials, coboundary.failures) == (10, 10)
    first = coboundary.detail["counterexamples"][0]["vector"]
    assert valuation.detail == {"witness": first}


@pytest.mark.parametrize("spec,m", [({"kind": "quadratic-gaussian"}, 1), (T4_SPEC, 3)],
                         ids=spec_id)
def test_first_component_valuation_passes_at_t_and_fails_at_t_minus_1(spec, m,
                                                                      monkeypatch):
    # the check is v_L(a_0) > t - 1, on a vector handed in for the sampler's
    ext = build_extension(spec)
    assert ext.p ** m > ext.t
    statuses = []
    for v0 in (ext.t, ext.t - 1):
        vec = WittVec(ext, (ext.tower.pi_L_power(v0),) + (ext.tower.zero_ol,) * m)
        monkeypatch.setattr(cohomology, "sample_trace_zero",
                            lambda ext, m, seed=0: vec)
        valuation = verify_restriction_vanishing(ext, m, trials=1).checks[0]
        assert valuation.name == "first-component-valuation"
        statuses.append((valuation.status, valuation.failures))
    assert statuses == [("pass", 0), ("fail", 1)]


# -- sharpness control ----------------------------------------------------------------------


def test_negative_control_witness_sqrt2(sqrt2):
    record = negative_control(sqrt2, 1)
    detail = record.checks[0].detail
    assert detail["applicable"] is True
    assert detail["witness_found"] is True
    t = sqrt2.tower
    # e_K = 1: one O_K coordinate per power of pi_L
    pi_coords = [[c] for c in t.pi_L.coeffs]
    minus_one = [[c] for c in (-t.one_ol).coeffs]
    assert detail["witness"] == [pi_coords, minus_one]
    assert not member(linear_map_of(sqrt2, "sigma-minus-one").image, t.pi_L.coeffs)


@pytest.mark.parametrize("m", [1, 2])
def test_negative_control_without_a_witness(m):
    # t = 4: p^m <= t at m = 1 and 2, and pi_L is trace-zero, but the carry
    # target of (pi_L, 0) leaves the trace image, so no witness is built.
    # The exact checks over E_m's generators and the report-v2 bump
    # (ROADMAP items 18 and 3) replace this suite.
    ext = build_extension(T4_SPEC, precision=48)
    detail = negative_control(ext, m).checks[0].detail
    assert detail == {"applicable": True, "witness_found": False,
                      "reason": "carry target left the trace image at level 1"}


@pytest.mark.parametrize("spec,m", [
    ({"kind": "quadratic-gaussian"}, 0),
    ({"kind": "cyclotomic-step"}, 0),
    ({"kind": "kummer-step", "p": 3, "f": 2, "radicand": "unit"}, 1)], ids=spec_id)
def test_negative_control_when_pi_L_is_not_trace_zero(spec, m):
    # p^m <= t, but the witness grows from a_0 = pi_L, and tr(pi_L) is 2 on
    # the Gaussian tower and -p on the unit radicands, so none is built
    ext = build_extension(spec)
    assert ext.p ** m <= ext.t
    trace = ext.trace(ext.tower.pi_L).coeffs
    assert trace[0] in (ext.p, ext.tower.pN - ext.p) and not any(trace[1:])
    detail = negative_control(ext, m).checks[0].detail
    assert detail == {"applicable": True, "witness_found": False,
                      "reason": "pi_L is not trace-zero; no deterministic witness"}


def test_negative_control_not_applicable(gaussian):
    record = negative_control(gaussian, 1)
    assert record.checks[0].detail["applicable"] is False
    assert record.status == "info"


# -- level-1 quotient -------------------------------------------------------------------------


def test_h1_quadratics(gaussian, sqrt2):
    assert h1_level1(sqrt2) == (2,)
    assert h1_level1(gaussian) == (2,)


def test_h1_cyclotomic(cyclo):
    # killed by |G| = 3 and of order 9, so necessarily (3, 3)
    inv = h1_level1(cyclo)
    assert inv == (3, 3)
    assert prod(inv) == 9


def test_h1_order_matches_independent_index(all_extensions):
    for ext in all_extensions:
        inv = h1_level1(ext)
        assert prod(inv) == ext.p ** trace_index_exponent(ext)


@pytest.mark.parametrize("spec,precision", [
    ({"kind": kind}, N) for kind in ("quadratic-gaussian", "quadratic-sqrt2")
    for N in (8, 48)
] + [
    ({"kind": "cyclotomic-step", "p": 3}, 6),
    ({"kind": "cyclotomic-step", "p": 3}, 32),
    ({"kind": "cyclotomic-step", "p": 5}, 32),
] + [(T4_SPEC, N) for N in (5, 32, 48)], ids=spec_id)
def test_h1_matches_the_saturated_kernel_quotient(spec, precision):
    # oracle: H^1 as the quotient of the saturated trace kernel by the
    # coboundaries, two presented submodules instead of coker(sigma-1); and
    # the factors certified at N are those at N + 4
    ext = build_extension(spec, precision=precision)
    kernel = trace_kernel_saturated(ext, ext.tower.lift(ext.N + 1))
    coboundaries = linear_map_of(ext, "sigma-minus-one").image
    expected = quotient_invariants(list(kernel.rows), list(coboundaries.rows),
                                   ext.p, ext.N)
    assert expected
    assert h1_level1(ext) == expected
    assert restriction_image(ext, 0)[1] == expected
    assert h1_level1(build_extension(spec, precision=precision + 4)) == expected


@pytest.mark.parametrize("spec,precision", [
    ({"kind": kind}, N) for kind in ("quadratic-gaussian", "quadratic-sqrt2")
    for N in (32, 36)
] + [
    ({"kind": "cyclotomic-step", "p": p}, N) for p in (3, 5, 7) for N in (32, 36)
] + [(T4_SPEC, N) for N in (48, 52)], ids=spec_id)
def test_trace_index_is_read_off_one_smith_form(spec, precision):
    # oracle: the order of the Howell basis of the trace image
    ext = build_extension(spec, precision=precision)
    expected = ext.N * ext.e_K - order_exponent(linear_map_of(ext, "trace").image)
    assert trace_index_exponent(ext) == expected


def test_h1_suite_eliminates_no_matrix(howell_calls):
    ext = build_extension("cyclotomic-step")
    record = h1_suite(ext)
    assert [c.status for c in record.checks] == ["pass", "pass"]
    assert howell_calls == []


def test_h1_makes_no_lift_and_eliminates_no_matrix(monkeypatch, howell_calls,
                                                    lifts):
    ext = build_extension("cyclotomic-step")
    smith = cohomology.smith_invariants
    eliminated = []

    def counting_smith(*args):
        eliminated.append(args)
        return smith(*args)

    monkeypatch.setattr(cohomology, "smith_invariants", counting_smith)
    assert h1_level1(ext) == (3, 3)
    assert lifts == []
    assert len(eliminated) == 1
    assert howell_calls == []


def _mutate_sigma_minus_one(monkeypatch, mutate):
    """Make ``cohomology.linear_map_of`` hand out sigma-1 with its rows
    (column convention, as lists) passed through ``mutate(rows, pN)``."""
    original = cohomology.linear_map_of

    def mutated(ext, which):
        lin = original(ext, which)
        if which != "sigma-minus-one":
            return lin
        rows = [list(row) for row in lin.rows]
        mutate(rows, ext.tower.pN)
        return LinearMap(tuple(map(tuple, rows)), ext.p, ext.N, ext.tower.dim)

    monkeypatch.setattr(cohomology, "linear_map_of", mutated)


MUTATED_SPECS = [{"kind": "quadratic-gaussian"},
                 {"kind": "quadratic-sqrt2"},
                 {"kind": "cyclotomic-step", "p": 3},
                 {"kind": "cyclotomic-step", "p": 5}]


@pytest.mark.parametrize("spec", MUTATED_SPECS, ids=spec_id)
def test_h1_count_check_catches_a_dropped_coboundary(monkeypatch, spec):
    # sigma fixes O_K, so the first e_K columns of sigma-1 are zero already;
    # dropping any other column leaves one more free factor p^N
    ext = build_extension(spec)
    rows = linear_map_of(ext, "sigma-minus-one").rows
    assert not any(row[c] for row in rows for c in range(ext.e_K))
    for col in range(ext.e_K, ext.tower.dim):
        with monkeypatch.context() as patch:
            def drop(rows, pN, col=col):
                for row in rows:
                    row[col] = 0
            _mutate_sigma_minus_one(patch, drop)
            with pytest.raises(VerificationError, match="free factors p\\^N"):
                h1_level1(ext)


@pytest.mark.parametrize("spec", MUTATED_SPECS[:3], ids=spec_id)
def test_h1_trace_check_catches_a_coboundary_off_the_kernel(monkeypatch, spec):
    # adding 1 to a column adds tr(1) = p to its trace
    ext = build_extension(spec)
    for col in range(ext.tower.dim):
        with monkeypatch.context() as patch:
            def bump(rows, pN, col=col):
                rows[0][col] = (rows[0][col] + 1) % pN
            _mutate_sigma_minus_one(patch, bump)
            with pytest.raises(VerificationError, match="escape the trace kernel"):
                h1_level1(ext)


def test_h1_class_representative_is_nontrivial(sqrt2):
    # pi generates the quotient: trace-zero but not a coboundary
    kernel = trace_kernel_saturated(sqrt2, sqrt2.tower.lift(sqrt2.N + 1))
    assert member(kernel, sqrt2.tower.pi_L.coeffs)
    assert not member(linear_map_of(sqrt2, "sigma-minus-one").image,
                      sqrt2.tower.pi_L.coeffs)


def test_proposition_consistency_with_h1(sqrt2):
    # the sharpness witness represents the nonzero class of h1
    record = negative_control(sqrt2, 1)
    assert record.checks[0].detail["witness_found"]
    assert prod(h1_level1(sqrt2)) == 2


# -- failure paths ----------------------------------------------------------------------------


def _report_digest(*records):
    text = emit_report(Report(REPORT_VERSION, {}, list(records)), "json")
    return hashlib.sha256(text.encode()).hexdigest()


def test_suites_report_a_break_that_is_too_large():
    # the Gaussian extension has t = 1; claiming t = 4 breaks the trace lower
    # bound and the cascade, and the suites must say so with counterexamples
    ext = build_extension("quadratic-gaussian", precision=48)
    ext = ExtensionData(ext.spec, ext.tower, ext.sigma, t=4)
    lemmas = verify_trace_valuations(ext, trials=40, seed=0)
    lower, power = lemmas.checks
    assert (lemmas.status, lower.status, power.status) == ("fail", "fail", "pass")
    assert (lower.trials, lower.passes, lower.failures, lower.skipped) == (40, 9, 31, 0)
    assert (power.trials, power.passes, power.failures) == (40, 40, 0)
    assert list(lower.detail) == ["counterexamples"]
    assert len(lower.detail["counterexamples"]) == 31
    assert lower.detail["counterexamples"][0] == {
        "trial": 0, "v_L(a)": 5, "p*v_K(tr(a))": 6, "bound": 9}
    assert power.detail == {}
    cascade = cascade_suite(ext, 2, trials=10, seed=0)
    (check,) = cascade.checks
    assert (cascade.status, check.status) == ("fail", "fail")
    assert (check.trials, check.passes, check.failures, check.skipped) == (20, 11, 9, 0)
    assert [sorted(c) for c in check.detail["counterexamples"]] == [
        ["level", "trial", "vector"]] * 9
    assert _report_digest(lemmas, cascade) == (
        "794529f74a3f80999152302e8a35e8f62881d34bbd0888af323d4d2e30f25a4b")


def test_h1_order_mismatch_fails_the_order_check(gaussian, monkeypatch):
    # a wrong trace index is an order mismatch, not an unstable quotient:
    # the invariant factors stay reported and the order check fails
    true_index = trace_index_exponent(gaussian)
    monkeypatch.setattr(cohomology, "trace_index_exponent",
                        lambda ext: true_index + 1)
    record = h1_suite(gaussian)
    stable, order = record.checks
    assert record.status == "fail"
    assert stable.status == "pass"
    assert stable.detail == {"invariant_factors": [2]}
    assert order.status == "fail"
    assert order.detail["order"] == 2
    assert order.detail["trace_index_exponent"] == true_index + 1
    assert (order.trials, stable.trials) == (0, 0)
