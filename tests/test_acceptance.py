"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact (symbolic identity or exact integer
comparison at the stated precision).
"""

import random
from math import prod

from wittram.cohomology import (
    cascade_suite,
    coboundary_image,
    h1_level1,
    member,
    negative_control,
    random_element,
    trace_index_exponent,
    verify_restriction_vanishing,
    verify_trace_valuations,
)
from wittram.harness import RunConfig, run
from wittram.report import to_json
from wittram.rings import Valuation, valuation_L
from wittram.universal import (
    SymPoly,
    carry_polynomial,
    carry_residue_polynomial,
    ghost_polynomial,
    structure_check,
    sum_polynomials,
)
from wittram.witt import WittVec, evaluate_poly, witt_add

from oracles import ghost_map, ramification_break, sigma_basis, verify_cascade


def report(num, desc, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def rand_vec(ext, rng, length):
    return WittVec(ext, tuple(random_element(ext, rng, shift_cap=0) for _ in range(length)))


SYMBOLIC_CASES = ((2, 3), (3, 2))


def test_c1_symbolic_certification():
    ok = True
    for p, n_max in SYMBOLIC_CASES:
        zs = sum_polynomials(p, n_max, p)
        ok &= carry_polynomial(p, 0).is_zero
        ok &= carry_residue_polynomial(p, 1).is_zero
        for n in range(n_max + 1):
            ok &= all(type(c) is int for c in zs[n].terms.values())
            ok &= not zs[n].has_constant_term
            w_n = ghost_polynomial(p, n)
            lhs = SymPoly.zero()
            for i in range(p):
                lhs = lhs + w_n.substitute({(0, e): SymPoly.var(i, e)
                                            for e in range(n + 1)})
            rhs = w_n.substitute({(0, e): zs[e] for e in range(n + 1)})
            ok &= (lhs - rhs).is_zero
        for n in range(1, n_max + 1):
            f_n = carry_polynomial(p, n)
            ok &= structure_check(f_n, p).passed
            ident = f_n - zs[n]
            for i in range(p):
                ident = ident + SymPoly.var(i, n)
            ok &= ident.is_zero
        for n in range(2, n_max + 1):
            g = carry_residue_polynomial(p, n)
            ok &= structure_check(g, p * p).passed
            f_n = carry_polynomial(p, n)
            f_prev = carry_polynomial(p, n - 1)
            block = SymPoly.zero()
            for i in range(p):
                block = block + SymPoly.var(i, n - 1) ** p
            block = block - zs[n - 1] ** p - (-f_prev) ** p
            ok &= ((f_n - g).scale(p) - block).is_zero
    report(1, "universal polynomials certified (integrality, degree floors, "
              "exact identities) for p=2 n<=3 and p=3 n<=2", ok)


def test_c2_ghost_oracle(all_extensions):
    ok = True
    for ext in all_extensions:
        rng = random.Random(2000 + ext.p * 10 + ext.t)
        for _ in range(100):
            a = rand_vec(ext, rng, 3)
            b = rand_vec(ext, rng, 3)
            gs = ghost_map(witt_add(a, b))
            ga, gb = ghost_map(a), ghost_map(b)
            ok &= all(s == x + y for s, x, y in zip(gs, ga, gb))
    for ext in all_extensions:
        p = ext.p
        rng = random.Random(2100 + p)
        count = 0
        for m in (0, 1, 2):
            zs = sum_polynomials(p, m, p)
            for _ in range(20):
                vecs = [rand_vec(ext, rng, m + 1) for _ in range(p)]
                folded = vecs[0]
                for v in vecs[1:]:
                    folded = witt_add(folded, v)
                assign = {(i, j): vecs[i][j]
                          for i in range(p) for j in range(m + 1)}
                direct = tuple(evaluate_poly(zs[n], assign, ext)
                               for n in range(m + 1))
                ok &= folded.components == direct
                count += 1
        ok &= count >= 50
    report(2, "ghost additivity on 100 pairs per extension and p-ary fold "
              "vs direct evaluation on 60 tuples per p", ok)


def test_c3_extension_invariants(gaussian, sqrt2, cyclo):
    ok = gaussian.t == 1 and sqrt2.t == 2 and cyclo.t == 2
    for ext in (gaussian, sqrt2, cyclo):
        for g in range(1, ext.p):
            ok &= ramification_break(ext, g) == ext.t
        basis = sigma_basis(ext)  # raises if the valuation pattern fails
        for mu, x in enumerate(basis.elements):
            ok &= valuation_L(x) == Valuation.exact(mu)
        for mu in range(1, ext.p):
            d = ext.apply_sigma(basis.elements[mu]) - basis.elements[mu]
            ok &= valuation_L(d) == Valuation.exact(ext.t + mu)
    report(3, "breaks t = 1, 2, 2; generator independence; conjugate-product "
              "basis valuations v(x_mu) = mu and v((sigma-1)x_mu) = t + mu", ok)


def test_c4_trace_valuation_laws(all_extensions):
    ok = True
    for ext in all_extensions:
        record = verify_trace_valuations(ext, trials=200, seed=0)
        for check in record.checks:
            ok &= check.failures == 0
            ok &= check.trials == 200
            ok &= check.skipped < 10  # < 5% of 200
    report(4, "trace lower bound and power-trace equality: 200 samples per "
              "extension, zero violations, skips below 5%", ok)


def test_c5_cascade(gaussian, sqrt2, sqrt2_hi, cyclo):
    ok = True
    for ext in (gaussian, sqrt2_hi, cyclo):
        record = cascade_suite(ext, m=2, trials=200, seed=0)
        check = record.checks[0]
        ok &= check.failures == 0 and check.passes > 0
    t = sqrt2.tower
    levels = verify_cascade(WittVec(sqrt2, (t.pi_L, -t.one_ol)))
    ok &= levels[0]["status"] == "pass" and levels[0]["margin"] == 0
    report(5, "valuation cascade on 200 sampled trace-zero vectors per "
              "extension at m=2; (pi, -1) achieves equality at level 1", ok)


def test_c6_restriction_vanishing(gaussian, sqrt2_hi, cyclo):
    ok = True
    for ext, m in ((gaussian, 1), (sqrt2_hi, 2), (cyclo, 1)):
        record = verify_restriction_vanishing(ext, m, trials=200, seed=0)
        ok &= record.suite == "proposition"
        for check in record.checks:
            ok &= check.trials == 200 and check.passes == 200
            ok &= check.failures == 0
    report(6, "restriction vanishing: 200/200 sampled classes per extension "
              "have v(a_0) > t-1 and coboundary first component", ok)


def test_c7_sharpness_negative_control(sqrt2):
    record = negative_control(sqrt2, 1)
    detail = record.checks[0].detail
    t = sqrt2.tower
    # e_K = 1: one O_K coordinate per power of pi_L
    expected = [[[c] for c in t.pi_L.coeffs],
                [[c] for c in (-t.one_ol).coeffs]]
    ok = detail["applicable"] is True
    ok &= detail["witness_found"] is True
    ok &= detail["witness"] == expected
    ok &= not member(coboundary_image(sqrt2), t.pi_L.coeffs)
    report(7, "sharpness witness (pi, -1) at p^m = t with first component "
              "outside the coboundaries", ok)


def test_c8_level1_cohomology(gaussian, sqrt2, cyclo):
    ok = True
    for ext, order in ((gaussian, 2), (sqrt2, 2), (cyclo, 9)):
        inv = h1_level1(ext)  # raises unless exactly e_K factors are p^N
        ok &= prod(inv) == order
        ok &= prod(inv) == ext.p ** trace_index_exponent(ext)
    report(8, "H^1 orders 2, 2, 9 equal the independent trace-image index; "
              "invariant factors certified by e_K free factors p^N", ok)


def test_c9_determinism(tmp_path):
    config = RunConfig(extension="quadratic-sqrt2", precision=32, m=1,
                       trials=50, seed=7, fmt="json")
    report_a, code_a = run(config)
    report_b, code_b = run(config)
    blob_a = to_json(report_a).encode()
    blob_b = to_json(report_b).encode()
    ok = code_a == code_b == 0 and blob_a == blob_b
    report(9, "two identically configured runs emit byte-identical JSON", ok)
