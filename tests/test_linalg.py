"""Chain-ring linear algebra against brute-force enumeration over tiny moduli."""

import hashlib
import itertools
import random
from math import prod

import pytest

from wittram.cohomology import linear_map_of
from wittram.errors import NoSolution
from wittram.extensions import build_extension
from wittram.linalg import (
    LinearMap,
    howell_form,
    member,
    quotient_invariants,
    smith_invariants,
    solve_columnwise,
)
from wittram.rings import matvec, padic_val

from oracles import T4_SPEC, order_exponent


def brute_span(rows, pN):
    """Every Z/p^N combination of the rows, as a frozenset.

    Grown one generator at a time, span <- {v + c*r : v in span, c < p^N},
    which still enumerates every coefficient choice."""
    if not rows:
        return frozenset({(0,) * 0})
    span = {(0,) * len(rows[0])}
    for row in rows:
        span = {tuple((x + c * y) % pN for x, y in zip(vec, row))
                for vec in span for c in range(pN)}
    return frozenset(span)


# -- canonical form ---------------------------------------------------------------


def test_identity_is_fixed():
    rows = [(1, 0), (0, 1)]
    hb = howell_form(rows, 2, 3, 2)
    assert hb.rows == ((1, 0), (0, 1))


def test_single_row_over_z8():
    hb = howell_form([(2, 0)], 2, 3, 2)
    span = brute_span([(2, 0)], 8)
    assert member(hb, (4, 0))
    assert not member(hb, (1, 0))
    for vec in itertools.product(range(8), repeat=2):
        assert member(hb, vec) == (vec in span)


def test_empty_input():
    hb = howell_form([], 2, 3, 2)
    assert hb.rows == ()
    assert member(hb, (0, 0))
    assert not member(hb, (1, 0))


def test_member_refuses_a_vector_of_the_wrong_width():
    # zipping (1, 0, 5) against width-2 rows would drop the 5 and answer True
    hb = howell_form([(1, 0)], 2, 4, 2)
    assert member(hb, (1, 0))
    for vec in ((1, 0, 5), (1,)):
        with pytest.raises(ValueError, match="width"):
            member(hb, vec)


def test_howell_form_refuses_a_row_of_the_wrong_width():
    for row in ((1, 0, 5), (1,)):
        with pytest.raises(ValueError, match="row width"):
            howell_form([(1, 0), row], 2, 4, 2)


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (2, 4)])
def test_canonical_on_equal_spans(p, N):
    # two random generating sets with the same brute-force span must produce
    # byte-identical Howell rows, and membership must match enumeration
    rng = random.Random(100 * p + N)
    pN = p ** N
    width = 2
    for _ in range(40):
        rows_a = [tuple(rng.randrange(pN) for _ in range(width))
                  for _ in range(rng.randrange(1, 4))]
        span = brute_span(rows_a, pN)
        # second generating set: random span elements covering the span
        elems = sorted(span)
        rows_b = [elems[rng.randrange(len(elems))] for _ in range(4)]
        hb_a = howell_form(rows_a, p, N, width)
        if brute_span(rows_b, pN) == span:
            hb_b = howell_form(rows_b, p, N, width)
            assert hb_a.rows == hb_b.rows
        for vec in itertools.product(range(pN), repeat=width):
            assert member(hb_a, vec) == (vec in span)


def test_order_exponent_matches_enumeration():
    rng = random.Random(5)
    for _ in range(20):
        rows = [tuple(rng.randrange(9) for _ in range(2))
                for _ in range(rng.randrange(1, 3))]
        hb = howell_form(rows, 3, 2, 2)
        assert 3 ** order_exponent(hb) == len(brute_span(rows, 9))


# -- kernel / image / solve ----------------------------------------------------------


@pytest.mark.parametrize("p,N,dim", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_kernel_image_solve_against_enumeration(p, N, dim):
    rng = random.Random(10 * p + N + dim)
    pN = p ** N
    for _ in range(15):
        A = [tuple(rng.randrange(pN) for _ in range(dim)) for _ in range(dim)]
        vectors = list(itertools.product(range(pN), repeat=dim))
        images = {}
        kernel = set()
        for x in vectors:
            y = matvec(A, x, pN)
            images.setdefault(y, x)
            if not any(y):
                kernel.add(x)
        lin = LinearMap(tuple(A), p, N, dim)
        ker = lin.kernel
        for x in vectors:
            assert member(ker, x) == (x in kernel)
        img = lin.image
        for y in vectors:
            assert member(img, y) == (y in images)
        # a few solves, both solvable and not
        for y in vectors[:: max(1, len(vectors) // 10)]:
            if y in images:
                x = solve_columnwise(lin, y)
                assert matvec(A, x, pN) == tuple(y)
            else:
                with pytest.raises(NoSolution):
                    solve_columnwise(lin, y)


def test_solve_zero_is_accepted():
    A = [(2, 0), (0, 4)]
    x = solve_columnwise(LinearMap(tuple(A), 2, 3, 2), (0, 0))
    assert matvec(A, x, 8) == (0, 0)


def test_solve_refuses_a_target_of_the_wrong_length():
    lin = LinearMap(((1, 0), (0, 2)), 2, 4, 2)
    assert solve_columnwise(lin, (1, 2)) == (1, 1)
    for b in ((1, 2, 0), (1,)):
        with pytest.raises(ValueError, match="target width"):
            solve_columnwise(lin, b)


def test_combination_roundtrip():
    rng = random.Random(9)
    rows = [(2, 0, 4), (0, 3, 1)]
    pN = 9
    lin = LinearMap(tuple(zip(*rows)), 3, 2, len(rows))  # columns: the rows
    for _ in range(20):
        coeffs = [rng.randrange(pN) for _ in rows]
        target = tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) % pN
                       for k in range(3))
        combo = solve_columnwise(lin, target)
        got = tuple(sum(c * r[k] for c, r in zip(combo, rows)) % pN
                    for k in range(3))
        assert got == target
    with pytest.raises(NoSolution):
        solve_columnwise(lin, (1, 0, 0))


#: sha256 of ``repr`` of the (target, particular solution) pairs below, per
#: extension and operator, recorded while ``solve_columnwise`` still had a
#: reduction loop of its own
PARTICULAR_SOLUTION_DIGESTS = {
    "gaussian-trace": "ba25364fa0d7fb1bcbd54ce6358fd77c4922324ef3e117e0f867688c2a6f0f14",
    "gaussian-sigma-minus-one": "705fb6b3ba2273d74d6bee3cf9524a66802e0170e570d5f1ee3b5d69530318ed",
    "sqrt2-trace": "e54b2db91a1e231f86786c9f476c66770d6b5b3118a61bfab09a2793d2c08cd2",
    "sqrt2-sigma-minus-one": "fe2bc6120a68ec464a266149a88e636ef28020daa0d45e8d8b9d881235451d2e",
    "cyclo3-trace": "75dc37f6981fc433a49290b2abd5029dd5db9bb9bf388e8a175070d449500e3f",
    "cyclo3-sigma-minus-one": "18ef5181d295d3ba256cbcd9510515b561c3c34f408d1625e332397fd1a3978d",
    "t4-trace": "b0072f768384e01f974232d19e33fa54abd27287f4c57358cd85f056669959ea",
    "t4-sigma-minus-one": "39a8f54ed9e1bb042983f53c7813a2ac789610bed30889a7ed4687c514d7c177",
}


SOLVED_SPECS = {"gaussian": {"kind": "quadratic-gaussian"},
                "sqrt2": {"kind": "quadratic-sqrt2"},
                "cyclo3": {"kind": "cyclotomic-step"}, "t4": T4_SPEC}


@pytest.mark.parametrize("which", ["trace", "sigma-minus-one"])
@pytest.mark.parametrize("name", list(SOLVED_SPECS))
def test_particular_solutions_keep_their_digest(name, which):
    # the targets are every Howell row of the image and eight seeded image
    # elements; a solution that is still a solution but another one (a
    # kernel row swept in, a quotient taken another way) moves the digest
    case = f"{name}-{which}"
    ext = build_extension(SOLVED_SPECS[name])
    lin = linear_map_of(ext, which)
    pN = ext.tower.pN
    rng = random.Random(case)
    targets = list(lin.image.rows) + [
        matvec(lin.rows, [rng.randrange(pN) for _ in range(lin.width)], pN)
        for _ in range(8)]
    solutions = [(b, solve_columnwise(lin, b)) for b in targets]
    for b, x in solutions:
        assert matvec(lin.rows, x, pN) == b, f"A x != b for b = {b}, x = {x}"
    digest = hashlib.sha256(repr(solutions).encode()).hexdigest()
    assert digest == PARTICULAR_SOLUTION_DIGESTS[case], \
        "particular solutions (target, x) moved:\n" + "\n".join(map(str, solutions))


def _first_entries(basis):
    """(column, v_p) of each row's first nonzero entry, found by a scan."""
    cols = [next(c for c, x in enumerate(row) if x) for row in basis.rows]
    return tuple((c, padic_val(row[c], basis.p)) for c, row in zip(cols, basis.rows))


# (p, N, most generators) small enough to enumerate every coefficient vector
PRESENTED_MODULI = [(2, 1, 4), (2, 3, 3), (3, 2, 3), (5, 1, 3), (7, 1, 3)]


@pytest.mark.parametrize("p,N,max_gens", PRESENTED_MODULI)
def test_presentation_against_enumeration(p, N, max_gens):
    # for the map whose columns are the generators, the image is the Howell
    # form of the span, the kernel the Howell form of the enumerated
    # syzygies, and solutions reproduce every span element; the empty
    # generating list (a map with no columns) and width 0 (a map with no
    # rows) are included
    rng = random.Random(7 * p + N)
    pN = p ** N
    for trial in range(30):
        width = trial % 6
        n = 0 if trial < 2 else rng.randrange(1, max_gens + 1)
        rows = [tuple(rng.choice((0, rng.randrange(pN), p * rng.randrange(pN)))
                      for _ in range(width)) for _ in range(n)]
        lin = LinearMap(tuple(tuple(r[k] for r in rows) for k in range(width)),
                        p, N, n)
        assert lin.image.rows == howell_form(rows, p, N, width).rows
        assert lin.image.width == width
        syzygies = []
        for y in itertools.product(range(pN), repeat=n):
            total = tuple(sum(c * r[k] for c, r in zip(y, rows)) % pN
                          for k in range(width))
            if not any(total):
                syzygies.append(y)
            combo = solve_columnwise(lin, total)
            assert tuple(sum(c * r[k] for c, r in zip(combo, rows)) % pN
                         for k in range(width)) == total
        assert lin.kernel.rows == howell_form(syzygies, p, N, n).rows
        assert lin.kernel.width == n
        for basis in (lin.image, lin.kernel):
            assert basis.pivots == _first_entries(basis)
        if width and not member(lin.image, (1,) + (0,) * (width - 1)):
            with pytest.raises(NoSolution):
                solve_columnwise(lin, (1,) + (0,) * (width - 1))


def test_quotient_eliminates_its_generators_once(howell_calls):
    # one Howell form of [G | I] serves the syzygies and every preimage of
    # S, so the count does not grow with the number of sub-module generators
    gens = [(1, 0, 2), (0, 3, 1), (2, 2, 0)]
    for k in range(5):
        howell_calls.clear()
        subs = [tuple(3 * j * x % 9 for x in gens[j % 3]) for j in range(k)]
        quotient_invariants(gens, subs, 3, 2)
        assert len(howell_calls) == 1


# -- smith form -----------------------------------------------------------------------


def test_smith_on_diagonal():
    assert smith_invariants([[2, 0], [0, 8]], 2, 4, 2) == [2, 8]
    assert smith_invariants([[4]], 2, 3, 1) == [4]
    # a column with no pivot is a free Z/8 summand
    assert smith_invariants([[0]], 2, 3, 1) == [8]


def test_smith_divisibility_chain():
    rng = random.Random(21)
    for _ in range(30):
        rows = [[rng.randrange(-20, 20) for _ in range(3)] for _ in range(4)]
        diag = smith_invariants(rows, 2, 6, 3)
        assert len(diag) == 3
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_smith_known_example():
    # [[2,4],[6,8]] over Z/2^4: det = -8 has valuation 3 and the entries have
    # valuation >= 1 -> invariants (2, 4)
    assert smith_invariants([[2, 4], [6, 8]], 2, 4, 2) == [2, 4]


@pytest.mark.parametrize("p,N,width", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_smith_matches_enumeration(p, N, width):
    # Q = (Z/p^N)^width / span has #{x : p^j x in span} = |span| * |Q[p^j]|
    # and |Q[p^j]| = prod min(d, p^j); the counts for j = 0..N fix every d
    rng = random.Random(1000 * p + 10 * N + width)
    pN = p ** N
    vectors = list(itertools.product(range(pN), repeat=width))
    for trial in range(25):
        rows = [tuple(rng.randrange(pN) for _ in range(width))
                for _ in range(trial % 4)]
        span = brute_span(rows, pN) if rows else {(0,) * width}
        diag = smith_invariants(rows, p, N, width)
        assert len(diag) == width
        for j in range(N + 1):
            count = sum(tuple(p ** j * x % pN for x in vec) in span
                        for vec in vectors)
            expected = len(span)
            for d in diag:
                expected *= min(d, p ** j)
            assert count == expected


def _smith_min_reference(rows, p, N, width):
    """Smith invariants with the pivot chosen as the least (valuation, row,
    column) on every step, computing every valuation."""
    pN = p ** N
    A = [[x % pN for x in row] for row in rows]
    cols = list(range(width))
    out = []
    while True:
        best = min(((padic_val(row[j], p), i, j) for i, row in enumerate(A)
                    for j in cols if row[j]), default=None)
        if best is None:
            return out + [pN] * len(cols)
        k, i, j = best
        piv = A.pop(i)
        unit_inv = pow(piv[j] // p ** k, -1, pN)
        for row in A:
            q = (row[j] // p ** k) * unit_inv % pN
            if q:
                for c in cols:
                    row[c] = (row[c] - q * piv[c]) % pN
        cols.remove(j)
        out.append(p ** k)


@pytest.mark.parametrize("spec", [
    {"kind": "quadratic-gaussian"}, {"kind": "quadratic-sqrt2"},
    {"kind": "cyclotomic-step", "p": 3}, {"kind": "cyclotomic-step", "p": 5},
    {"kind": "cyclotomic-step", "p": 7}, T4_SPEC,
], ids=["gaussian", "sqrt2", "cyclo3", "cyclo5", "cyclo7", "t4"])
def test_unit_first_smith_matches_the_least_valuation_pivot(spec):
    ext = build_extension(spec)
    columns = list(zip(*linear_map_of(ext, "sigma-minus-one").rows))
    assert smith_invariants(columns, ext.p, ext.N, ext.tower.dim) == \
        _smith_min_reference(columns, ext.p, ext.N, ext.tower.dim)


def test_unit_first_smith_matches_the_reference_on_random_matrices():
    rng = random.Random(77)
    for p, N in [(2, 6), (3, 4), (5, 3)]:
        pN = p ** N
        for _ in range(40):
            width = rng.randrange(1, 6)
            # entries of mixed valuation, so that some steps have no unit
            rows = [[rng.randrange(pN) * p ** rng.choice((0, 0, 1, 2))
                     for _ in range(width)] for _ in range(rng.randrange(0, 6))]
            assert smith_invariants(rows, p, N, width) == \
                _smith_min_reference(rows, p, N, width)


# -- quotients -------------------------------------------------------------------------


def test_quotient_full_by_doubles():
    gens = [(1, 0), (0, 1)]
    subs = [(2, 0), (0, 2)]
    assert quotient_invariants(gens, subs, 2, 4) == (2, 2)


def test_quotient_trivial():
    gens = [(1, 0), (0, 1)]
    assert quotient_invariants(gens, gens, 2, 4) == ()


def test_quotient_cyclic():
    gens = [(1, 0)]
    subs = [(4, 0)]
    assert quotient_invariants(gens, subs, 2, 4) == (4,)


def test_quotient_rejects_outsiders():
    with pytest.raises(ValueError):
        quotient_invariants([(2, 0)], [(1, 0)], 2, 4)


def test_quotient_order_matches_enumeration():
    rng = random.Random(31)
    p, N = 2, 3
    pN = p ** N
    for _ in range(20):
        gen_rows = [tuple(rng.randrange(pN) for _ in range(2))
                    for _ in range(2)]
        gen_span = brute_span(gen_rows, pN)
        sub_elems = sorted(gen_span)
        sub_rows = [sub_elems[rng.randrange(len(sub_elems))] for _ in range(2)]
        sub_span = brute_span(sub_rows, pN)
        factors = quotient_invariants(gen_rows, sub_rows, p, N)
        assert prod(factors) == len(gen_span) // len(sub_span)
