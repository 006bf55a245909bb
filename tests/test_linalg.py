"""Chain-ring linear algebra against brute-force enumeration over tiny moduli."""

import itertools
import random
from math import prod

import pytest

from wittram.cohomology import linear_map_of
from wittram.errors import NoSolution
from wittram.extensions import ExtensionSpec, build_extension
from wittram.linalg import (
    columns_of,
    howell_form,
    member,
    present,
    quotient_invariants,
    smith_invariants,
    solve_columnwise,
)
from wittram.rings import matvec, padic_val


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
        assert 3 ** hb.order_exponent() == len(brute_span(rows, 9))


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
        columns = columns_of(A, p, N)
        ker = columns.syzygies
        for x in vectors:
            assert member(ker, x) == (x in kernel)
        img = columns.span
        for y in vectors:
            assert member(img, y) == (y in images)
        # a few solves, both solvable and not
        for y in vectors[:: max(1, len(vectors) // 10)]:
            if y in images:
                x = solve_columnwise(columns, y)
                assert matvec(A, x, pN) == tuple(y)
            else:
                with pytest.raises(NoSolution):
                    solve_columnwise(columns, y)


def test_solve_zero_is_accepted():
    A = [(2, 0), (0, 4)]
    x = solve_columnwise(columns_of(A, 2, 3), (0, 0))
    assert matvec(A, x, 8) == (0, 0)


def test_combination_roundtrip():
    rng = random.Random(9)
    rows = [(2, 0, 4), (0, 3, 1)]
    pN = 9
    pres = present(rows, 3, 2, 3)
    for _ in range(20):
        coeffs = [rng.randrange(pN) for _ in rows]
        target = tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) % pN
                       for k in range(3))
        combo = pres.combination(target)
        assert combo is not None
        got = tuple(sum(c * r[k] for c, r in zip(combo, rows)) % pN
                    for k in range(3))
        assert got == target
    assert pres.combination((1, 0, 0)) is None


# (p, N, most generators) small enough to enumerate every coefficient vector
PRESENTED_MODULI = [(2, 1, 4), (2, 3, 3), (3, 2, 3), (5, 1, 3), (7, 1, 3)]


@pytest.mark.parametrize("p,N,max_gens", PRESENTED_MODULI)
def test_presentation_against_enumeration(p, N, max_gens):
    # the cut left block is the Howell form of the span, the tails are the
    # Howell form of the enumerated syzygies, and combinations reproduce
    # every span element; the empty generating list is included
    rng = random.Random(7 * p + N)
    pN = p ** N
    for trial in range(30):
        width = trial % 6
        n = 0 if trial < 2 else rng.randrange(1, max_gens + 1)
        rows = [tuple(rng.choice((0, rng.randrange(pN), p * rng.randrange(pN)))
                      for _ in range(width)) for _ in range(n)]
        pres = present(rows, p, N, width)
        assert pres.span.rows == howell_form(rows, p, N, width).rows
        syzygies = []
        for y in itertools.product(range(pN), repeat=n):
            total = tuple(sum(c * r[k] for c, r in zip(y, rows)) % pN
                          for k in range(width))
            if not any(total):
                syzygies.append(y)
            combo = pres.combination(total)
            assert tuple(sum(c * r[k] for c, r in zip(combo, rows)) % pN
                         for k in range(width)) == total
        assert pres.syzygies.rows == howell_form(syzygies, p, N, n).rows
        assert pres.syzygies.width == n
        if width and not member(pres.span, (1,) + (0,) * (width - 1)):
            assert pres.combination((1,) + (0,) * (width - 1)) is None


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


#: K = Q_2(sqrt 2), L = K(sqrt pi_K), sigma(pi_L) = -pi_L: break t = 4
T4_SPEC = ExtensionSpec("custom", p=2, base_coeffs=(-2, 0),
                        top_coeffs=((0, -1), (0, 0)), sigma_pi=((0, 0), (-1, 0)))


@pytest.mark.parametrize("spec", [
    ExtensionSpec("quadratic-gaussian"), ExtensionSpec("quadratic-sqrt2"),
    ExtensionSpec("cyclotomic-step", p=3), ExtensionSpec("cyclotomic-step", p=5),
    ExtensionSpec("cyclotomic-step", p=7), T4_SPEC,
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
