"""The exact image of restriction on level-1 cohomology.

``cohomology.restriction_image(ext, m)`` gives E_m, the first components of
the trace-zero Witt vectors of length m+1, and the invariant factors of
E_m/im(sigma-1), the image of restriction from classes of length m+1 in
H^1 = ker(tr)/im(sigma-1).  The paper's level-1 statement is that the image
vanishes once p^m exceeds the break t; it is sharp, so the image is nonzero
whenever p^m <= t.

The last tests check E_m against pure linear algebra: E_m is the filtration
piece F_j = im(sigma-1) + (E_0 & p_L^j) for j = t - floor(t/p^m), where E_0
is the saturated trace kernel.  No source states this identity; it was
found by measurement, so a mismatch would be a finding, not a failure of
the paper's theorem.
"""

import itertools

import pytest

from wittram import cohomology
from wittram.cohomology import (
    linear_map_of,
    restriction_image,
    trace_kernel_saturated,
)
from wittram.extensions import build_extension
from wittram.linalg import LinearMap, howell_form, member
from wittram.rings import padic_val
from wittram.witt import WittVec, witt_trace

from oracles import T4_SPEC, order_exponent, spec_id

#: (spec, N, log_p |E_m/im(sigma-1)| for m = 0, 1, 2, 3)
TABLE = [
    ({"kind": "quadratic-sqrt2"}, 48, (1, 1, 0, 0)),
    ({"kind": "quadratic-gaussian"}, 48, (1, 0, 0, 0)),
    (T4_SPEC, 48, (2, 1, 1, 0)),
    ({"kind": "cyclotomic-step", "p": 3}, 40, (2, 0, 0, 0)),
    ({"kind": "cyclotomic-step", "p": 5}, 32, (4, 0, 0, 0)),
    # t = pf, and at (3, 3) the boundary p^m = t = 9 at m = 2
    ({"kind": "kummer-step", "p": 2, "f": 3, "radicand": "uniformizer"}, 48, (3, 2, 1, 0)),
    ({"kind": "kummer-step", "p": 3, "f": 3, "radicand": "uniformizer"}, 40, (6, 2, 1, 0)),
    ({"kind": "kummer-step", "p": 5, "f": 2, "radicand": "uniformizer"}, 32, (8, 2, 0, 0)),
]


def image_exponent(ext, m) -> int:
    """log_p |E_m/im(sigma-1)|."""
    return sum(padic_val(d, ext.p) for d in restriction_image(ext, m)[1])


@pytest.mark.parametrize("spec,N,expected", TABLE, ids=spec_id)
def test_image_orders_vanish_exactly_when_p_to_the_m_exceeds_t(spec, N, expected):
    ext = build_extension(spec, precision=N)
    orders = tuple(image_exponent(ext, m) for m in range(4))
    assert orders == expected
    assert [order == 0 for order in orders] == [ext.p ** m > ext.t for m in range(4)]


@pytest.mark.parametrize("spec,N,expected", TABLE, ids=spec_id)
def test_images_shrink_with_the_length(spec, N, expected):
    # a trace-zero vector of length m+1 truncates to one of length m
    ext = build_extension(spec, precision=N)
    for m in range(1, 4):
        shorter = restriction_image(ext, m - 1)[0]
        assert all(member(shorter, row) for row in restriction_image(ext, m)[0].rows)


@pytest.mark.parametrize("spec,N,expected", TABLE, ids=spec_id)
def test_image_is_the_same_four_digits_higher(spec, N, expected):
    # E_m at N + 4, reduced mod p^N, has the Howell form of E_m at N
    ext = build_extension(spec, precision=N)
    up = build_extension(spec, precision=N + 4)
    D = ext.tower.dim
    for m in range(4):
        reduced = howell_form(restriction_image(up, m)[0].rows, ext.p, ext.N, D)
        assert reduced.rows == restriction_image(ext, m)[0].rows


@pytest.mark.parametrize("kind,whole_kernel", [
    ("quadratic-gaussian", False), ("quadratic-sqrt2", True)])
def test_first_image_equals_brute_force(kind, whole_kernel):
    # E_1 at N = 3 by enumeration of O_L/p^3 (4096 elements): the a_0 of the
    # saturated trace kernel whose carry, component 1 of the Witt trace of
    # (a_0, 0), some tr(a_1) cancels.  On sqrt2 that is every a_0 (p = 2 <= t)
    ext = build_extension({"kind": kind}, precision=3)
    tower = ext.tower
    elements = list(itertools.product(range(tower.pN), repeat=tower.dim))
    traces = {ext.trace(tower.element(c)).coeffs for c in elements}
    kernel = trace_kernel_saturated(ext, tower.lift(4))
    expected = {c for c in elements if member(kernel, c) and (-witt_trace(
        WittVec(ext, (tower.element(c), tower.zero_ol)))[1]).coeffs in traces}
    image = restriction_image(ext, 1)[0]
    assert {c for c in elements if member(image, c)} == expected
    assert (expected == {c for c in elements if member(kernel, c)}) == whole_kernel


def test_a_basis_missing_a_coboundary_is_refused(monkeypatch):
    # E_m must contain im(sigma-1): generators that span the coboundaries
    # give the zero image, and one row fewer is refused
    ext = build_extension("cyclotomic-step", precision=8)
    coboundaries = list(linear_map_of(ext, "sigma-minus-one").image.rows)
    hi = ext.tower.lift(ext.N + 1)
    monkeypatch.setattr(cohomology, "trace_zero_generators", lambda ext, m: (hi, coboundaries))
    assert restriction_image(ext, 0)[1] == ()
    D = ext.tower.dim
    missing = next(i for i, row in enumerate(coboundaries) if not member(
        howell_form(coboundaries[:i] + coboundaries[i + 1:], ext.p, ext.N, D), row))
    del coboundaries[missing]
    with pytest.raises(ValueError, match="do not lie in the span"):
        restriction_image(ext, 0)


# -- E_m as a filtration piece -------------------------------------------------


def _kummer(radicand, p, f):
    return {"kind": "kummer-step", "p": p, "f": f, "radicand": radicand}


#: (spec, the m at which j is the only matching index: F_{j-1} and F_{j+1}
#: both differ from E_m there)
SWEEP = [
    ({"kind": "quadratic-gaussian"}, ()),
    ({"kind": "quadratic-sqrt2"}, ()),
    (T4_SPEC, ()),
    ({"kind": "cyclotomic-step", "p": 3}, ()),
    ({"kind": "cyclotomic-step", "p": 5}, ()),
    (_kummer("unit", 2, 3), ()),
    (_kummer("unit", 2, 5), ()),
    (_kummer("unit", 3, 2), (1,)),
    (_kummer("unit", 3, 4), ()),
    (_kummer("unit", 5, 2), ()),
    (_kummer("uniformizer", 2, 3), ()),
    (_kummer("uniformizer", 3, 1), (1,)),
    (_kummer("uniformizer", 3, 3), (2,)),
    (_kummer("uniformizer", 5, 1), (1,)),
    (_kummer("uniformizer", 5, 2), (1,)),
    (_kummer("uniformizer", 7, 1), (1,)),
]


def filtration_piece(ext, j) -> tuple:
    """Howell rows of F_j = im(sigma-1) + (E_0 & p_L^j).  p_L^j is spanned
    by p^k e_c for each basis monomial c, k the least with e_L k + v_L(e_c)
    >= j, since the monomials have distinct valuations mod e_L.  The meet
    is read off the kernel of one map, whose columns are the rows of E_0
    and the negated lattice generators: each kernel vector (x | y) gives
    the meet element sum_i x_i E_0[i]."""
    tower = ext.tower
    p, N, D = ext.p, ext.N, tower.dim
    kernel = trace_kernel_saturated(ext, tower.lift(N + 1)).rows
    lattice = []
    for c in range(D):
        i, l = divmod(c, ext.e_K)
        k = max(0, -(-(j - p * l - i) // ext.e_L))
        if k < N:
            lattice.append([-p ** k * (r == c) for r in range(D)])
    columns = list(kernel) + lattice
    syzygies = LinearMap(tuple(zip(*columns)), p, N, len(columns)).kernel
    meet = [[sum(x * g[c] for x, g in zip(row, kernel)) for c in range(D)]
            for row in syzygies.rows]
    coboundaries = linear_map_of(ext, "sigma-minus-one").image.rows
    return howell_form(list(coboundaries) + meet, p, N, D).rows


SWEEP_IDS = ["-".join(str(spec[k]) for k in ("radicand", "p", "f")) if "f" in spec
             else spec_id(spec) for spec, _ in SWEEP]


@pytest.mark.parametrize("spec,unique", SWEEP, ids=SWEEP_IDS)
def test_each_image_is_the_filtration_piece_at_t_minus_t_over_p_to_the_m(spec, unique):
    # every m up to the first with p^m > t, where j = t and the theorem
    # reads E_0 & p_L^t <= im(sigma-1)
    ext = build_extension(spec, precision=16)
    t, m = ext.t, 0
    while True:
        j = t - t // ext.p ** m
        rows = restriction_image(ext, m)[0].rows
        assert filtration_piece(ext, j) == rows
        if m in unique:
            assert filtration_piece(ext, j - 1) != rows
            assert filtration_piece(ext, j + 1) != rows
        if ext.p ** m > t:
            break
        m += 1


@pytest.mark.parametrize("spec", [spec for spec, _ in SWEEP], ids=SWEEP_IDS)
def test_the_filtration_jumps_where_p_does_not_divide_t_minus_j(spec):
    # with K = t - j: F_j != F_{j+1} exactly when p does not divide K, and
    # log_p |F_j/im(sigma-1)| = K - floor(K/p); at j = 0 that is log_p |H^1|
    ext = build_extension(spec, precision=16)
    p, t, D = ext.p, ext.t, ext.tower.dim
    pieces = [filtration_piece(ext, j) for j in range(t + 2)]
    base = order_exponent(linear_map_of(ext, "sigma-minus-one").image)
    for j in range(t + 1):
        K = t - j
        assert (pieces[j] != pieces[j + 1]) == (K % p != 0), j
        assert order_exponent(howell_form(pieces[j], p, ext.N, D)) - base == K - K // p, j
