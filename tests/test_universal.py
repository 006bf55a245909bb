"""Universal addition polynomials: frozen oracles and exact identities.

The frozen term dictionaries below were derived by hand-expanding the ghost
equations (e.g. for two summands and p = 2: z_1 = (X00^2 + 2 X01 + X10^2 +
2 X11 - (X00 + X10)^2)/2 = X01 + X11 - X00 X10) and are asserted literally.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittram.errors import IntegralityError, ResourceLimit
from wittram.extensions import build_extension
from wittram.harness import SYMBOLIC_LEVELS, symbolic_suite
from wittram.universal import (
    _WIDTH,
    SymPoly,
    _rendered,
    _rendered_factor,
    carry_polynomial,
    carry_residue_polynomial,
    decode_monomial,
    format_polynomial,
    ghost_polynomial,
    structure_check,
    sum_polynomials,
)

X = SymPoly.var


def mono(*pairs):
    return tuple(sorted(((var, e) for var, e in pairs),
                        key=lambda it: (it[0][1], it[0][0])))


def poly(term_map):
    out = SymPoly.zero()
    for pairs, c in term_map.items():
        term = SymPoly.const(c)
        for (i, j), e in pairs:
            term = term * X(i, j) ** e
        out = out + term
    return out


# -- ghost polynomials ----------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ghost_level_zero(p):
    assert ghost_polynomial(p, 0) == X(0, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_ghost_level_one(p):
    expected = poly({mono(((0, 0), p)): 1, mono(((0, 1), 1)): p})
    assert ghost_polynomial(p, 1) == expected


def test_ghost_level_two_p2():
    expected = poly({
        mono(((0, 0), 4)): 1,
        mono(((0, 1), 2)): 2,
        mono(((0, 2), 1)): 4,
    })
    assert ghost_polynomial(2, 2) == expected


# -- addition laws ----------------------------------------------------------------


@pytest.mark.parametrize("p,arity", [(2, 2), (3, 2), (3, 3), (2, 4)])
def test_level_zero_is_plain_sum(p, arity):
    z0 = sum_polynomials(p, 0, arity)[0]
    expected = SymPoly.zero()
    for i in range(arity):
        expected = expected + X(i, 0)
    assert z0 == expected


def test_binary_z1_p2():
    z1 = sum_polynomials(2, 1, 2)[1]
    expected = poly({
        mono(((0, 1), 1)): 1,
        mono(((1, 1), 1)): 1,
        mono(((0, 0), 1), ((1, 0), 1)): -1,
    })
    assert z1 == expected


def test_binary_z1_p3():
    z1 = sum_polynomials(3, 1, 2)[1]
    expected = poly({
        mono(((0, 1), 1)): 1,
        mono(((1, 1), 1)): 1,
        mono(((0, 0), 2), ((1, 0), 1)): -1,
        mono(((0, 0), 1), ((1, 0), 2)): -1,
    })
    assert z1 == expected


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
def test_adding_zero_summands_is_identity(p, n):
    # with all summands but the first set to 0, z_n collapses to X_{0,n}
    zs = sum_polynomials(p, n, p)
    zero_table = {}
    for i in range(1, p):
        for j in range(n + 1):
            zero_table[(i, j)] = SymPoly.zero()
    assert zs[n].substitute(zero_table) == X(0, n)


@pytest.mark.parametrize("p,n_max,arity", [(2, 3, 2), (3, 2, 3), (3, 2, 2)])
def test_ghost_compatibility(p, n_max, arity):
    zs = sum_polynomials(p, n_max, arity)
    for k in range(n_max + 1):
        w_k = ghost_polynomial(p, k)
        lhs = SymPoly.zero()
        for i in range(arity):
            lhs = lhs + w_k.substitute({(0, e): X(i, e) for e in range(k + 1)})
        rhs = w_k.substitute({(0, e): zs[e] for e in range(k + 1)})
        assert (lhs - rhs).is_zero


@pytest.mark.parametrize("p,n_max,arity", [(2, 3, 2), (3, 2, 3)])
def test_addition_laws_integral_without_constant(p, n_max, arity):
    for z in sum_polynomials(p, n_max, arity):
        assert all(type(c) is int for c in z.terms.values())
        assert not z.has_constant_term


# -- carries -----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_carry_level_zero_vanishes(p):
    assert carry_polynomial(p, 0).is_zero


def test_carry_level_one_p2():
    expected = poly({mono(((0, 0), 1), ((1, 0), 1)): -1})
    assert carry_polynomial(2, 1) == expected


def test_carry_level_one_p3():
    # hand expansion of (X0^3 + X1^3 + X2^3 - (X0+X1+X2)^3)/3
    terms = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                terms[mono(((i, 0), 2), ((j, 0), 1))] = -1
    terms[mono(((0, 0), 1), ((1, 0), 1), ((2, 0), 1))] = -2
    assert carry_polynomial(3, 1) == poly(terms)


@pytest.mark.parametrize("p,n_max", [(2, 3), (3, 2)])
def test_carry_identity_and_structure(p, n_max):
    zs = sum_polynomials(p, n_max, p)
    for n in range(1, n_max + 1):
        f_n = carry_polynomial(p, n)
        total = f_n - zs[n]
        for i in range(p):
            total = total + X(i, n)
        assert total.is_zero
        assert structure_check(f_n, p), (p, n)


def test_carry_residue_base_case():
    assert carry_residue_polynomial(2, 1).is_zero
    assert carry_residue_polynomial(3, 1).is_zero


def test_carry_residue_p2_level2():
    expected = poly({
        mono(((0, 0), 3), ((1, 0), 1)): -1,
        mono(((0, 0), 2), ((1, 0), 2)): -1,
        mono(((0, 0), 1), ((1, 0), 3)): -1,
    })
    g = carry_residue_polynomial(2, 2)
    assert g == expected
    assert g.min_total_degree == 4


@pytest.mark.parametrize("p,n_max", [(2, 3), (3, 2)])
def test_carry_split_identity_and_structure(p, n_max):
    zs = sum_polynomials(p, n_max, p)
    for n in range(2, n_max + 1):
        g = carry_residue_polynomial(p, n)
        f_n = carry_polynomial(p, n)
        f_prev = carry_polynomial(p, n - 1)
        block = SymPoly.zero()
        for i in range(p):
            block = block + X(i, n - 1) ** p
        block = block - zs[n - 1] ** p - (-f_prev) ** p
        assert ((f_n - g).scale(p) - block).is_zero
        assert structure_check(g, p * p), (p, n)


# -- structure checks ----------------------------------------------------------------


def test_structure_check_passes_known_cases():
    assert structure_check(carry_residue_polynomial(2, 2), 4)
    assert structure_check(carry_polynomial(2, 1), 2)


def test_structure_check_flags_constant_term():
    bad = X(0, 0) + SymPoly.const(1)
    assert not structure_check(bad, 1)
    assert bad.has_constant_term


def test_structure_check_zero_poly_is_vacuous():
    assert structure_check(SymPoly.zero(), 100)
    assert SymPoly.zero().min_total_degree is None


# -- the integrality certificate --------------------------------------------------


def test_non_prime_p_fails_the_certificate():
    # p = 4: (X0^4 + X1^4 - (X0 + X1)^4)/4 has the coefficient -6/4
    with pytest.raises(IntegralityError):
        sum_polynomials(4, 1, 2)
    with pytest.raises(IntegralityError):
        carry_polynomial(4, 1)


def test_exact_division_raises_on_a_remainder():
    with pytest.raises(IntegralityError):
        X(0, 0).scale(3).exact_div(2, "3 X00 / 2")
    even = X(0, 0).scale(-6) + X(1, 0).scale(2)
    assert even.exact_div(2, "even") == X(0, 0).scale(-3) + X(1, 0)


# -- resource guard -------------------------------------------------------------------


def test_resource_limit_large_level():
    with pytest.raises(ResourceLimit):
        sum_polynomials(3, 3, 3)


def test_resource_limit_large_arity():
    with pytest.raises(ResourceLimit):
        sum_polynomials(2, 3, 40)


# -- canonical format ------------------------------------------------------------------


def test_canonical_lines_carry_p2():
    assert carry_polynomial(2, 1).canonical_lines() == ["-1 0:0^1 1:0^1"]


def test_canonical_order_graded_then_variable():
    z1 = sum_polynomials(2, 1, 2)[1]
    assert z1.canonical_lines() == ["-1 0:0^1 1:0^1", "1 0:1^1", "1 1:1^1"]


def test_format_zero_polynomial_is_empty():
    assert format_polynomial(SymPoly.zero()) == ""


def test_digest_is_stable():
    a = carry_residue_polynomial(2, 2)
    b = carry_residue_polynomial(2, 2)
    assert a.digest() == b.digest()
    assert a.digest() != carry_polynomial(2, 1).digest()


def test_substitution_composes_with_arithmetic():
    f = X(0, 0) * X(1, 0) + X(0, 1)
    table = {(0, 0): X(0, 1), (1, 0): SymPoly.const(2)}
    assert f.substitute(table) == X(0, 1).scale(2) + X(0, 1)


# -- packed monomials -------------------------------------------------------------


def _reference_product(a, b):
    """The product of two {monomial tuple: coefficient} maps by tuple merging."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for var, e in m2:
                exps[var] = exps.get(var, 0) + e
            m = mono(*exps.items())
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _reference_lines(term_map):
    """Canonical lines of a tuple-keyed map: graded lex descending, (j, i)."""
    def key(m):
        return (-sum(e for _, e in m), tuple(((j, i), -e) for (i, j), e in m))
    return [" ".join([str(c)] + [f"{i}:{j}^{e}" for (i, j), e in m])
            for m, c in sorted(term_map.items(), key=lambda t: key(t[0])) if c]


_monomials = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(1, 4),
    max_size=4).map(lambda exps: mono(*exps.items()))
_term_maps = st.dictionaries(_monomials, st.integers(-5, 5), max_size=5)


@settings(max_examples=150, deadline=None)
@given(a=_term_maps, b=_term_maps, c=_term_maps)
def test_packed_product_matches_tuple_merge(a, b, c):
    pa, pb, pc = poly(a), poly(b), poly(c)
    assert pa.canonical_lines() == _reference_lines(a)
    assert (pa * pb).canonical_lines() == _reference_lines(_reference_product(a, b))
    assert pa * pb == pb * pa
    assert (pa * pb) * pc == pa * (pb * pc)


def test_product_drops_the_terms_that_cancel():
    # (X0 - X1)(X0 + X1): the cross terms X0 X1 cancel, and no zero
    # coefficient is kept
    x0, x1 = X(0, 0), X(1, 0)
    product = (x0 - x1) * (x0 + x1)
    assert product == x0 ** 2 - x1 ** 2
    assert product.num_terms == 2


def test_degree_overflow_raises_instead_of_wrapping():
    top = 2 ** _WIDTH - 1  # the largest degree an exponent field holds
    power = X(0, 0) ** top
    assert power.canonical_lines() == [f"1 0:0^{top}"]
    with pytest.raises(ResourceLimit):
        power * X(1, 0)
    with pytest.raises(ResourceLimit):
        X(0, 0) ** (top + 1)


def _square_and_multiply(base, n):
    result, square = SymPoly.const(1), base
    while n:
        if n & 1:
            result = result * square
        square = square * square
        n >>= 1
    return result


@settings(max_examples=60, deadline=None)
@given(a=_term_maps, order=st.permutations(range(10)))
def test_memoized_powers_match_square_and_multiply(a, order):
    # one instance asked for n = 0..9 in any order: each answer comes from
    # the memo, the closed form of a one-term base, or products on top of
    # the largest memoized power
    base = poly(a)
    for n in order:
        assert base ** n == _square_and_multiply(base, n)


def test_overflowing_power_raises_before_any_product(monkeypatch):
    # squaring first would build 2^k + 1 terms per step before the degree
    # overflowed, so a product here fails the test at once instead
    def refuse(self, other):
        raise AssertionError("a product ran before the degree check")

    base = X(0, 0) * X(1, 0) + X(0, 1)
    monkeypatch.setattr(SymPoly, "__mul__", refuse)
    with pytest.raises(ResourceLimit):
        base ** 2 ** (_WIDTH - 1)
    with pytest.raises(ResourceLimit):
        (X(0, 0) + X(1, 0)) ** 2 ** _WIDTH


def test_symbolic_suite_builds_each_power_of_z0_once(monkeypatch):
    # z_0^7 = (sum_i X_{i,0})^7 enters z_1 and the ghost check of z_1
    z0_power = sum((X(i, 0) for i in range(7)), SymPoly.zero()) ** 7
    for family in (sum_polynomials, carry_polynomial, carry_residue_polynomial):
        family.cache_clear()
    built = []
    mul = SymPoly.__mul__

    def counting(self, other):
        out = mul(self, other)
        if out == z0_power:
            built.append(out)
        return out

    monkeypatch.setattr(SymPoly, "__mul__", counting)
    ext = build_extension({"kind": "cyclotomic-step", "p": 7})
    assert all(c.status == "pass" for c in symbolic_suite(ext).checks)
    assert len(built) == 1


def test_variable_indices_are_bounded():
    assert X(63, 0).canonical_lines() == ["1 63:0^1"]
    assert X(0, 63).canonical_lines() == ["1 0:63^1"]
    with pytest.raises(ResourceLimit):
        X(64, 0)
    with pytest.raises(ResourceLimit):
        X(30, 34)
    with pytest.raises(ValueError):
        X(-1, 0)


# -- pinned polynomial bytes ----------------------------------------------------------

# SHA-256 of the canonical lines of every polynomial the symbolic suite
# builds, at the default levels; any change to the solve or the format moves
# them.
SYMBOLIC_DIGESTS = {
    2: {
        "z_0": "5a78b606a30568bc5fef57ad47fd7e06ecfef2abff92af2663d37f68d641c1e9",
        "z_1": "de168bb78eda84c8a7b98d52e183985ee2b8f3b7cb301f8940b7c56eac291bfb",
        "z_2": "5e434f9794a5e1e3529c48c07ffbb20318fc260204c7bf4bc6bd54d07db6fd1a",
        "z_3": "637e7fb67b1b75987194fafa7d9e7d85917217dc9bc1f5ed68317be9bc778a2c",
        "f_1": "b8940c9fefcfca68ed42abfc1db383f200638574d8f3a7209bf304720c65ca5d",
        "f_2": "38a266844e7a8f1fb0d313570f56266e2339f182cc0f1f36faec43fcb3662b3f",
        "f_3": "e8db7f99a1aa2fcbb3fde066165c2547067cc2edba1cd89268a3ee8274006c7c",
        "g_for_level_2": "2c40e02aa46e68c44cd8b04ffe34ec0baa3ed1d8324e6c3b5d54df986e35069a",
        "g_for_level_3": "fe0c89ef4f9df4c03809decca3b8cf0b08accbe9ccbfe0ce52cfe8760fc87dec",
    },
    3: {
        "z_0": "fa1fcd21b18a3c19133a2a732ce6cab616ec9267030eee728ca68e39a0d4e926",
        "z_1": "6d3877059348402becbd4486c0a2ff6f3a77b7cac7b9fab97be96f21a77c7a12",
        "z_2": "21e483c0558a849ac7a0266d7ba67841a4428592b2d079fdce9b71ff09b3a9b5",
        "f_1": "63474703259112d1a590d201ba5354942b9ed7ded1ddf3f35706731b4311b8e1",
        "f_2": "b476710a0d08cf7e01a82bcb2b231dfb4ee65e841db23ba2b58a899ff7d1c656",
        "g_for_level_2": "24c007bfb00534ca918378cfbb3fadeb6329c963f49e951a3cf469b3ce1841b7",
    },
    5: {
        "z_0": "58dc3e4f153718af559f02592999304b1f535bce0dcfd8ed1be2380719e08a1f",
        "z_1": "5ecf62ba5a2e15f05875be2d34224b5fc8ab390b501888453f7d596a5d52d4a4",
        "f_1": "fa1348913154c84f39db564c79d935ff24dbb66e638e658a5594c559648bb25e",
    },
    7: {
        "z_0": "b3dd65deac2c6d42d2d09ac853773d3ef3be5fc382cb4a240bfbfd96c633bb98",
        "z_1": "8669e78a81800fb8270f4cb072918715fac2300b5fd2a26c1fe81b70da4d9e95",
        "f_1": "3f53db3cb5d8cf9b1be54cb730df8e448de27bf37ce6fcf7de0898c2e22d19de",
    },
}


@pytest.mark.parametrize("p", sorted(SYMBOLIC_DIGESTS))
def test_symbolic_digests(p):
    spec = ({"kind": "quadratic-gaussian"} if p == 2
            else {"kind": "cyclotomic-step", "p": p})
    record = symbolic_suite(build_extension(spec))
    assert record.checks[0].detail["digests"] == SYMBOLIC_DIGESTS[p]


@pytest.mark.parametrize("p", [3, 5])
def test_cached_monomial_text_is_coefficient_free(p):
    # z_1 = f_1 + sum_i X_{i,1} shares every monomial of f_1, and -3 f_1
    # shares them with other coefficients and signs; only the sort key and
    # the "i:j^e" text are cached, never a coefficient
    f1 = carry_polynomial(p, 1)
    polys = (sum_polynomials(p, 1, p)[1], f1, f1.scale(-3))
    expected = [_reference_lines({decode_monomial(m): c for m, c in q.terms.items()})
                for q in polys]
    _rendered.cache_clear()
    warm = [q.canonical_lines() for q in polys]
    assert _rendered.cache_info().misses == polys[0].num_terms
    _rendered.cache_clear()
    cold = [q.canonical_lines() for q in reversed(polys)][::-1]
    assert warm == cold == expected


def _tuple_key(mono):
    """The output sort key as a tuple: (-degree, ((j, i), -e) per factor)."""
    return (-(mono & ((1 << _WIDTH) - 1)),
            tuple(((j, i), -e) for (i, j), e in decode_monomial(mono)))


@pytest.mark.parametrize("p,levels", [(2, 3), (3, 2), (7, 1)])
def test_bytes_sort_key_orders_like_the_tuple_key(p, levels):
    zs = sum_polynomials(p, levels, p)
    for n in range(1, levels + 1):
        for q in (zs[n], carry_polynomial(p, n)):
            monos = list(q.terms)
            assert sorted(monos, key=lambda m: _rendered(m)[0]) == \
                sorted(monos, key=_tuple_key)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_rendered_factors_give_the_reference_lines(p):
    # every polynomial the symbolic suite digests, rendered from cold caches
    levels = SYMBOLIC_LEVELS.get(p, 1)
    zs = sum_polynomials(p, levels, p)
    polys = list(zs)
    polys += [carry_polynomial(p, n) for n in range(1, levels + 1)]
    polys += [carry_residue_polynomial(p, n) for n in range(2, levels + 1)]
    _rendered.cache_clear()
    _rendered_factor.cache_clear()
    for q in polys:
        expected = _reference_lines({decode_monomial(m): c for m, c in q.terms.items()})
        assert q.canonical_lines() == expected
