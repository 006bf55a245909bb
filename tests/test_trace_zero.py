"""The generators of the trace-zero group and the uniform draw on their span.

``cohomology.trace_zero_generators`` builds generators of T_{m+1}, the
Witt-trace-zero vectors of length m+1 at precision N, as ghost vectors, and
``sample_trace_zero`` draws one uniform combination of them.  These tests
certify each generator, check the exponent p^(N+m) of the group, compare
the span with brute force on the quadratic towers, test the draw for
uniformity and check that the cascade sees its boundary on the draws.
"""

import itertools
from collections import Counter

import pytest

from wittram import cohomology
from wittram.cohomology import (
    _cascade_levels,
    derive_seed,
    sample_trace_zero,
    trace_kernel_saturated,
    trace_zero_generators,
)
from wittram.extensions import build_extension
from wittram.linalg import member
from wittram.witt import WittVec, _from_ghost, _ghost, witt_add, witt_trace

from oracles import T1_SPEC, T4_SPEC, in_trace_zero_span, teichmuller

SPECS = {
    "gaussian": {"kind": "quadratic-gaussian"},
    "sqrt2": {"kind": "quadratic-sqrt2"},
    "t4": T4_SPEC,
    "t1": T1_SPEC,
    "cyclo3": {"kind": "cyclotomic-step", "p": 3},
    "cyclo5": {"kind": "cyclotomic-step", "p": 5},
}


def generators(ext, m) -> list:
    """The generators of T_{m+1}, their components recovered."""
    hi, ghosts = trace_zero_generators(ext, m)
    return [_from_ghost(ext, hi, g) for g in ghosts]


@pytest.mark.parametrize("name,N,m", [
    ("gaussian", 48, 4), ("sqrt2", 48, 3), ("t4", 48, 3), ("cyclo3", 32, 3),
    ("cyclo5", 32, 2)])
def test_every_generator_is_trace_zero_over_the_saturated_kernel(name, N, m):
    ext = build_extension(SPECS[name], precision=N)
    kernel = trace_kernel_saturated(ext, ext.tower.lift(N + 1))
    for k in range(m + 1):
        gens = generators(ext, k)
        assert gens
        for g in gens:
            assert len(g) == k + 1
            assert witt_trace(g).is_zero
            assert member(kernel, g[0].coeffs)


def times_p(v: WittVec) -> WittVec:
    """p * v by p - 1 Witt additions."""
    out = v
    for _ in range(v.ext.p - 1):
        out = witt_add(out, v)
    return out


def multiply(v: WittVec, exponent: int) -> WittVec:
    """p^exponent * v by repeated Witt addition."""
    for _ in range(exponent):
        v = times_p(v)
    return v


@pytest.mark.parametrize("name,m", [
    ("gaussian", 1), ("gaussian", 3), ("sqrt2", 2), ("t4", 2), ("t1", 1),
    ("t1", 2), ("cyclo3", 2)])
def test_p_to_the_n_plus_m_kills_every_generator(name, m):
    # the draw takes its coefficients mod p^(N+m), the exponent of
    # W_{m+1}(O_L/p^N), here by repeated Witt addition; [1] needs all of it
    ext = build_extension(SPECS[name], precision=6)
    assert all(multiply(v, ext.N + m).is_zero for v in generators(ext, m))
    one = teichmuller(ext, ext.tower.one_ol, m + 1)
    assert not multiply(one, ext.N + m - 1).is_zero


def test_p_to_the_n_does_not_kill_every_generator_when_t_is_below_e_k():
    # the trace-zero vectors of the built-in extensions have exponent p^N,
    # because v_L(a_0) >= e_K there; at t = 1 < e_K = 4, p^(N+m-1) = p^N
    # leaves a generator of T_2 alive
    ext = build_extension(T1_SPEC, precision=6)
    assert not all(multiply(v, ext.N).is_zero for v in generators(ext, 1))


def trace_zero_pairs(ext, N: int) -> set:
    """The trace-zero (a_0, a_1) of W_2(O_L) at the precision of ``ext``,
    by enumeration, reduced to precision N: a_0 runs over the trace kernel
    and a_1 over all of O_L, and (a_0, a_1) is trace-zero exactly when
    tr(a_1) cancels component 1 of the Witt trace of (a_0, 0)."""
    tower, pN = ext.tower, ext.p ** N
    elements = [tower.element(c) for c in
                itertools.product(range(tower.pN), repeat=tower.dim)]
    by_trace = {}
    for a in elements:
        by_trace.setdefault(ext.trace(a).coeffs, []).append(a)
    zero = tower.zero_ol
    out = set()
    for a0 in by_trace[zero.coeffs]:
        carry = witt_trace(WittVec(ext, (a0, zero)))[1]
        for a1 in by_trace.get((-carry).coeffs, ()):
            out.add(tuple(tuple(x % pN for x in c.coeffs) for c in (a0, a1)))
    return out


def span(vectors) -> set:
    """The subgroup that ``vectors`` generate, closed under Witt addition."""
    seen = {tuple(c.coeffs for c in v.components): v for v in vectors}
    frontier = list(seen.values())
    while frontier:
        grown = []
        for v in frontier:
            for g in vectors:
                s = witt_add(v, g)
                key = tuple(c.coeffs for c in s.components)
                if key not in seen:
                    seen[key] = s
                    grown.append(s)
        frontier = grown
    return set(seen)


@pytest.mark.parametrize("name,N,sizes", [
    ("sqrt2", 2, (16, 32, 64)), ("sqrt2", 3, (64, 128, 256)),
    ("gaussian", 2, (8, 16, 32)), ("gaussian", 3, (32, 64, 128))])
def test_span_lies_between_truncations_of_the_trace_zero_group(name, N, sizes):
    # T(N+2) mod p^N <= span <= T(N) for m = 1, and the span is all of T(N)
    # over the saturated kernel: every solution a_1 mod p^N of each a_0
    ext = build_extension(SPECS[name], precision=N)
    kernel = trace_kernel_saturated(ext, ext.tower.lift(N + 1))
    truncated = trace_zero_pairs(build_extension(SPECS[name], precision=N + 2), N)
    here = trace_zero_pairs(ext, N)
    spanned = span(generators(ext, 1))
    assert truncated <= spanned <= here
    assert spanned == {v for v in here if member(kernel, v[0])}
    assert (len(truncated), len(spanned), len(here)) == sizes


def test_draw_is_uniform_on_the_span():
    # chi-square over the 32 elements of the span on quadratic-sqrt2 at
    # N = 2, m = 1: 1,280 seeded draws, 31 degrees of freedom, 61.1 is the
    # 0.999 quantile
    ext = build_extension(SPECS["sqrt2"], precision=2)
    cells = span(generators(ext, 1))
    draws = Counter(tuple(c.coeffs for c in sample_trace_zero(ext, 1, seed=s))
                    for s in range(40 * len(cells)))
    assert set(draws) == cells
    chi2 = sum((n - 40) ** 2 / 40 for n in draws.values())
    assert chi2 < 61.1


def test_draw_is_uniform_where_the_exponent_exceeds_p_to_the_n():
    # on T1_SPEC at N = 2, m = 1 the span has exponent p^(N+1) and 2^16
    # elements.  A level-1 ghost coordinate mod p^(N+1) does not depend on the
    # lift, so it is a homomorphism of the span; on a coordinate where some
    # generator is odd, its image is Z/8.  800 draws, 7 degrees of freedom,
    # 24.3 is the 0.999 quantile
    ext = build_extension(T1_SPEC, precision=2)
    hi, ghosts = trace_zero_generators(ext, 1)
    c = next(c for c in range(ext.tower.dim) if any(g[1].coeffs[c] % 2 for g in ghosts))
    draws = Counter(_ghost(hi, sample_trace_zero(ext, 1, seed=s).components)[1].coeffs[c] % 8
                    for s in range(800))
    assert sorted(draws) == list(range(8))
    chi2 = sum((n - 100) ** 2 / 100 for n in draws.values())
    assert chi2 < 24.3


def test_draw_takes_its_coefficients_mod_the_exponent(monkeypatch):
    # uniformity is proved for coefficients mod p^(N+m), the exponent of
    # W_{m+1}(O_L/p^N).  The spans at hand have a smaller exponent, p^N or
    # p^(N+1), and coefficients mod p^N happen to draw them uniformly too (on
    # T1_SPEC at N = 2, m = 1 each of the 2^16 elements is hit by exactly 4
    # of the 4^9 coefficient vectors), so no distribution test can see a
    # smaller modulus there: this pins the modulus itself
    moduli = []
    draw = cohomology.random_from_basis

    def recording(basis, modulus, rng):
        moduli.append(modulus)
        return draw(basis, modulus, rng)

    monkeypatch.setattr(cohomology, "random_from_basis", recording)
    ext = build_extension(T1_SPEC, precision=6)
    for m in (0, 1, 2):
        sample_trace_zero(ext, m, seed=0)
    assert moduli == [2 ** 6, 2 ** 7, 2 ** 8]


@pytest.mark.parametrize("name,N,m", [
    ("gaussian", 48, 2), ("gaussian", 48, 3), ("sqrt2", 48, 3), ("t4", 48, 2),
    ("t4", 48, 3), ("cyclo3", 32, 2), ("cyclo3", 32, 3)])
def test_lifts_of_p_to_the_n_multiples_and_shifted_kernel_lie_in_the_span(name, N, m):
    # the level map is over Z/p^N, so the Witt multiples p^N (g_i, 0) of
    # the generators g_i of T_m and the V^m(k) of the saturated kernel rows
    # k are no generators of T_{m+1}; the module docstring shows that they
    # lie in the span all the same
    ext = build_extension(SPECS[name], precision=N)
    in_span = in_trace_zero_span(ext, m)
    zero = ext.tower.zero_ol
    for g in generators(ext, m - 1):
        assert in_span(multiply(WittVec(ext, g.components + (zero,)), N).components)
    for k in trace_kernel_saturated(ext, ext.tower.lift(N + 1)).rows:
        assert in_span((zero,) * m + (ext.tower.element(k),))
    # the test can fail: [1] is not trace-zero, tr(1) = p
    assert not in_span(teichmuller(ext, ext.tower.one_ol, m + 1).components)


@pytest.mark.parametrize("spec,N", [
    ({"kind": "cyclotomic-step", "p": 3}, 32), ({"kind": "quadratic-sqrt2"}, 48)])
def test_cascade_sees_margin_zero_on_the_draws(spec, N):
    # uniform draws concentrate on the generic valuations; the cascade
    # bound must still be met with equality on some of 200 draws at m = 2
    ext = build_extension(spec, precision=N)
    margins = Counter()
    for trial in range(200):
        vec = sample_trace_zero(ext, 2, seed=derive_seed(0, "cascade", trial))
        margins.update(rec.get("margin") for rec in _cascade_levels(vec))
    assert margins[0] > 0
    assert min(m for m in margins if m is not None) == 0
