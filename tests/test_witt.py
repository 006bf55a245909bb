"""Witt vector operations against the ghost map and the universal laws."""

import random

import pytest

from wittram.cohomology import _carry_target, sample_trace_zero
from wittram.errors import IntegralityError, LengthMismatch, VerificationError
from wittram.extensions import build_extension
from wittram.rings import Tower, valuation_L
from wittram.universal import carry_polynomial, sum_polynomials
from wittram.witt import (
    WittVec,
    _from_ghost,
    _ghost,
    evaluate_poly,
    extended,
    ghost_level,
    witt_add,
    witt_trace,
)

from oracles import (
    T4_SPEC,
    apply_sigma,
    conjugates,
    ghost_map,
    restrict,
    spec_id,
    teichmuller,
    uniform_element,
    verschiebung,
    witt_neg,
    witt_zero,
)


def rand_vec(ext, rng, length, shift=0):
    pi_shift = ext.tower.pi_L ** shift
    return WittVec(ext, tuple(uniform_element(ext, rng) * pi_shift
                              for _ in range(length)))


# -- addition ------------------------------------------------------------------


def test_disjoint_support_addition(sqrt2):
    rng = random.Random(1)
    t = sqrt2.tower
    for _ in range(20):
        a0 = uniform_element(sqrt2, rng)
        b1 = uniform_element(sqrt2, rng)
        a = WittVec(sqrt2, (a0, t.zero_ol))
        b = WittVec(sqrt2, (t.zero_ol, b1))
        assert witt_add(a, b).components == (a0, b1)


def test_one_plus_one_p2(sqrt2):
    t = sqrt2.tower
    one = teichmuller(sqrt2, t.one_ol, 2)
    s = witt_add(one, one)
    assert s.components == (t.ol_const(2), -t.one_ol)


def test_additive_identity(all_extensions):
    rng = random.Random(2)
    for ext in all_extensions:
        a = rand_vec(ext, rng, 3)
        assert witt_add(a, witt_zero(ext, 3)).components == a.components


def test_add_rejects_length_mismatch(sqrt2):
    rng = random.Random(3)
    with pytest.raises(LengthMismatch):
        witt_add(rand_vec(sqrt2, rng, 2), rand_vec(sqrt2, rng, 3))


# -- negation ------------------------------------------------------------------


def test_neg_of_teichmuller_one_p2(sqrt2):
    t = sqrt2.tower
    one = teichmuller(sqrt2, t.one_ol, 2)
    assert witt_neg(one).components == (-t.one_ol, -t.one_ol)


def test_neg_is_componentwise_for_odd_p(cyclo):
    rng = random.Random(4)
    for _ in range(10):
        a = rand_vec(cyclo, rng, 3)
        assert witt_neg(a).components == tuple(-c for c in a.components)


def test_neg_cancels(all_extensions):
    rng = random.Random(5)
    for ext in all_extensions:
        for _ in range(10):
            a = rand_vec(ext, rng, 3)
            assert witt_add(a, witt_neg(a)).is_zero


# -- teichmuller / verschiebung --------------------------------------------------


def test_teichmuller_zero(sqrt2):
    assert teichmuller(sqrt2, sqrt2.tower.zero_ol, 3).is_zero


def test_teichmuller_ghost_levels(all_extensions):
    rng = random.Random(6)
    for ext in all_extensions:
        x = uniform_element(ext, rng)
        g = ghost_map(teichmuller(ext, x, 3))
        for k in range(3):
            assert g[k] == x ** (ext.p ** k)


def test_teichmuller_of_uniformizer_valuation(sqrt2):
    v = teichmuller(sqrt2, sqrt2.tower.pi_L, 2)
    assert valuation_L(v[0]) == 1


def test_verschiebung_shifts_and_is_additive(all_extensions):
    rng = random.Random(7)
    for ext in all_extensions:
        a = rand_vec(ext, rng, 3)
        b = rand_vec(ext, rng, 3)
        va = verschiebung(a)
        assert va.components == (ext.tower.zero_ol,) + a.components[:-1]
        lhs = verschiebung(witt_add(a, b))
        rhs = witt_add(va, verschiebung(b))
        assert lhs.components == rhs.components


def test_verschiebung_ghost_relation(all_extensions):
    rng = random.Random(8)
    for ext in all_extensions:
        a = rand_vec(ext, rng, 3)
        g = ghost_map(a)
        gv = ghost_map(verschiebung(a))
        assert gv[0].is_zero
        for k in range(1, 3):
            assert gv[k] == ext.p * g[k - 1]


# -- galois action ----------------------------------------------------------------


def test_sigma_power_zero_is_identity(all_extensions):
    rng = random.Random(9)
    for ext in all_extensions:
        a = rand_vec(ext, rng, 2)
        assert apply_sigma(a, 0).components == a.components


def test_sigma_on_teichmuller_sqrt2(sqrt2):
    v = apply_sigma(teichmuller(sqrt2, sqrt2.tower.pi_L, 2), 1)
    assert v.components == teichmuller(sqrt2, -sqrt2.tower.pi_L, 2).components


def test_sigma_preserves_component_valuations(all_extensions):
    rng = random.Random(10)
    for ext in all_extensions:
        for _ in range(34):
            a = rand_vec(ext, rng, 2, shift=rng.randrange(3))
            for power in range(1, ext.p):
                s = apply_sigma(a, power)
                for x, y in zip(a.components, s.components):
                    assert valuation_L(x) == valuation_L(y)


# -- trace --------------------------------------------------------------------------


def test_trace_of_coboundary_vanishes(all_extensions):
    rng = random.Random(11)
    for ext in all_extensions:
        b = rand_vec(ext, rng, 2)
        d = witt_add(apply_sigma(b, 1), witt_neg(b))
        assert witt_trace(d).is_zero


def test_trace_component_zero_is_ring_trace(all_extensions):
    rng = random.Random(12)
    for ext in all_extensions:
        a = rand_vec(ext, rng, 2)
        assert witt_trace(a)[0] == ext.trace(a[0])


def test_trace_hand_example_sqrt2(sqrt2):
    t = sqrt2.tower
    v = WittVec(sqrt2, (t.pi_L, -t.one_ol))
    assert witt_trace(v).is_zero


def test_trace_invariant_under_sigma(all_extensions):
    rng = random.Random(13)
    for ext in all_extensions:
        a = rand_vec(ext, rng, 2)
        assert witt_trace(apply_sigma(a, 1)).components == witt_trace(a).components


def test_trace_carry_identity(all_extensions):
    # on any vector, minus component n of the Witt trace of
    # (a_0, ..., a_{n-1}, 0) equals sum_i sigma^i(a_n) minus the level-n
    # component of the Witt sum of the conjugates, and -f_n at
    # X_{i,j} = sigma^i(a_j); the direct evaluation of the carry polynomial
    # is the independent oracle
    rng = random.Random(14)
    for ext in all_extensions:
        for _ in range(8):
            a = rand_vec(ext, rng, 3, shift=1)
            total = witt_trace(a)
            conj = [conjugates(ext, c) for c in a.components]
            for n in range(1, 3):
                prefix = WittVec(ext, a.components[:n] + (ext.tower.zero_ol,))
                target = -witt_trace(prefix)[n]
                assert target == sum(conj[n]) - total[n]
                assign = {(i, j): conj[j][i] for i in range(ext.p) for j in range(n)}
                f_n = carry_polynomial(ext.p, n)
                assert target == -evaluate_poly(f_n, assign, ext)


@pytest.mark.parametrize("spec,levels", [
    ({"kind": "quadratic-gaussian"}, 3),
    ({"kind": "quadratic-sqrt2"}, 3),
    ({"kind": "cyclotomic-step", "p": 3}, 2),
    ({"kind": "cyclotomic-step", "p": 5}, 1),
    (T4_SPEC, 3),
], ids=spec_id)
def test_carry_target_on_trace_zero_prefixes(spec, levels):
    # for a trace-zero prefix the carry target, minus component n of the
    # Witt trace in the lift the vector keeps, equals both oracles of the
    # identity above, in the least lift to N+n and in the sampler's lift to
    # N+levels
    ext = build_extension(spec)
    for n in range(1, levels + 1):
        f_n = carry_polynomial(ext.p, n)
        for seed in range(3):
            prefix = sample_trace_zero(ext, n - 1, seed=seed).components
            full = WittVec(ext, prefix + (ext.tower.zero_ol,))
            conj = [conjugates(ext, c) for c in prefix]
            assign = {(i, j): conj[j][i] for i in range(ext.p) for j in range(n)}
            expected = -witt_trace(full)[n]
            assert expected == -evaluate_poly(f_n, assign, ext)
            assert expected.lies_in_K
            for hi in (ext.tower.lift(ext.N + n), ext.tower.lift(ext.N + levels)):
                vec = WittVec(ext, full.components)
                _ghost(hi, vec)
                assert _carry_target(vec) == expected.coeffs[:ext.e_K]
                assert vec.hi is hi


def test_carry_target_refuses_a_prefix_that_is_not_trace_zero(gaussian):
    # tr(1) = 2 != 0: the Witt trace of (1, 0, 0) is nonzero at levels 0
    # and 1, that of (0, 1, 0) at level 1 only
    one, zero = gaussian.tower.one_ol, gaussian.tower.zero_ol
    for prefix in ((one, zero), (zero, one)):
        vec = WittVec(gaussian, prefix + (zero,))
        trace = witt_trace(vec)
        assert [c.is_zero for c in trace.components[:2]] == [prefix[0] is zero, False]
        with pytest.raises(VerificationError, match="nonzero below level 2"):
            _carry_target(vec)


def test_witt_trace_takes_a_kept_lift_only_when_it_is_high_enough(all_extensions):
    # the trace of a vector of length m+1 reads the ghost vector the vector
    # keeps in a lift to N+m or above, else it takes the lift to N+m: either
    # way it is the trace of a fresh vector with the same components
    rng = random.Random(19)
    for ext in all_extensions:
        drawn = sample_trace_zero(ext, 0, seed=1)
        above, below = rand_vec(ext, rng, 3), rand_vec(ext, rng, 3)
        _ghost(ext.tower.lift(ext.N + 4), above)
        _ghost(ext.tower, below)
        assert drawn.hi.N > ext.N and below.hi.N < ext.N + 2
        for vec in (drawn, above, below):
            fresh = witt_trace(WittVec(ext, vec.components))
            assert witt_trace(vec).components == fresh.components
        assert not witt_trace(below).is_zero


# -- ghost map -----------------------------------------------------------------------


def test_ghost_of_zero(sqrt2):
    assert all(g.is_zero for g in ghost_map(witt_zero(sqrt2, 3)))


def test_ghost_closed_form_length_two(all_extensions):
    rng = random.Random(15)
    for ext in all_extensions:
        x = uniform_element(ext, rng)
        y = uniform_element(ext, rng)
        g = ghost_map(WittVec(ext, (x, y)))
        assert g[0] == x
        assert g[1] == x ** ext.p + ext.p * y


def test_ghost_additivity(all_extensions):
    rng = random.Random(16)
    for ext in all_extensions:
        for _ in range(25):
            a = rand_vec(ext, rng, 3)
            b = rand_vec(ext, rng, 3)
            gs = ghost_map(witt_add(a, b))
            ga, gb = ghost_map(a), ghost_map(b)
            assert all(s == x + y for s, x, y in zip(gs, ga, gb))


def test_ghost_level_extends_each_chain_only_as_far_as_needed(cyclo):
    # W_2 = a_0^(p^2) + p a_1^p + p^2 a_2 needs a_0's chain to length 3 and
    # a_1's to length 2; the zero a_1 is skipped, and a_3 is past level 2
    rng = random.Random(18)
    t, p = cyclo.tower, cyclo.p
    a = [uniform_element(cyclo, rng) for _ in range(4)]
    for a1, lengths in ((a[1], [3, 2, 1, 1]), (t.zero_ol, [3, 1, 1, 1])):
        comps = (a[0], a1, a[2], a[3])
        chains = [[c.coeffs] for c in comps]
        w = t.element(ghost_level(t, chains, 2))
        assert [len(chain) for chain in chains] == lengths
        assert w == a[0] ** (p * p) + p * a1 ** p + p * p * a[2]


def ghost_recover(ext, ghost_values):
    """Invert the ghost map level by level, dividing by p^k exactly.

    Valid modulo p^(N-k) at level k when every component has positive
    valuation; the divisibility of each numerator is asserted.
    """
    tower = ext.tower
    p = ext.p
    comps = []
    for k, w in enumerate(ghost_values):
        acc = w
        for i in range(k):
            acc = acc - p ** i * comps[i] ** (p ** (k - i))
        vec = acc.coeffs
        pk = p ** k
        assert all(v % pk == 0 for v in vec), "ghost numerator not divisible by p^k"
        comps.append(tower.element([v // pk for v in vec]))
    return comps


def test_ghost_recovery_matches_witt_add(all_extensions):
    # witt_add agrees with the unique vector whose ghost coordinates are the
    # summed ghost coordinates, up to the documented loss of k*e_L valuation
    # units at level k (components are kept in the maximal ideal).
    rng = random.Random(17)
    for ext in all_extensions:
        tower = ext.tower
        for _ in range(10):
            a = rand_vec(ext, rng, 3, shift=1)
            b = rand_vec(ext, rng, 3, shift=1)
            s = witt_add(a, b)
            summed = [x + y for x, y in zip(ghost_map(a), ghost_map(b))]
            recovered = ghost_recover(ext, summed)
            for k, (got, want) in enumerate(zip(recovered, s.components)):
                diff = (got - want).coeffs
                modulus = ext.p ** (ext.N - k)
                assert all(v % modulus == 0 for v in diff)


def test_ghost_recovery_rejects_non_ghost_vectors(all_extensions):
    # (0, 1) is no ghost vector: W_1 - z_0^p = 1 is not divisible by p
    for ext in all_extensions:
        t = ext.tower
        with pytest.raises(IntegralityError):
            _from_ghost(ext, t, [0] * t.dim + list(t.one_ol.coeffs))


@pytest.mark.parametrize("spec", [
    {"kind": "quadratic-gaussian"}, {"kind": "quadratic-sqrt2"},
    {"kind": "cyclotomic-step", "p": 3}, {"kind": "cyclotomic-step", "p": 5}], ids=spec_id)
def test_recovered_vectors_keep_their_ghost_and_chains(spec, monkeypatch):
    # a vector from ``_from_ghost`` (a Witt sum, and a trace-zero draw) keeps
    # the chains of its own components: the ghost vector summed from them
    # equals what a fresh vector with the same components computes, so the
    # Witt trace and W_n of (vec, 0) read off them are the fresh ones too.
    # The draw's certificate makes no product; ``extended`` makes none
    # either, and the first ghost read of (vec, 0) one p-th power per
    # nonzero component
    ext = build_extension(spec)
    rng = random.Random(23)
    zero, p = ext.tower.zero_ol, ext.p
    products = []
    flat_mul = Tower.flat_mul

    def counting(tower, x, y):
        products.append(1)
        return flat_mul(tower, x, y)

    for length in range(1, 6):
        drawn = sample_trace_zero(ext, length - 1, seed=length)
        summed = witt_add(rand_vec(ext, rng, length), rand_vec(ext, rng, length))
        for vec in (drawn, summed):
            products.clear()
            hi, D = vec.hi, vec.hi.dim
            fresh = WittVec(ext, vec.components)
            assert _ghost(hi, vec) == _ghost(hi, fresh)
            assert witt_trace(vec).components == witt_trace(fresh).components
            monkeypatch.setattr(Tower, "flat_mul", counting)
            if vec is drawn:
                assert witt_trace(vec).is_zero and not products
            products.clear()
            padded = extended(hi, vec, zero)
            assert not products
            w = _ghost(hi, padded)[length * D:]
            nonzero = sum(not c.is_zero for c in vec.components)
            assert len(products) == nonzero * (len(bin(p)) - 3 + bin(p)[3:].count("1"))
            monkeypatch.undo()
            assert w == _ghost(hi, WittVec(ext, vec.components + (zero,)))[length * D:]


# -- components that vanish mod p^N ----------------------------------------------------


def test_components_that_vanish_mod_pN_match_the_oracle(all_extensions):
    # each result has a component that is zero mod p^N but whose lift into
    # the lifted tower need not be, so ``_from_ghost`` skips its power chain; the
    # universal polynomials are the oracle
    rng = random.Random(22)
    for ext in all_extensions:
        p = ext.p
        sums, traces = sum_polynomials(p, 2, 2), sum_polynomials(p, 2, p)

        def direct(vecs, polys):
            assign = {(i, j): v[j] for i, v in enumerate(vecs) for j in range(3)}
            return tuple(evaluate_poly(z, assign, ext) for z in polys)

        for _ in range(6):
            a = rand_vec(ext, rng, 3)
            b = rand_vec(ext, rng, 3)
            # b_0 = -a_0 zeroes component 0 of the sum; component 1 is
            # b_1 plus terms in lower components, so b_1 can zero it too
            b = WittVec(ext, (-a[0],) + b.components[1:])
            b = WittVec(ext, (b[0], b[1] - witt_add(a, b)[1], b[2]))
            s = witt_add(a, b)
            assert s[0].is_zero and s[1].is_zero
            assert s.components == direct((a, b), sums)
            # component 1 of the negative is -a_1 plus terms in a_0
            c = WittVec(ext, (a[0], a[1] + witt_neg(a)[1], a[2]))
            n = witt_neg(c)
            assert n[1].is_zero
            assert all(z.is_zero for z in direct((c, n), sums))
            # sigma(x) - x has trace zero
            d = WittVec(ext, (ext.apply_sigma(a[0]) - a[0],) + a.components[1:])
            tr = witt_trace(d)
            assert tr[0].is_zero
            assert tr.components == direct([apply_sigma(d, i) for i in range(p)], traces)


# -- p-ary consistency -----------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2])
def test_p_ary_fold_matches_direct_evaluation(all_extensions, m):
    rng = random.Random(18 + m)
    for ext in all_extensions:
        p = ext.p
        zs = sum_polynomials(p, m, p)
        for _ in range(12):
            vecs = [rand_vec(ext, rng, m + 1) for _ in range(p)]
            folded = vecs[0]
            for v in vecs[1:]:
                folded = witt_add(folded, v)
            assign = {(i, j): vecs[i][j] for i in range(p) for j in range(m + 1)}
            direct = tuple(evaluate_poly(zs[n], assign, ext) for n in range(m + 1))
            assert folded.components == direct
            # the trace is the p-ary sum of the conjugates
            conj = [apply_sigma(vecs[0], i) for i in range(p)]
            assign = {(i, j): conj[i][j] for i in range(p) for j in range(m + 1)}
            direct = tuple(evaluate_poly(zs[n], assign, ext) for n in range(m + 1))
            assert witt_trace(vecs[0]).components == direct


# -- restriction -----------------------------------------------------------------------


def test_restrict_full_length_is_identity(sqrt2):
    rng = random.Random(19)
    a = rand_vec(sqrt2, rng, 3)
    assert restrict(a, 3).components == a.components


def test_restrict_hand_example(sqrt2):
    t = sqrt2.tower
    v = WittVec(sqrt2, (t.pi_L, -t.one_ol))
    assert restrict(v, 1).components == (t.pi_L,)


def test_restrict_commutes(all_extensions):
    rng = random.Random(20)
    for ext in all_extensions:
        a = rand_vec(ext, rng, 3)
        b = rand_vec(ext, rng, 3)
        assert (restrict(witt_add(a, b), 2).components
                == witt_add(restrict(a, 2), restrict(b, 2)).components)
        assert (restrict(apply_sigma(a, 1), 2).components
                == apply_sigma(restrict(a, 2), 1).components)
        assert (restrict(witt_trace(a), 2).components
                == witt_trace(restrict(a, 2)).components)


def test_restrict_rejects_bad_length(sqrt2):
    rng = random.Random(21)
    with pytest.raises(LengthMismatch):
        restrict(rand_vec(sqrt2, rng, 2), 3)
