"""Witt vector operations against the ghost map and the universal laws."""

import random

import pytest

from wittram.cohomology import _carry_target, sample_trace_zero
from wittram.errors import IntegralityError, LengthMismatch, VerificationError
from wittram.extensions import ExtensionSpec, build_extension
from wittram.rings import valuation_L
from wittram.universal import carry_polynomial, sum_polynomials
from wittram.witt import (
    WittVec,
    _from_ghost,
    evaluate_poly,
    frobenius_chain,
    ghost_level,
    witt_add,
    witt_trace,
)

from oracles import (
    apply_sigma,
    conjugates,
    ghost_map,
    restrict,
    teichmuller,
    uniform_element,
    verschiebung,
    witt_neg,
    witt_zero,
)
from test_cohomology import T4_SPEC


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
    (ExtensionSpec("quadratic-gaussian"), 3),
    (ExtensionSpec("quadratic-sqrt2"), 3),
    (ExtensionSpec("cyclotomic-step", p=3), 2),
    (ExtensionSpec("cyclotomic-step", p=5), 1),
    (T4_SPEC, 3),
], ids=lambda v: f"{v.kind}{v.p or ''}" if isinstance(v, ExtensionSpec) else None)
def test_carry_target_on_trace_zero_prefixes(spec, levels):
    # for a trace-zero prefix the carry target read off the one ghost level
    # W_n equals both oracles of the identity above, in the least lift to
    # N+n and in the sampler's lift to N+levels
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
                chains = [frobenius_chain(hi, c) for c in prefix]
                assert _carry_target(ext, hi, chains, n) == expected.coeffs[:ext.e_K]


def test_carry_target_refuses_a_prefix_that_is_not_trace_zero(gaussian):
    # tr(1) = 2 != 0, and W_2 of (1, 0) is 1, whose trace 2 is not
    # divisible by p^2 = 4
    hi = gaussian.tower.lift(gaussian.N + 2)
    t = gaussian.tower
    chains = [frobenius_chain(hi, t.one_ol), frobenius_chain(hi, t.zero_ol)]
    with pytest.raises(VerificationError, match="level 2 is not divisible by p"):
        _carry_target(gaussian, hi, chains, 2)


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
        chains = [frobenius_chain(t, c) for c in comps]
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
            _from_ghost(ext, t, [t.zero_ol, t.one_ol])


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
