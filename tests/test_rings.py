"""Tower arithmetic and valuations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittram.cohomology import random_element
from wittram.errors import InvalidExtension
from wittram.extensions import build_extension, is_prime
from wittram.rings import (
    Tower,
    padic_val,
    valuation_K,
    valuation_L,
)

from oracles import T4_SPEC, conjugates, times_pi_L, uniform_element


def random_shifted(ext, rng, shift):
    return uniform_element(ext, rng) * ext.tower.pi_L ** shift


# -- primality -----------------------------------------------------------------


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert ([n for n in range(-3, 20000) if is_prime(n)]
            == [n for n in range(-3, 20000) if _trial_division(n)])


def test_is_prime_on_large_numbers():
    assert is_prime(2 ** 32 - 5)  # the largest prime below the cap
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(65521 ** 2)  # the square of the largest 16-bit prime
    assert not is_prime(2 ** 32 - 1)
    # from the cap 2^32 on, refuse rather than divide up to the square root
    for n in (2 ** 32, 2 ** 61 - 1, 2 ** 89 - 1):
        with pytest.raises(InvalidExtension, match=f"cannot certify that p = {n} is prime"):
            is_prime(n)


# -- tower reduction ---------------------------------------------------------


def test_reduce_square_of_uniformizer_sqrt2(sqrt2):
    t = sqrt2.tower
    # x^2 -> 2 under E_L = x^2 - 2
    assert t.pi_L ** 2 == t.ol_const(2)
    assert t.from_rows([[0], [0], [1]]) == t.ol_const(2)


def test_reduce_square_of_uniformizer_gaussian(gaussian):
    t = gaussian.tower
    # x^2 -> 2x - 2 under E_L = x^2 - 2x + 2
    assert t.pi_L ** 2 == 2 * t.pi_L - t.ol_const(2)
    assert t.from_rows([[0], [0], [1]]) == 2 * t.pi_L - t.ol_const(2)


def test_reduce_constant_is_identity(sqrt2):
    t = sqrt2.tower
    assert t.from_rows([[5]]) == t.ol_const(5)
    # an O_K row past e_K = 1 is reduced by E_K = y - 2: 5 + 0*pi_K = 5
    assert t.from_rows([[5, 0]]) == t.ol_const(5)


def test_element_refuses_more_coordinates_than_the_rank(sqrt2):
    t = sqrt2.tower
    assert t.element((1, 2)).coeffs == (1, 2)
    with pytest.raises(ValueError, match="3 coordinates exceed the rank 2"):
        t.element((1, 2, 3))


def test_rejects_elements_of_foreign_tower(sqrt2, gaussian):
    with pytest.raises(ValueError):
        sqrt2.tower.pi_L + gaussian.tower.pi_L
    with pytest.raises(ValueError):
        sqrt2.tower.pi_L * gaussian.tower.pi_L


# -- products ----------------------------------------------------------------


@pytest.mark.parametrize("kind,p", [("quadratic-gaussian", 2), ("quadratic-sqrt2", 2),
                                    ("cyclotomic-step", 3), ("cyclotomic-step", 5),
                                    ("cyclotomic-step", 7)])
def test_structure_constants_oracle(kind, p):
    ext = build_extension({"kind": kind, "p": p})
    t = ext.tower
    # both moduli vanish at their uniformizers (leading coefficients are 1)
    pi_K = t.from_rows([[0, 1]])
    e_k = sum((c * pi_K ** j for j, c in enumerate(t.E_K)), pi_K ** t.e_K)
    e_l = sum((c * t.pi_L ** j for j, c in enumerate(t.E_L)), t.pi_L ** t.p)
    assert e_k.is_zero and e_l.is_zero
    rng = random.Random(29)
    for _ in range(10):
        _axiom_checks(*(uniform_element(ext, rng) for _ in range(3)))
    for _ in range(10):
        a = random_element(ext, rng)
        assert ext.trace(a) == sum(conjugates(ext, a))
    # sigma^p is the identity matrix
    power = ext.sigma
    for _ in range(ext.p - 1):
        power = tuple(tuple(sum(x * y for x, y in zip(row, col)) % t.pN
                            for col in zip(*ext.sigma)) for row in power)
    assert power == tuple(tuple(int(r == c) for c in range(t.dim)) for r in range(t.dim))


@pytest.mark.parametrize("kind,p", [("quadratic-gaussian", 2), ("cyclotomic-step", 3),
                                    ("cyclotomic-step", 7)])
def test_ok_linear_matrix_shifts_each_image_e_K_minus_1_times(monkeypatch, kind, p):
    t = build_extension({"kind": kind, "p": p}).tower
    rng = random.Random(p)
    images = [tuple(rng.randrange(t.pN) for _ in range(t.dim)) for _ in range(t.p)]
    shifts = []
    times_pi_K = Tower._times_pi_K
    monkeypatch.setattr(Tower, "_times_pi_K",
                        lambda self, vec: shifts.append(vec) or times_pi_K(self, vec))
    columns = list(zip(*t.ok_linear_matrix(images)))
    # the last multiple pi_K^(e_K - 1) of each image is not shifted again
    assert len(shifts) == t.p * (t.e_K - 1)
    monkeypatch.undo()
    pi_K = t.from_rows([[0, 1]])
    for i, image in enumerate(images):
        for j in range(t.e_K):
            assert columns[i * t.e_K + j] == (t.element(image) * pi_K ** j).coeffs


def shift_and_reduce(t, x, y):
    """x * y as the sum of x_ij * (y * pi_K^j * pi_L^i), built from the
    one-step shifts alone: the tower's pi_K shift and the oracle's pi_L
    shift."""
    acc = [0] * t.dim
    row = list(y)  # y * pi_L^i
    for i in range(t.p):
        vec = row  # y * pi_L^i * pi_K^j
        for j in range(t.e_K):
            c = x[i * t.e_K + j]
            if c:
                acc = [(a + c * b) % t.pN for a, b in zip(acc, vec)]
            vec = t._times_pi_K(vec)
        row = times_pi_L(t, row)
    return acc


@pytest.mark.parametrize("kind,p", [("quadratic-gaussian", 2), ("quadratic-sqrt2", 2),
                                    ("cyclotomic-step", 3), ("cyclotomic-step", 5),
                                    ("cyclotomic-step", 7)])
@pytest.mark.parametrize("extra", [0, 2])
def test_flat_mul_matches_shift_and_reduce(kind, p, extra):
    base = build_extension({"kind": kind, "p": p})
    _assert_flat_mul_matches_oracle(base.tower.lift(base.N + extra))


def _assert_flat_mul_matches_oracle(t):
    rng = random.Random(31)
    dense = [[rng.randrange(t.pN) for _ in range(t.dim)] for _ in range(3)]
    top = [t.pN - 1] * t.dim
    zero = [0] * t.dim
    # sparse inputs: each basis monomial pi_L^i pi_K^j with a random scalar,
    # and pi_L^k for k < D (sparse below p, reduced into dense vectors above)
    monomials = [[rng.randrange(1, t.pN) if b == a else 0 for b in range(t.dim)]
                 for a in range(t.dim)]
    powers = [list(t.pi_L_power(k).coeffs) for k in range(t.dim)]
    inputs = dense + [top, zero]
    pairs = [(x, y) for x in inputs for y in inputs]
    pairs += [(u, dense[0]) for u in monomials] + [(top, u) for u in monomials]
    pairs += [(u, dense[1]) for u in powers] + [(top, u) for u in powers]
    pairs += [(rng.choice(monomials), rng.choice(powers)) for _ in range(10)]
    for x, y in pairs:
        assert t.flat_mul(tuple(x), tuple(y)) == shift_and_reduce(t, x, y)


def _unit(rng, p, pN):
    return rng.randrange(pN // p) * p + rng.randrange(1, p)


def dense_tower(p, e_K, zero_ks, seed, N=10):
    """A tower with random Eisenstein moduli: every E_L[k] but those in
    ``zero_ks`` has all e_K of its O_K coordinates nonzero, so pi_L^p
    reaches several columns from each one."""
    rng = random.Random(seed)
    pN = p ** N
    base = [p * rng.randrange(1, pN // p) for _ in range(e_K)]
    base[0] = p * _unit(rng, p, pN // p)
    top = [[p * rng.randrange(1, pN // p)] + [rng.randrange(1, pN) for _ in range(e_K - 1)]
           for _ in range(p)]
    for k in zero_ks:
        top[k] = [0] * e_K
    # the constant term needs v_K = 1: a unit on pi_K, or p times a unit
    if e_K == 1:
        top[0] = [p * _unit(rng, p, pN // p)]
    else:
        top[0][1] = _unit(rng, p, pN)
    return Tower(p, N, base, top)


@pytest.mark.parametrize("p,e_K,zero_ks", [(2, 1, ()), (2, 3, (1,)), (2, 4, ()),
                                           (3, 2, (2,)), (3, 4, (1,)), (5, 1, (2, 3)),
                                           (5, 3, (1, 4)), (5, 4, ())])
def test_staged_fold_matches_shift_and_reduce_on_dense_towers(p, e_K, zero_ks):
    t = dense_tower(p, e_K, zero_ks, seed=100 * p + e_K)
    # every slot outside the basis is folded exactly once
    width = 2 * e_K - 1
    outside = set(range((2 * p - 1) * width)) - set(t._slot)
    assert sorted(s for s, _ in t._fold) == sorted(outside)
    _assert_flat_mul_matches_oracle(t)


@pytest.mark.parametrize("N", [32, 48])
def test_staged_fold_matches_shift_and_reduce_on_t4_spec(N):
    # t = 4: K = Q_2(sqrt 2), L = K(sqrt pi_K); E_L = x^2 - pi_K folds pi_L^2
    # into the pi_K column, so rows fold into the overflow columns of lower rows
    ext = build_extension(T4_SPEC, precision=N)
    assert ext.t == 4
    _assert_flat_mul_matches_oracle(ext.tower)


@pytest.mark.parametrize("kind,p,entries", [("quadratic-gaussian", 2, 2),
                                            ("quadratic-sqrt2", 2, 1),
                                            ("cyclotomic-step", 3, 22),
                                            ("cyclotomic-step", 5, 188),
                                            ("cyclotomic-step", 7, 642)])
def test_staged_fold_entry_counts(kind, p, entries):
    # the fold's cost per product, pinned without timing
    t = build_extension({"kind": kind, "p": p}).tower
    assert sum(len(targets) for _, targets in t._fold) == entries


@pytest.mark.parametrize("kind,p", [("quadratic-gaussian", 2), ("quadratic-sqrt2", 2),
                                    ("cyclotomic-step", 3), ("cyclotomic-step", 5),
                                    ("cyclotomic-step", 7)])
def test_pi_L_power_table_matches_repeated_squaring(kind, p):
    t = build_extension({"kind": kind, "p": p}).tower
    # every shift random_element draws, from a table built by products
    # with pi_L, against square-and-multiply and the oracle's pi_L shifts
    shifted = list(t.one_ol.coeffs)
    for k in range(2 * t.e_L):
        assert t.pi_L_power(k) == t.pi_L ** k
        assert list(t.pi_L_power(k).coeffs) == shifted
        shifted = times_pi_L(t, shifted)


# -- valuations ---------------------------------------------------------------


def test_valuation_of_uniformizer(sqrt2):
    assert valuation_L(sqrt2.tower.pi_L) == 1


def test_valuation_of_p(sqrt2):
    assert valuation_L(sqrt2.tower.ol_const(2)) == 2


def test_valuation_of_zero_at_precision():
    ext = build_extension("quadratic-sqrt2", precision=8)
    assert valuation_L(ext.tower.zero_ol) == ext.tower.horizon_L == 16


def test_valuation_of_pi_k_in_cyclotomic_tower(cyclo):
    # oracle: pi_K = zeta_3 - 1 = (pi_L + 1)^3 - 1 computed in the tower
    t = cyclo.tower
    oracle = (t.pi_L + t.one_ol) ** 3 - t.one_ol
    assert oracle == t.from_rows([[0, 1]])
    assert valuation_L(oracle) == 3


def test_embedded_ok_valuation_divisible_by_p(cyclo):
    rng = random.Random(11)
    t = cyclo.tower
    for _ in range(50):
        a = t.element([rng.randrange(t.pN) for _ in range(t.e_K)])
        v = valuation_L(a)
        if v < t.horizon_L:
            assert v % cyclo.p == 0
            # independent oracle: K-normalized, read off the O_K coordinates
            direct = min(t.e_K * padic_val(c, t.p) + j
                         for j, c in enumerate(a.coeffs) if c)
            assert valuation_K(a) == v // cyclo.p == direct


def test_valuation_multiplicative(all_extensions):
    rng = random.Random(7)
    for ext in all_extensions:
        for _ in range(40):
            a = random_shifted(ext, rng, rng.randrange(3))
            b = random_shifted(ext, rng, rng.randrange(3))
            va, vb, vab = valuation_L(a), valuation_L(b), valuation_L(a * b)
            if va + vb < ext.tower.horizon_L:
                assert vab == va + vb


def test_valuation_ultrametric(all_extensions):
    rng = random.Random(13)
    for ext in all_extensions:
        for _ in range(40):
            a = random_shifted(ext, rng, rng.randrange(4))
            b = random_shifted(ext, rng, rng.randrange(4))
            va, vb, vs = valuation_L(a), valuation_L(b), valuation_L(a + b)
            if max(va, vb) == ext.tower.horizon_L:
                continue
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)


# -- ring axioms (property-based) ---------------------------------------------


@st.composite
def ol_elements(draw, ext):
    t = ext.tower
    coords = draw(st.lists(st.integers(min_value=0, max_value=t.pN - 1),
                           min_size=t.dim, max_size=t.dim))
    return t.element(coords)


def _axiom_checks(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == a.tower.zero_ol
    assert a * a.tower.one_ol == a


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms_sqrt2(sqrt2, data):
    _axiom_checks(data.draw(ol_elements(sqrt2)),
                  data.draw(ol_elements(sqrt2)),
                  data.draw(ol_elements(sqrt2)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms_cyclotomic(cyclo, data):
    _axiom_checks(data.draw(ol_elements(cyclo)),
                  data.draw(ol_elements(cyclo)),
                  data.draw(ol_elements(cyclo)))


def test_canonical_form_shapes(all_extensions):
    rng = random.Random(3)
    for ext in all_extensions:
        t = ext.tower
        a = uniform_element(ext, rng) * uniform_element(ext, rng)
        assert len(a.coeffs) == t.dim
        assert all(0 <= c < t.pN for c in a.coeffs)


# -- mixed-unit valuation bridge -----------------------------------------------


SMALL_PRECISION = [("quadratic-gaussian", 2, 2), ("quadratic-sqrt2", 2, 3),
                   ("cyclotomic-step", 3, 2), ("cyclotomic-step", 5, 2)]


@pytest.mark.parametrize("kind,p,N", SMALL_PRECISION)
def test_valuations_below_the_horizon_are_exactly_the_nonzero_elements(kind, p, N):
    # the int encoding rests on this: v_L < horizon_L iff the element is
    # nonzero at precision, and v_K = v_L // p on O_K, horizon_K at zero
    ext = build_extension({"kind": kind, "p": p}, precision=N)
    t = ext.tower
    rng = random.Random(17)
    top = ext.p ** (N - 1)  # the least nonzero power of p at precision
    samples = [t.zero_ol, t.ol_const(top)]
    samples += [t.pi_L_power(k) for k in range(t.horizon_L - 3, t.horizon_L + 2)]
    pi_K = t.from_rows([[0, 1]])
    samples += [pi_K ** j for j in range(t.horizon_K - 2, t.horizon_K + 2)]
    for _ in range(40):
        a = uniform_element(ext, rng) * t.pi_L_power(rng.randrange(t.horizon_L + 1))
        samples += [a, a * top, t.element(a.coeffs[:t.e_K]) * top]
    for a in samples:
        v = valuation_L(a)
        assert (v < t.horizon_L) == (not a.is_zero)
        assert v <= t.horizon_L
        if a.lies_in_K:
            assert valuation_K(a) == v // ext.p
            assert (valuation_K(a) == t.horizon_K) == a.is_zero
    assert valuation_L(t.pi_L_power(t.horizon_L - 1)) == t.horizon_L - 1


def test_vk_of_embedded_matches_vl(sqrt2):
    t = sqrt2.tower
    two = t.ol_const(2)
    assert valuation_K(two) == 1
    assert valuation_L(two) == 2
    assert valuation_K(t.zero_ol) == t.horizon_K == sqrt2.N * sqrt2.e_K
    with pytest.raises(ValueError):
        valuation_K(t.pi_L)


# -- squares and signed fold scalars -------------------------------------------


@pytest.mark.parametrize("which", ["gaussian", "cyclo", "cyclo7"])
def test_square_equals_the_general_product(request, which):
    # D = 2, 6 and 42: a square (the same tuple twice) takes the pair-once
    # path, two equal but distinct tuples the general one
    t = request.getfixturevalue(which).tower
    rng = random.Random(7)
    inputs = [tuple(rng.randrange(t.pN) for _ in range(t.dim)) for _ in range(4)]
    inputs += [(t.pN - 1,) * t.dim, (0,) * t.dim, t.pi_L.coeffs,
               t.pi_L_power(t.dim - 1).coeffs,
               tuple(rng.randrange(t.pN) if k % 3 else 0 for k in range(t.dim))]
    for x in inputs:
        copy = tuple(list(x))
        assert copy is not x
        assert t.flat_mul(x, x) == t.flat_mul(x, copy) == shift_and_reduce(t, x, x)


def _unsigned_fold(t):
    """The staged fold with every scalar in [0, p^N): the fold as
    ``Tower._build_slots`` stored it before the scalars were signed."""
    p, e = t.p, t.e_K
    width = 2 * e - 1
    ok_powers = []
    vec = [0] * (e - 1) + [1]
    for _ in range(e, width):
        vec = t._times_pi_K(vec)
        ok_powers.append(tuple((l, c) for l, c in enumerate(vec) if c))
    top = times_pi_L(t, [int(n == (p - 1) * e) for n in range(t.dim)])  # pi_L^p
    drops = [((n // e - p) * width + n % e, c) for n, c in enumerate(top) if c]
    fold = []
    for i in reversed(range(2 * p - 1)):
        base = i * width
        for j, powers in enumerate(ok_powers, e):
            fold.append((base + j, tuple((base + l, c) for l, c in powers)))
        if i >= p:
            for l in range(e):
                fold.append((base + l, tuple((base + l + d, c) for d, c in drops)))
    return fold


@pytest.mark.parametrize("which", ["gaussian", "sqrt2", "cyclo", "cyclo7", "t4",
                                   "dense"])
def test_fold_scalars_are_signed_least_residues(request, which):
    if which == "t4":
        t = build_extension(T4_SPEC, precision=48).tower
    elif which == "dense":
        t = dense_tower(5, 3, (1, 4), seed=503)
    else:
        t = request.getfixturevalue(which).tower
    old = _unsigned_fold(t)
    assert [(s, [sk for sk, _ in vec]) for s, vec in t._fold] == \
        [(s, [sk for sk, _ in vec]) for s, vec in old]
    for (_, vec), (_, old_vec) in zip(t._fold, old):
        for (_, v), (_, u) in zip(vec, old_vec):
            assert (v - u) % t.pN == 0
            assert 2 * abs(v) <= t.pN
