"""Extension construction, ramification breaks, and the conjugate-product basis."""

import json
import random

import pytest

from wittram.errors import (
    ConfigError,
    InvalidExtension,
    NotEisenstein,
    PrecisionExhausted,
    SigmaNotARoot,
    SigmaWrongOrder,
)
from wittram.extensions import (
    BUILTIN_NAMES,
    MAX_RANK,
    MAX_WORK,
    ExtensionSpec,
    _check_hilbert,
    build_extension,
    load_spec_file,
    resolve_extension,
)
from wittram.rings import valuation_L

from oracles import conjugates, ramification_break, sigma_basis


# -- built-ins -------------------------------------------------------------------


def test_gaussian_break(gaussian):
    # sigma(pi) - pi = 2 - 2*pi has valuation 2
    diff = gaussian.sigma_pi - gaussian.tower.pi_L
    assert valuation_L(diff) == 2
    assert gaussian.t == 1


def test_sqrt2_break(sqrt2):
    diff = sqrt2.sigma_pi - sqrt2.tower.pi_L
    assert valuation_L(diff) == 3
    assert sqrt2.t == 2


#: K = Q_2(sqrt 2), L = K(sqrt pi_K), sigma(pi_L) = -pi_L: break t = 4
T4_SPEC = ExtensionSpec("custom", p=2, base_coeffs=(-2, 0),
                        top_coeffs=((0, -1), (0, 0)), sigma_pi=((0, 0), (-1, 0)))

NEWTON_CASES = [(ExtensionSpec(kind), 32) for kind in BUILTIN_NAMES] + [
    (ExtensionSpec("cyclotomic-step", p=5), 32),
    (ExtensionSpec("cyclotomic-step", p=7), 32),
    (T4_SPEC, 48),
]


@pytest.mark.parametrize("spec,precision,margin", [
    (spec, N, margin) for spec, N in NEWTON_CASES for margin in (0, 4)],
    ids=lambda v: f"{v.kind}{v.p or ''}" if isinstance(v, ExtensionSpec) else None)
def test_newton_trace_matrix_is_the_sum_of_the_conjugates(spec, precision, margin):
    # oracle: column c is sum_i sigma^i of the c-th basis monomial, by
    # matrix-vector products with sigma; each sum vanishes outside O_K
    ext = build_extension(spec, precision=precision + margin)
    tower = ext.tower
    columns = []
    for c in range(tower.dim):
        unit = tower.element((0,) * c + (1,))
        total = sum(conjugates(ext, unit))
        assert total.lies_in_K
        columns.append(total.coeffs[:ext.e_K])
    assert tower.trace_matrix == tuple(zip(*columns))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclotomic_sigma_is_the_binomial_power(p):
    # sigma(zeta_{p^2}) = zeta_{p^2}^(p+1), with zeta_{p^2} = pi_L + 1
    ext = build_extension(ExtensionSpec("cyclotomic-step", p=p))
    one = ext.tower.one_ol
    assert ext.sigma_pi == (ext.tower.pi_L + one) ** (p + 1) - one


def test_cyclotomic_invariants(cyclo):
    assert (cyclo.p, cyclo.e_K, cyclo.e_L, cyclo.t) == (3, 2, 6, 2)
    # sigma(pi) - pi = zeta_9 * (zeta_3 - 1) has valuation 3
    diff = cyclo.sigma_pi - cyclo.tower.pi_L
    t = cyclo.tower
    zeta9 = t.pi_L + t.one_ol
    assert diff == zeta9 * t.pi_K
    assert valuation_L(diff) == 3


def test_generator_independence(cyclo, sqrt2, gaussian):
    for ext in (cyclo, sqrt2, gaussian):
        for g in range(1, ext.p):
            assert ramification_break(ext, g) == ext.t


def test_sigma_fixes_base_field(cyclo):
    # sigma restricted to O_K is the identity
    a = cyclo.tower.pi_K
    assert cyclo.apply_sigma(a) == a


def test_sigma_has_order_p(all_extensions):
    for ext in all_extensions:
        pi = ext.tower.pi_L
        x = pi
        for _ in range(ext.p):
            x = ext.apply_sigma(x)
        assert x == pi
        assert ext.apply_sigma(pi) != pi


# -- custom route ------------------------------------------------------------------


def test_custom_matches_builtin():
    spec = ExtensionSpec(kind="custom", p=2, precision=32,
                         base_coeffs=(-2,), top_coeffs=((-2,), (0,)),
                         sigma_pi=((0,), (-1,)))
    ext = build_extension(spec)
    ref = build_extension("quadratic-sqrt2")
    assert ext.t == ref.t == 2
    assert ext.sigma_pi.coeffs == ref.sigma_pi.coeffs


def test_custom_not_eisenstein():
    spec = ExtensionSpec(kind="custom", p=2, precision=16,
                         base_coeffs=(-2,), top_coeffs=((-3,), (0,)),
                         sigma_pi=((0,), (-1,)))
    with pytest.raises(NotEisenstein):
        build_extension(spec)


def test_custom_sigma_not_a_root():
    spec = ExtensionSpec(kind="custom", p=2, precision=16,
                         base_coeffs=(-2,), top_coeffs=((-2,), (0,)),
                         sigma_pi=((1,), (1,)))  # 1 + pi is no conjugate
    with pytest.raises(SigmaNotARoot):
        build_extension(spec)


def test_custom_sigma_trivial_order():
    spec = ExtensionSpec(kind="custom", p=2, precision=16,
                         base_coeffs=(-2,), top_coeffs=((-2,), (0,)),
                         sigma_pi=((0,), (1,)))  # sigma = identity
    with pytest.raises(SigmaWrongOrder):
        build_extension(spec)


def test_custom_sigma_whose_conjugates_miss_the_trace():
    # at N = 3, sigma(pi_L) = 3 pi_L is a root of x^2 - 2 (9*2 - 2 = 16) and
    # sigma^2 fixes pi_L (9 = 1 mod 8), and t = v_L(2 pi_L) - 1 = 2 meets
    # Hilbert's formula; but pi_L + 3 pi_L = 4 pi_L is not tr(pi_L) = 0
    spec = ExtensionSpec(kind="custom", p=2, precision=3,
                         base_coeffs=(-2,), top_coeffs=((-2,), (0,)),
                         sigma_pi=((0,), (3,)))
    with pytest.raises(InvalidExtension, match="conjugates of pi_L do not sum"):
        build_extension(spec)


def test_hilbert_formula_refuses_a_break_off_by_one():
    # v_L(E_L'(pi_L)) = (t+1)(p-1) pins t: the true break passes, and t - 1
    # and t + 1 are refused on every built-in and the t=4 spec
    refused = 0
    for spec in [ExtensionSpec(kind) for kind in BUILTIN_NAMES] + [T4_SPEC]:
        ext = build_extension(spec, precision=48)
        _check_hilbert(ext.tower, ext.t)
        for t in (ext.t - 1, ext.t + 1):
            with pytest.raises(InvalidExtension, match="Hilbert's formula fails"):
                _check_hilbert(ext.tower, t)
            refused += 1
    assert refused == 8


@pytest.mark.parametrize("spec,precisions,t", [
    (ExtensionSpec("quadratic-gaussian"), range(2, 41), 1),
    (ExtensionSpec("quadratic-sqrt2"), range(2, 41), 2),
    (ExtensionSpec("cyclotomic-step", p=3), (2, 3, 32), 2),
    (ExtensionSpec("cyclotomic-step", p=5), (2, 3, 32), 4),
    (ExtensionSpec("cyclotomic-step", p=7), (2, 3, 32), 6),
    (T4_SPEC, (3, 4, 48, 52), 4),
], ids=["gaussian", "sqrt2", "cyclotomic3", "cyclotomic5", "cyclotomic7", "t4"])
def test_hilbert_formula_holds_at_every_precision(spec, precisions, t):
    # every build checks the formula against the break its sigma gives,
    # down to the least precision E_K is Eisenstein at
    assert {build_extension(spec, precision=N).t for N in precisions} == {t}


def test_unknown_kind_rejected():
    with pytest.raises(InvalidExtension):
        build_extension("quadratic-sqrt3")


def test_precision_too_small():
    with pytest.raises(PrecisionExhausted):
        build_extension("quadratic-gaussian", precision=1)


def test_rebuild_at_higher_precision(sqrt2):
    hi = sqrt2.tower.lift(40)
    assert build_extension(sqrt2.spec, 40).t == sqrt2.t
    assert hi.N == 40
    assert hi.pN == 2 ** 40


# -- one rule site: a spec made in code is checked as a spec file is ---------------

SQRT2_DATA = dict(base_coeffs=(-2,), top_coeffs=((-2,), (0,)), sigma_pi=((0,), (-1,)))

#: specs that ask for another extension than their kind builds, among them
#: the per-kind documents of ``tests/test_cli.py::BAD_SPECS`` made in code
REFUSED_SPECS = {
    "gaussian-at-p5": (ExtensionSpec("quadratic-gaussian", p=5), "has no p = 5"),
    "cyclotomic-at-p0": (ExtensionSpec("cyclotomic-step", p=0), "odd prime, got 0"),
    "cyclotomic-with-base_coeffs": (
        ExtensionSpec("cyclotomic-step", p=3, base_coeffs=(1,)), "reads no coefficient"),
    "sqrt2-with-sigma_pi": (
        ExtensionSpec("quadratic-sqrt2", sigma_pi=((1,), (1,))), "reads no coefficient"),
    "sqrt2-at-p3": (ExtensionSpec("quadratic-sqrt2", p=3), "has no p = 3"),
    "cyclotomic-at-p1": (ExtensionSpec("cyclotomic-step", p=1), "odd prime, got 1"),
    "sqrt2-with-E_K": (
        ExtensionSpec("quadratic-sqrt2", base_coeffs=(3,)), "reads no coefficient"),
    "custom-at-p0": (ExtensionSpec("custom", p=0, **SQRT2_DATA), "has no p = 0"),
    "custom-without-p": (ExtensionSpec("custom", **SQRT2_DATA), "needs p"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_SPECS))
def test_spec_made_in_code_is_refused_like_its_document(case):
    spec, message = REFUSED_SPECS[case]
    with pytest.raises(InvalidExtension, match=message):
        build_extension(spec)


@pytest.mark.parametrize("spec", [ExtensionSpec("quadratic-gaussian", p=2),
                                  ExtensionSpec("cyclotomic-step"),
                                  ExtensionSpec("custom", p=2, **SQRT2_DATA)],
                         ids=lambda spec: spec.kind)
def test_an_omitted_or_allowed_p_builds_what_the_spec_names(spec):
    ext = build_extension(spec)
    assert ext.name == spec.kind
    assert ext.p == (3 if spec.kind == "cyclotomic-step" else 2)
    assert ext.spec.p == spec.p and ext.spec.base_coeffs == spec.base_coeffs


def _sqrt_pi_K_spec(e_K):
    """K = Q_2(2^(1/e_K)), L = K(sqrt pi_K), sigma(pi_L) = -pi_L: rank 2 e_K."""
    return ExtensionSpec("custom", p=2, base_coeffs=(-2,) + (0,) * (e_K - 1),
                         top_coeffs=((0, -1), (0,)), sigma_pi=((0,), (-1,)))


def test_rank_bound_refuses_above_it_and_builds_up_to_it():
    # cyclotomic-step builds up to p = 13 (D = 156) and a custom tower at
    # D = MAX_RANK exactly; one more power of pi_K, or the next prime, is
    # refused by the rank rule
    assert build_extension(ExtensionSpec("cyclotomic-step", p=13)).tower.dim == 156
    assert build_extension(_sqrt_pi_K_spec(MAX_RANK // 2)).tower.dim == MAX_RANK
    for spec, rank in ((ExtensionSpec("cyclotomic-step", p=17), "17\\*16 = 272"),
                       (_sqrt_pi_K_spec(MAX_RANK // 2 + 1), f"2\\*{MAX_RANK // 2 + 1}")):
        message = f"D = p\\*e_K = {rank}.* bound {MAX_RANK}"
        with pytest.raises(ConfigError, match=message):
            build_extension(spec)


@pytest.mark.parametrize("spec,largest", [
    (ExtensionSpec("cyclotomic-step", p=13), 36),
    (_sqrt_pi_K_spec(MAX_RANK // 2), 129),
], ids=["cyclotomic-p13", "custom-rank-160"])
def test_work_bound_refuses_one_above_the_largest_precision(spec, largest):
    # D^2 * log10(p^N) <= MAX_WORK: the two largest ranks build at N = 32
    # and up to N = ``largest``, and are refused one precision above it
    assert build_extension(spec, precision=largest).N == largest
    message = f"work D\\^2 \\* log10\\(p\\^N\\) = .* exceeds the bound {MAX_WORK}"
    with pytest.raises(ConfigError, match=message):
        build_extension(spec, precision=largest + 1)


@pytest.mark.parametrize("spec", [T4_SPEC, ExtensionSpec("cyclotomic-step", p=5),
                                  ExtensionSpec("quadratic-sqrt2")],
                         ids=lambda spec: spec.kind)
def test_twin_of_a_spec_made_in_code_is_a_fresh_build(spec):
    # the lifted tower is the ring of a fresh build at the same precision:
    # the same trace and the same products
    ext = build_extension(spec, precision=32)
    lifted = ext.tower.lift(34)
    fresh = build_extension(spec, precision=34)
    assert (lifted.N, lifted.pN, lifted.dim) == (34, fresh.tower.pN, fresh.tower.dim)
    assert lifted.trace_matrix == fresh.tower.trace_matrix
    rng = random.Random(34)
    for _ in range(5):
        x, y = ([rng.randrange(lifted.pN) for _ in range(lifted.dim)] for _ in range(2))
        assert lifted.flat_mul(x, y) == fresh.tower.flat_mul(x, y)
        assert lifted.flat_mul(x, x) == fresh.tower.flat_mul(x, x)
    assert fresh.t == ext.t


# -- conjugate-product basis ---------------------------------------------------------


def test_sigma_basis_start(sqrt2):
    basis = sigma_basis(sqrt2)
    t = sqrt2.tower
    assert basis.elements[0] == t.one_ol
    assert basis.elements[1] == t.pi_L
    assert valuation_L(basis.elements[0]) == 0
    assert valuation_L(basis.elements[1]) == 1


def test_sigma_basis_difference_valuation_sqrt2(sqrt2):
    basis = sigma_basis(sqrt2)
    x1 = basis.elements[1]
    d = sqrt2.apply_sigma(x1) - x1
    assert d == -2 * sqrt2.tower.pi_L
    assert valuation_L(d) == sqrt2.t + 1


def test_sigma_basis_valuation_pattern(all_extensions):
    for ext in all_extensions:
        basis = sigma_basis(ext)
        for mu, x in enumerate(basis.elements):
            assert valuation_L(x) == mu
        for mu in range(1, ext.p):
            d = ext.apply_sigma(basis.elements[mu]) - basis.elements[mu]
            assert valuation_L(d) == ext.t + mu


def test_sigma_basis_twist_relation(all_extensions):
    # pi_L * sigma(x_mu) = x_mu * sigma^mu(pi_L), exactly at precision
    for ext in all_extensions:
        basis = sigma_basis(ext)
        pi = ext.tower.pi_L
        for mu in range(1, ext.p):
            x = basis.elements[mu]
            assert pi * ext.apply_sigma(x) == x * conjugates(ext, pi)[mu]


def test_sigma_basis_spans(all_extensions):
    # the change-of-basis matrix from the monomial basis is invertible
    from wittram.linalg import howell_form
    for ext in all_extensions:
        dim = ext.tower.dim
        identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        basis = sigma_basis(ext)
        rows = []
        for mu in range(ext.p):
            for j in range(ext.e_K):
                rows.append((basis.elements[mu] * ext.tower.pi_K ** j).coeffs)
        hb = howell_form(rows, ext.p, ext.N, dim)
        assert hb.rows == identity


# -- spec files ------------------------------------------------------------------------


def test_load_spec_file_roundtrip(tmp_path):
    doc = {
        "kind": "custom",
        "p": 2,
        "precision": 24,
        "e_K": 1,
        "E_K": ["-2"],
        "E_L": [["-2"], ["0"]],
        "sigma_pi": [["0"], ["-1"]],
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    spec = load_spec_file(path)
    assert spec.precision == 24
    ext = build_extension(spec)
    assert ext.t == 2
    assert ext.N == 24


def test_load_builtin_kind_from_file(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"kind": "cyclotomic-step", "p": 3}),
                    encoding="utf-8")
    ext = resolve_extension(str(path))
    assert ext.t == 2


def test_resolve_builtin_by_name():
    ext = resolve_extension("quadratic-gaussian", precision=20)
    assert ext.N == 20 and ext.t == 1


def test_spec_file_rejects_mismatched_degree(tmp_path):
    doc = {"kind": "custom", "p": 2, "e_K": 2, "E_K": ["-2"],
           "E_L": [["-2"], ["0"]], "sigma_pi": [["0"], ["-1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvalidExtension):
        load_spec_file(path)
