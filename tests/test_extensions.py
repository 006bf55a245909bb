"""Extension construction, ramification breaks, and the conjugate-product basis."""

import json

import pytest

from wittram.errors import (
    InvalidExtension,
    NotEisenstein,
    PrecisionExhausted,
    SigmaNotARoot,
    SigmaWrongOrder,
    VerificationError,
)
from wittram.extensions import (
    BUILTIN_NAMES,
    ExtensionData,
    ExtensionSpec,
    build_extension,
    load_spec_file,
    resolve_extension,
)
from wittram.rings import Valuation, valuation_L

from oracles import ramification_break, sigma_basis


# -- built-ins -------------------------------------------------------------------


def test_gaussian_break(gaussian):
    # sigma(pi) - pi = 2 - 2*pi has valuation 2
    diff = gaussian.sigma_pi - gaussian.tower.pi_L
    assert valuation_L(diff) == Valuation.exact(2)
    assert gaussian.t == 1


def test_sqrt2_break(sqrt2):
    diff = sqrt2.sigma_pi - sqrt2.tower.pi_L
    assert valuation_L(diff) == Valuation.exact(3)
    assert sqrt2.t == 2


def test_trace_matrix_refuses_a_trace_outside_o_k(sqrt2):
    # with sigma corrupted to the identity, tr(pi_L) = 2 pi_L leaves O_K
    dim = sqrt2.tower.dim
    identity = tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
    corrupted = ExtensionData(sqrt2.spec, sqrt2.name, sqrt2.tower, sqrt2.sigma_pi,
                              identity, sqrt2.t)
    with pytest.raises(VerificationError, match="the trace leaves O_K"):
        corrupted.trace_matrix


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
    # matrix-vector products with sigma
    ext = build_extension(spec, precision=precision + margin)
    tower = ext.tower
    columns = []
    for c in range(tower.dim):
        unit = tower.element((0,) * c + (1,))
        columns.append(sum(ext.conjugates(unit)).coeffs)
    assert ext.trace_matrix == tuple(zip(*columns))


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
    assert valuation_L(diff) == Valuation.exact(3)


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


def test_unknown_kind_rejected():
    with pytest.raises(InvalidExtension):
        build_extension("quadratic-sqrt3")


def test_precision_too_small():
    with pytest.raises(PrecisionExhausted):
        build_extension("quadratic-gaussian", precision=1)


def test_rebuild_at_higher_precision(sqrt2):
    hi = sqrt2.with_precision(40)
    assert hi.t == sqrt2.t
    assert hi.N == 40
    assert hi.tower.pN == 2 ** 40


# -- conjugate-product basis ---------------------------------------------------------


def test_sigma_basis_start(sqrt2):
    basis = sigma_basis(sqrt2)
    t = sqrt2.tower
    assert basis.elements[0] == t.one_ol
    assert basis.elements[1] == t.pi_L
    assert valuation_L(basis.elements[0]) == Valuation.exact(0)
    assert valuation_L(basis.elements[1]) == Valuation.exact(1)


def test_sigma_basis_difference_valuation_sqrt2(sqrt2):
    basis = sigma_basis(sqrt2)
    x1 = basis.elements[1]
    d = sqrt2.apply_sigma(x1) - x1
    assert d == -2 * sqrt2.tower.pi_L
    assert valuation_L(d) == Valuation.exact(sqrt2.t + 1)


def test_sigma_basis_valuation_pattern(all_extensions):
    for ext in all_extensions:
        basis = sigma_basis(ext)
        for mu, x in enumerate(basis.elements):
            assert valuation_L(x) == Valuation.exact(mu)
        for mu in range(1, ext.p):
            d = ext.apply_sigma(basis.elements[mu]) - basis.elements[mu]
            assert valuation_L(d) == Valuation.exact(ext.t + mu)


def test_sigma_basis_twist_relation(all_extensions):
    # pi_L * sigma(x_mu) = x_mu * sigma^mu(pi_L), exactly at precision
    for ext in all_extensions:
        basis = sigma_basis(ext)
        pi = ext.tower.pi_L
        for mu in range(1, ext.p):
            x = basis.elements[mu]
            assert pi * ext.apply_sigma(x) == x * ext.apply_sigma(pi, mu)


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
