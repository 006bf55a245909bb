"""Construction of totally ramified cyclic degree-p towers with Galois action.

An extension is described by exact integer data: the non-leading
coefficients of the two Eisenstein moduli plus the coordinates of the
Galois image sigma(pi_L), so the same extension can be rebuilt at any
precision.  Three constructions ship built in:

* ``quadratic-gaussian``   p = 2, K = Q_2, E_L = x^2 - 2x + 2 (pi_L = 1+i),
                           sigma(pi_L) = 2 - pi_L; ramification break t = 1.
* ``quadratic-sqrt2``      p = 2, K = Q_2, E_L = x^2 - 2,
                           sigma(pi_L) = -pi_L; t = 2.
* ``cyclotomic-step``      odd p, K = Q_p(zeta_p) via E_K = ((y+1)^p - 1)/y,
                           L = K(zeta_{p^2}) with pi_L = zeta_{p^2} - 1 and
                           sigma(zeta_{p^2}) = zeta_{p^2}^{1+p}; t = p - 1.

sigma is determined by its value on pi_L, extended as the O_K-algebra
endomorphism x -> sigma_pi, and kept as a matrix over Z/p^N in the flat
monomial basis of the tower; custom extensions must supply sigma_pi
explicitly (conjugate roots of an Eisenstein polynomial are p-adically too
close for naive root-finding to separate them reliably).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .errors import (
    ConfigError,
    InvalidExtension,
    PrecisionExhausted,
    SigmaNotARoot,
    SigmaWrongOrder,
    VerificationError,
    WittramError,
)
from .rings import OLElement, Tower, is_prime, matvec, valuation_L

BUILTIN_NAMES = ("quadratic-gaussian", "quadratic-sqrt2", "cyclotomic-step")
DEFAULT_PRECISION = 32
#: at most this many decimal digits in p^N: CPython's default int-to-str
#: limit, which every coordinate of a JSON report must stay under
MAX_MODULUS_DIGITS = 4300


class ExtensionSpec:
    """Exact integer description of an extension, rebuildable at any precision.

    For ``kind="custom"`` the three coefficient fields are required:
    ``base_coeffs`` are the non-leading integer coefficients of E_K,
    ``top_coeffs`` the non-leading coefficients of E_L as O_K coordinate
    tuples, and ``sigma_pi`` the O_L coordinates (one O_K tuple per power of
    pi_L) of the Galois image of pi_L.
    """

    __slots__ = ("kind", "p", "precision", "base_coeffs", "top_coeffs", "sigma_pi")

    def __init__(self, kind: str, p: int = 0, precision: int = DEFAULT_PRECISION,
                 base_coeffs: tuple = None, top_coeffs: tuple = None,
                 sigma_pi: tuple = None):
        self.kind = kind
        self.p = p
        self.precision = precision
        self.base_coeffs = base_coeffs
        self.top_coeffs = top_coeffs
        self.sigma_pi = sigma_pi

    def at_precision(self, precision: int) -> "ExtensionSpec":
        """The same extension at another precision."""
        return ExtensionSpec(self.kind, self.p, precision, self.base_coeffs,
                             self.top_coeffs, self.sigma_pi)


class ExtensionData:
    """A validated extension: tower, Galois action, and ramification break.

    ``sigma`` is the matrix of sigma over Z/p^N in the flat monomial basis,
    stored as a tuple of D rows (D = p*e_K) in column convention: column c
    is sigma applied to monomial c.  sigma fixes O_K, so the column of
    pi_L^i pi_K^j is sigma(pi_L)^i pi_K^j.  Applying sigma, listing
    conjugates and taking traces are all matrix-vector products; the trace
    matrix itself comes from E_L (``trace_matrix``).

    Extensions compare and hash by identity, so the caches keyed on them
    (``_twin`` and the operator matrices of ``cohomology``) cost one
    pointer hash per lookup, and every build gets its own entries.
    """

    def __init__(self, spec: ExtensionSpec, name: str, tower: Tower,
                 sigma_pi: OLElement, sigma: tuple, t: int):
        self.spec = spec
        self.name = name
        self.tower = tower
        self.sigma_pi = sigma_pi
        self.sigma = sigma
        self.t = t

    @property
    def p(self) -> int:
        return self.tower.p

    @property
    def N(self) -> int:
        return self.tower.N

    @property
    def e_K(self) -> int:
        return self.tower.e_K

    @property
    def e_L(self) -> int:
        return self.tower.e_L

    @cached_property
    def trace_matrix(self) -> tuple:
        """tr_{L/K} = 1 + sigma + ... + sigma^{p-1} as a matrix like ``sigma``.

        The trace is O_K-linear, so only s_i = tr(pi_L^i), i < p, is needed.
        The conjugates of pi_L are the roots of E_L = x^p + c_{p-1} x^{p-1} +
        ... + c_0, so by Newton's identities s_i is their i-th power sum:
        s_0 = p and s_i = -i c_{p-i} - sum_{0<j<i} c_{p-j} s_{i-j}, products
        in O_K.  The values lie in O_K, so rows e_K ... D-1 are zero
        whatever sigma is; sigma is cross-checked instead: the sum of the
        sigma^i(pi_L), i < p, must be s_1, else VerificationError (sigma is
        then no automorphism of L/K).
        """
        tower, p = self.tower, self.p
        c = tower.E_L
        sums = [tower.ol_const(p)]
        for i in range(1, p):
            s_i = c[p - i] * -i
            for j in range(1, i):
                s_i -= c[p - j] * sums[i - j]
            sums.append(s_i)
        if sum(self.conjugates(tower.pi_L)) != sums[1]:
            raise VerificationError(
                f"the trace leaves O_K at N={self.N}: sigma is not a Galois action")
        return _ok_linear_matrix(tower, sums)

    def apply_sigma(self, a: OLElement, power: int = 1) -> OLElement:
        """sigma^power applied to an element of O_L."""
        coeffs = a.coeffs
        for _ in range(power % self.p):
            coeffs = matvec(self.sigma, coeffs, self.tower.pN)
        return OLElement(self.tower, coeffs)

    def conjugates(self, a: OLElement) -> tuple:
        out = [a]
        for _ in range(1, self.p):
            out.append(self.apply_sigma(out[-1]))
        return tuple(out)

    def trace(self, a: OLElement) -> OLElement:
        """tr_{L/K}(a) = a + sigma(a) + ... + sigma^{p-1}(a), from the O_K
        rows of the trace matrix (the others are zero)."""
        tower, e = self.tower, self.e_K
        return OLElement(tower, matvec(self.trace_matrix[:e], a.coeffs, tower.pN)
                         + (0,) * (tower.dim - e))

    def with_precision(self, precision: int) -> "ExtensionData":
        return build_extension(self.spec.at_precision(precision))

    def __repr__(self):
        return (f"ExtensionData({self.name}, p={self.p}, N={self.N}, "
                f"e_K={self.e_K}, t={self.t})")


@lru_cache(maxsize=64)
def _twin(ext: ExtensionData, precision: int) -> ExtensionData:
    """``ext`` rebuilt at ``precision``, built once per pair: the saturated
    kernels and the ghost lift of Witt arithmetic both work in it.  At its
    own precision ``ext`` is its twin.  A rebuild that fails is a
    ConfigError naming the requested and the working precision."""
    if precision == ext.N:
        return ext
    try:
        return ext.with_precision(precision)
    except WittramError as exc:
        raise ConfigError(
            f"precision N = {ext.N} needs working precision {precision}, "
            f"which fails: {exc}") from exc


def _ok_linear_matrix(tower: Tower, images) -> tuple:
    """Rows of the O_K-linear map sending pi_L^i to images[i], i < p.

    Column i*e_K + j is images[i] * pi_K^j.
    """
    cols = []
    for x in images:
        col = x.coeffs
        for _ in range(tower.e_K):
            cols.append(col)
            col = tower._times_pi_K(col)
    return tuple(zip(*cols))


def _materialize(spec: ExtensionSpec) -> ExtensionSpec:
    """Fill in the exact integer data for the built-in kinds."""
    kind = spec.kind
    if kind == "quadratic-gaussian":
        return ExtensionSpec(kind, 2, spec.precision, (-2,), ((2,), (-2,)),
                             ((2,), (-1,)))
    if kind == "quadratic-sqrt2":
        return ExtensionSpec(kind, 2, spec.precision, (-2,), ((-2,), (0,)),
                             ((0,), (-1,)))
    if kind == "cyclotomic-step":
        p = spec.p or 3
        if p == 2 or not is_prime(p):
            raise InvalidExtension(f"cyclotomic-step requires an odd prime, got {p}")
        # E_K = ((y+1)^p - 1)/y, degree p-1; pi_K = zeta_p - 1
        base = tuple(math.comb(p, k) for k in range(1, p))
        # E_L = (x+1)^p - (1 + pi_K): constant term -pi_K, then binomials
        zero_k = (0,) * (p - 1)
        minus_pi_k = (0, -1) + (0,) * (p - 3)
        top = [minus_pi_k]
        for k in range(1, p):
            top.append((math.comb(p, k),) + zero_k[1:])
        # sigma(pi_L) = zeta_p (pi_L + 1) - 1 = pi_K + (1 + pi_K) pi_L
        sigma_pi = ((0, 1), (1, 1))
        return ExtensionSpec(kind, p, spec.precision, base, tuple(top), sigma_pi)
    if kind == "custom":
        if spec.base_coeffs is None or spec.top_coeffs is None or spec.sigma_pi is None:
            raise InvalidExtension(
                "custom extension needs base_coeffs, top_coeffs and sigma_pi"
            )
        if not spec.p:
            raise InvalidExtension("custom extension needs the prime p")
        return spec
    raise InvalidExtension(f"unknown extension kind {kind!r}")


def build_extension(spec, precision: int = None) -> ExtensionData:
    """Build and validate an extension from a spec or a built-in name.

    Checks, in order: p^N has at most MAX_MODULUS_DIGITS decimal digits
    (ConfigError otherwise), both moduli are Eisenstein, sigma_pi is a root
    of the top modulus, the induced endomorphism has order exactly p, and the
    ramification break t = v_L(sigma(pi_L) - pi_L) - 1 resolves exactly
    below the precision horizon with t >= 1 (wild ramification).
    """
    if isinstance(spec, str):
        spec = ExtensionSpec(kind=spec)
    if precision is not None:
        spec = spec.at_precision(precision)
    name = spec.kind
    spec = _materialize(spec)
    # p^N has floor(N log10 p) + 1 digits; p^N itself is never formed here
    if spec.p > 1 and spec.precision * math.log10(spec.p) >= MAX_MODULUS_DIGITS:
        raise ConfigError(
            f"precision N = {spec.precision} is too large: p^N = "
            f"{spec.p}^{spec.precision} has more than {MAX_MODULUS_DIGITS} "
            f"decimal digits")

    tower = Tower(spec.p, spec.precision, spec.base_coeffs, spec.top_coeffs)
    p = tower.p
    sigma_pi = tower.from_rows(spec.sigma_pi)

    root = tower.one_ol  # E_L(sigma_pi) by Horner; the leading 1 is implicit
    for c in reversed(tower.E_L):
        root = root * sigma_pi + c
    if not root.is_zero:
        raise SigmaNotARoot("sigma(pi_L) is not a root of E_L at precision")

    powers = [tower.one_ol]
    for _ in range(p - 1):
        powers.append(powers[-1] * sigma_pi)
    sigma = _ok_linear_matrix(tower, powers)
    orbit = [tower.pi_L.coeffs]
    for _ in range(p):
        orbit.append(matvec(sigma, orbit[-1], tower.pN))
    if orbit[1] == orbit[0]:
        raise SigmaWrongOrder("sigma fixes pi_L; the action is trivial")
    if orbit[p] != orbit[0]:
        raise SigmaWrongOrder("sigma^p does not fix pi_L at precision")

    diff = sigma_pi - tower.pi_L
    v = valuation_L(diff)
    if not v.is_exact:
        raise PrecisionExhausted(
            "v_L(sigma(pi_L) - pi_L) is not resolvable below the horizon"
        )
    t = v.value - 1
    if t < 1:
        raise InvalidExtension(f"ramification break t = {t} violates t >= 1")

    return ExtensionData(spec=spec, name=name, tower=tower, sigma_pi=sigma_pi,
                         sigma=sigma, t=t)


# -- extension spec files ---------------------------------------------------


def _parse_int(value) -> int:
    # integers may arrive as decimal strings to sidestep word-size limits
    if isinstance(value, bool):
        raise InvalidExtension("booleans are not valid integers in spec files")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value.strip(), 10)
    raise InvalidExtension(f"expected an integer or decimal string, got {value!r}")


def _parse_int_list(values) -> tuple:
    return tuple(_parse_int(v) for v in values)


def load_spec_file(path) -> ExtensionSpec:
    """Load an extension spec from a JSON document.

    Required field: ``kind``.  Optional: ``p``, ``precision``.  For
    ``kind="custom"``: ``e_K``, ``E_K`` (list of integers, low to high,
    without the leading 1), ``E_L`` (list of O_K coordinate lists) and
    ``sigma_pi`` (list of O_K coordinate lists).  Integers may be written
    as decimal strings.  A document that is not JSON, or lacks a field, or
    holds a value of the wrong shape raises InvalidExtension.
    """
    import json  # only spec files need it

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _spec_from_document(json.load(fh), path)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidExtension(
                f"malformed spec file {path}: {type(exc).__name__}: {exc}") from exc


def _spec_from_document(doc, path) -> ExtensionSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidExtension(f"spec file {path} lacks a 'kind' field")
    kind = doc["kind"]
    p = _parse_int(doc.get("p", 0))
    precision = _parse_int(doc.get("precision", DEFAULT_PRECISION))
    if kind != "custom":
        return ExtensionSpec(kind=kind, p=p, precision=precision)
    base = _parse_int_list(doc["E_K"])
    if "e_K" in doc and _parse_int(doc["e_K"]) != len(base):
        raise InvalidExtension("e_K does not match the length of E_K")
    top = tuple(_parse_int_list(row) for row in doc["E_L"])
    sigma = tuple(_parse_int_list(row) for row in doc["sigma_pi"])
    return ExtensionSpec(kind="custom", p=p, precision=precision,
                         base_coeffs=base, top_coeffs=top, sigma_pi=sigma)


def resolve_extension(name_or_path: str, precision: int = None) -> ExtensionData:
    """Build a built-in extension by name, or a custom one from a spec file."""
    if name_or_path in BUILTIN_NAMES:
        return build_extension(name_or_path, precision=precision)
    return build_extension(load_spec_file(name_or_path), precision=precision)
