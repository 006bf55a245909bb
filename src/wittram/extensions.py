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

``build_extension`` is the one place that refuses extension data: every
check of the data runs there, at the requested precision, so every command
and every suite set sees the same data accepted or refused.  The trace is
``Tower.trace_matrix``, from E_L alone; the conjugate sum and Hilbert's
formula, checked at build, tie sigma and t to it.
"""

from __future__ import annotations

import math

from .errors import ConfigError, InvalidExtension, SigmaNotARoot, SigmaWrongOrder
from .rings import OLElement, Tower, is_prime, matvec, valuation_L

BUILTIN_NAMES = ("quadratic-gaussian", "quadratic-sqrt2", "cyclotomic-step")
DEFAULT_PRECISION = 32
#: at most this many decimal digits in p^N: CPython's default int-to-str
#: limit, which every coordinate of a JSON report must stay under
MAX_MODULUS_DIGITS = 4300
#: the largest tower rank D = p * e_K built: cyclotomic-step up to p = 13
#: (D = 156).  On a 2-core host one elimination of sigma-1 takes about 1 s
#: at D = 156 and 6.7 s at D = 272 (p = 17), growing as D^3
MAX_RANK = 160
#: the largest D^2 * log10(p^N) built.  One elimination of sigma-1 grows as
#: D^3 times the cost of a product of digit-sized integers, which itself
#: grows with the digits; along D^2 * log10(p^N) = 10^6 it takes 0.5 to
#: 1.5 s on a 2-core host, from p = 5 at N = 3576 to p = 13 at N = 36
MAX_WORK = 10 ** 6


class ExtensionSpec:
    """Exact integer description of an extension, rebuildable at any precision.

    ``p = None`` means the kind's default (2 for the quadratic kinds, 3 for
    ``cyclotomic-step``; ``custom`` has none).  For ``kind="custom"`` the
    three coefficient fields are required and the built-ins take none:
    ``base_coeffs`` are the non-leading integer coefficients of E_K,
    ``top_coeffs`` the non-leading coefficients of E_L as O_K coordinate
    tuples, and ``sigma_pi`` the O_L coordinates (one O_K tuple per power of
    pi_L) of the Galois image of pi_L.
    """

    __slots__ = ("kind", "p", "precision", "base_coeffs", "top_coeffs", "sigma_pi")

    def __init__(self, kind: str, p: int = None, precision: int = DEFAULT_PRECISION,
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
    pi_L^i pi_K^j is sigma(pi_L)^i pi_K^j.  The trace is the tower's:
    ``tower.trace_matrix`` is the e_K x D matrix of tr: O_L -> O_K in the
    same convention, from E_L, and ``build_extension`` has checked that the
    conjugates of pi_L sum to its tr(pi_L).  Applying sigma and taking
    traces are matrix-vector products.

    sigma lives at the built precision N only; work above N (the ghost lift
    of Witt arithmetic, the saturated trace kernel) needs only the ring and
    its trace, and takes ``tower.lift``.  ``spec`` is the spec as given, at
    N.  Extensions compare and hash by identity, so the caches keyed on them
    (the operator matrices of ``cohomology``) cost one pointer hash per
    lookup, and every build gets its own entries.
    """

    def __init__(self, spec: ExtensionSpec, tower: Tower, sigma_pi: OLElement,
                 sigma: tuple, t: int):
        self.spec = spec
        self.tower = tower
        self.sigma_pi = sigma_pi
        self.sigma = sigma
        self.t = t

    @property
    def name(self) -> str:
        return self.spec.kind

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

    def apply_sigma(self, a: OLElement) -> OLElement:
        """sigma applied to an element of O_L."""
        return OLElement(self.tower, matvec(self.sigma, a.coeffs, self.tower.pN))

    def trace(self, a: OLElement) -> OLElement:
        """tr_{L/K}(a) = a + sigma(a) + ... + sigma^{p-1}(a) as an element of
        O_L lying in O_K."""
        tower = self.tower
        return tower.element(matvec(tower.trace_matrix, a.coeffs, tower.pN))

    def __repr__(self):
        return (f"ExtensionData({self.name}, p={self.p}, N={self.N}, "
                f"e_K={self.e_K}, t={self.t})")


def _materialize(spec: ExtensionSpec) -> tuple:
    """(p, base_coeffs, top_coeffs, sigma_pi) of ``spec``: the one place that
    knows which fields each kind reads and which p it allows.  The rank and
    the work are bounded before any coefficient is built."""
    kind, p = spec.kind, spec.p
    given = (spec.base_coeffs, spec.top_coeffs, spec.sigma_pi)
    if kind == "custom":
        if p is None or None in given:
            raise InvalidExtension("custom extension needs p and the "
                                   "coefficients of E_K, E_L and sigma_pi")
        if p < 2:
            raise InvalidExtension(f"kind 'custom' has no p = {p}")
        _check_cost(p, len(spec.base_coeffs), spec.precision)
        return (p,) + given
    if kind not in BUILTIN_NAMES:
        raise InvalidExtension(f"unknown extension kind {kind!r}")
    if given != (None, None, None):
        raise InvalidExtension(f"kind {kind!r} reads no coefficient field")
    if kind == "quadratic-gaussian" and p in (None, 2):
        return 2, (-2,), ((2,), (-2,)), ((2,), (-1,))
    if kind == "quadratic-sqrt2" and p in (None, 2):
        return 2, (-2,), ((-2,), (0,)), ((0,), (-1,))
    if kind != "cyclotomic-step":
        raise InvalidExtension(f"kind {kind!r} has no p = {p}")
    p = 3 if p is None else p
    if p == 2 or not is_prime(p):
        raise InvalidExtension(f"cyclotomic-step requires an odd prime, got {p}")
    _check_cost(p, p - 1, spec.precision)
    # E_K = ((y+1)^p - 1)/y, degree p-1; pi_K = zeta_p - 1
    base = tuple(math.comb(p, k) for k in range(1, p))
    # E_L = (x+1)^p - (1 + pi_K): constant term -pi_K, then binomials
    top = ((0, -1) + (0,) * (p - 3),) + tuple(
        (math.comb(p, k),) + (0,) * (p - 2) for k in range(1, p))
    # sigma(pi_L) = zeta_p (pi_L + 1) - 1 = pi_K + (1 + pi_K) pi_L
    return p, base, top, ((0, 1), (1, 1))


def _check_cost(p: int, e_K: int, N: int):
    """ConfigError when the tower rank D = p * e_K exceeds MAX_RANK, or the
    work D^2 * log10(p^N) exceeds MAX_WORK."""
    D = p * e_K
    if D > MAX_RANK:
        raise ConfigError(f"tower rank D = p*e_K = {p}*{e_K} = {D} "
                          f"exceeds the bound {MAX_RANK}")
    work = D * D * N * math.log10(p)
    if work > MAX_WORK:
        raise ConfigError(f"tower rank D = {D} at precision N = {N}: work "
                          f"D^2 * log10(p^N) = {work:.0f} exceeds the bound {MAX_WORK}")


def _check_hilbert(tower: Tower, t: int):
    """InvalidExtension unless Hilbert's formula v_L(E_L'(pi_L)) = (t+1)(p-1)
    holds: (E_L'(pi_L)) is the different of L/K, because O_L = O_K[pi_L]
    (Serre, *Local Fields*, ch. III §6 Cor. 2 and ch. IV §1 Prop. 4).  It
    implies tr(O_L) = p_K^d with d = floor((t+1)(p-1)/p) (ch. III §3).

    E_L'(pi_L) = sum_{0<i<p} i c_i pi_L^(i-1) + p pi_L^(p-1) is already in
    the monomial basis, block i-1 holding i c_i and block p-1 holding p, so
    no product is taken.  Its valuation is exact: E_K is Eisenstein only at
    N >= 2, where p is nonzero, so it is at most e_L + p - 1 < N e_L.  It is
    at least p, as E_L is Eisenstein, so the formula forces t >= 1.
    """
    p, e = tower.p, tower.e_K
    derivative = [i * c for i in range(1, p) for c in tower.E_L[i].coeffs[:e]] + [p]
    v = valuation_L(tower.element(derivative))
    if v != (t + 1) * (p - 1):
        raise InvalidExtension(
            f"v_L(E_L'(pi_L)) = {v} is not (t+1)(p-1) = {(t + 1) * (p - 1)} "
            f"for the ramification break t = {t}: Hilbert's formula fails")


def build_extension(spec, precision: int = None) -> ExtensionData:
    """Build and validate an extension from a spec or a built-in name.

    The one place that refuses extension data.  Checks, in order: the kind
    takes the spec's fields and p, the rank D = p * e_K is at most MAX_RANK
    and the work D^2 * log10(p^N) at most MAX_WORK (``_materialize``); p^N
    has at most MAX_MODULUS_DIGITS decimal digits (ConfigError otherwise);
    both moduli are Eisenstein (``Tower``); sigma_pi is a root of E_L;
    sigma does not fix pi_L and sigma^p does; the conjugates
    sigma^i(pi_L), i < p, sum to tr(pi_L) = -c_{p-1}; and the ramification
    break t = v_L(sigma(pi_L) - pi_L) - 1 satisfies Hilbert's formula
    (``_check_hilbert``), which also puts t >= 1.  t is exact: sigma does
    not fix pi_L, so the difference is nonzero at precision.
    """
    if isinstance(spec, str):
        spec = ExtensionSpec(kind=spec)
    if precision is not None:
        spec = spec.at_precision(precision)
    p, base_coeffs, top_coeffs, sigma_rows = _materialize(spec)
    N = spec.precision
    # p^N has floor(N log10 p) + 1 digits; p^N itself is never formed here
    if N * math.log10(p) >= MAX_MODULUS_DIGITS:
        raise ConfigError(
            f"precision N = {N} is too large: p^N = {p}^{N} has more than "
            f"{MAX_MODULUS_DIGITS} decimal digits")

    tower = Tower(p, N, base_coeffs, top_coeffs)
    sigma_pi = tower.from_rows(sigma_rows)

    root = tower.one_ol  # E_L(sigma_pi) by Horner; the leading 1 is implicit
    for c in reversed(tower.E_L):
        root = root * sigma_pi + c
    if not root.is_zero:
        raise SigmaNotARoot("sigma(pi_L) is not a root of E_L at precision")

    powers = [tower.one_ol]
    for _ in range(p - 1):
        powers.append(powers[-1] * sigma_pi)
    sigma = tower.ok_linear_matrix([x.coeffs for x in powers])
    orbit = [tower.pi_L.coeffs]
    for _ in range(p):
        orbit.append(matvec(sigma, orbit[-1], tower.pN))
    if orbit[1] == orbit[0]:
        raise SigmaWrongOrder("sigma fixes pi_L; the action is trivial")
    if orbit[p] != orbit[0]:
        raise SigmaWrongOrder("sigma^p does not fix pi_L at precision")
    # the conjugates of pi_L are the p roots of E_L
    conjugate_sum = tuple(sum(c) % tower.pN for c in zip(*orbit[:p]))
    if conjugate_sum != (-tower.E_L[-1]).coeffs:
        raise InvalidExtension("the conjugates of pi_L do not sum to tr(pi_L) "
                               "= -c_{p-1} at precision: sigma is not a Galois action")

    t = valuation_L(sigma_pi - tower.pi_L) - 1
    _check_hilbert(tower, t)

    return ExtensionData(spec=spec, tower=tower, sigma_pi=sigma_pi, sigma=sigma,
                         t=t)


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
    as decimal strings.  A document that is not JSON, holds a field outside
    these seven, an ``e_K`` other than the length of ``E_K`` or a value of
    the wrong shape raises InvalidExtension here; a field or ``p`` its kind
    does not take raises it when the spec is built.
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
    unknown = set(doc) - {"kind", "p", "precision", "e_K", "E_K", "E_L", "sigma_pi"}
    if unknown:
        raise InvalidExtension(
            f"spec file {path}: no spec reads field {', '.join(sorted(unknown))}")
    base = _parse_int_list(doc["E_K"]) if "E_K" in doc else None
    if "e_K" in doc and (base is None or _parse_int(doc["e_K"]) != len(base)):
        raise InvalidExtension(f"spec file {path}: e_K is not the length of E_K")
    top, sigma = (tuple(_parse_int_list(row) for row in doc[k]) if k in doc else None
                  for k in ("E_L", "sigma_pi"))
    return ExtensionSpec(doc["kind"], _parse_int(doc["p"]) if "p" in doc else None,
                         _parse_int(doc.get("precision", DEFAULT_PRECISION)),
                         base, top, sigma)


def resolve_extension(name_or_path: str, precision: int = None) -> ExtensionData:
    """Build a built-in extension by name, or a custom one from a spec file."""
    if name_or_path in BUILTIN_NAMES:
        return build_extension(name_or_path, precision=precision)
    return build_extension(load_spec_file(name_or_path), precision=precision)
