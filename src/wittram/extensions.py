"""Construction of totally ramified cyclic degree-p towers with Galois action.

An extension is described by a spec, one JSON-shaped dict in spec files
and in code: a kind and, for ``custom``, the exact integer coefficients of
the two Eisenstein moduli and of the Galois image sigma(pi_L), so the same
extension can be rebuilt at any precision.  Three constructions ship built in:

* ``quadratic-gaussian``   p = 2, K = Q_2, E_L = x^2 - 2x + 2 (pi_L = 1+i),
                           sigma(pi_L) = 2 - pi_L; ramification break t = 1.
* ``quadratic-sqrt2``      p = 2, K = Q_2, E_L = x^2 - 2,
                           sigma(pi_L) = -pi_L; t = 2.
* ``cyclotomic-step``      odd p, K = Q_p(zeta_p) via E_K = ((y+1)^p - 1)/y,
                           L = K(zeta_{p^2}) with pi_L = zeta_{p^2} - 1 and
                           sigma(zeta_{p^2}) = zeta_{p^2}^{1+p}; t = p - 1.
                           It is ``kummer-step`` at f = 1, radicand unit.

The spec kind ``kummer-step`` takes p, f >= 1 and a radicand: K = Q_p(varpi)
with E_K = Phi_p(y^f + 1), so e_K = f(p-1) and zeta_p = 1 + varpi^f, and
L = K(beta) with beta^p = 1 + varpi (``unit``, pi_L = beta - 1, t = pf - 1)
or beta^p = varpi (``uniformizer``, pi_L = beta, t = pf), sigma(beta) =
zeta_p beta.

sigma is determined by its value on pi_L, extended as the O_K-algebra
endomorphism x -> sigma_pi, and kept as a matrix over Z/p^N in the flat
monomial basis of the tower; custom extensions must supply sigma_pi
explicitly (conjugate roots of an Eisenstein polynomial are p-adically too
close for naive root-finding to separate them reliably).

``build_extension`` is the one place that refuses extension data: every
check of the data runs there, once per build, at the requested precision,
so every command, suite set and spec made in code sees the same data
accepted or refused.  ``rings.Tower`` is arithmetic on data checked here.
The trace is ``Tower.trace_matrix``, from E_L alone; the conjugate sum and
Hilbert's formula, checked at build, tie sigma and t to it.
"""

from __future__ import annotations

import math

from .errors import ConfigError, InvalidExtension
from .rings import OLElement, Tower, matvec, padic_val, valuation_K, valuation_L

BUILTIN_NAMES = ("quadratic-gaussian", "quadratic-sqrt2", "cyclotomic-step")
DEFAULT_PRECISION = 32
#: the fields a spec may hold, in a spec file and in code alike
SPEC_FIELDS = ("kind", "p", "precision", "e_K", "E_K", "E_L", "sigma_pi", "f",
               "radicand")
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
#: ``is_prime`` certifies p below this cap, by at most 2^16 trial divisions.
#: The rank bound keeps every p a build holds at most 157
PRIME_CAP = 2 ** 32


class ExtensionData:
    """A validated extension: tower, Galois action, and ramification break.

    ``sigma`` is the matrix of sigma over Z/p^N in the flat monomial basis,
    stored as a tuple of D rows (D = p*e_K) in column convention: column c
    is sigma applied to monomial c.  sigma fixes O_K, so the column of
    pi_L^i pi_K^j is sigma(pi_L)^i pi_K^j.  The trace is the tower's:
    ``tower.trace_matrix`` is the e_K x D matrix of tr: O_L -> O_K in the
    same convention, from E_L, and ``build_extension`` has checked that the
    conjugates of pi_L sum to its tr(pi_L).  Applying sigma and taking
    traces are matrix-vector products; sigma(pi_L) is
    ``apply_sigma(tower.pi_L)``, not kept apart.

    sigma lives at the built precision N only; work above N (the ghost lift
    of Witt arithmetic, the saturated trace kernel) needs only the ring and
    its trace, and takes ``tower.lift``.  ``spec`` is the build's own copy
    of the spec dict, with ``precision`` set when the build was given one.
    Extensions compare and hash by identity, so the caches keyed on them
    (the operator matrices of ``cohomology``) cost one pointer hash per
    lookup, and every build gets its own entries.
    """

    def __init__(self, spec: dict, tower: Tower, sigma: tuple, t: int):
        self.spec = spec
        self.tower = tower
        self.sigma = sigma
        self.t = t
        self.name = spec["kind"]
        self.p, self.N, self.e_K, self.e_L = tower.p, tower.N, tower.e_K, tower.e_L

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


def _materialize(spec: dict) -> tuple:
    """(p, N, base_coeffs, top_coeffs, sigma_pi) of ``spec``: the one code
    that reads a spec's fields.  First the document rules (a ``kind``, no
    field outside SPEC_FIELDS, a list or tuple (a JSON array) at every list
    position, ints or decimal strings but no booleans, ``e_K`` the length
    of ``E_K``), then the kind's fields and p, a prime, and a custom
    spec's degrees.  The rank and the work are bounded before any
    coefficient is built."""
    if "kind" not in spec:
        raise InvalidExtension("a spec needs a 'kind' field")
    unknown = spec.keys() - SPEC_FIELDS
    if unknown:
        raise InvalidExtension(f"no spec reads field {', '.join(sorted(map(str, unknown)))}")
    try:
        p, e_K, f = (_parse_int(spec[k]) if k in spec else None
                     for k in ("p", "e_K", "f"))
        N = _parse_int(spec.get("precision", DEFAULT_PRECISION))
        base = _parse_list(spec["E_K"]) if "E_K" in spec else None
        top, sigma = (_parse_list(spec[k], _parse_list) if k in spec else None
                      for k in ("E_L", "sigma_pi"))
    except (TypeError, ValueError) as exc:
        raise InvalidExtension(f"malformed spec: {type(exc).__name__}: {exc}") from exc
    if e_K is not None and (base is None or e_K != len(base)):
        raise InvalidExtension("e_K is not the length of E_K")
    kind, given = spec["kind"], (base, top, sigma)
    kummer_fields = spec.keys() & {"f", "radicand"}
    if kummer_fields and kind != "kummer-step":
        raise InvalidExtension(f"kind {kind!r} reads no field "
                               f"{', '.join(sorted(kummer_fields))}")
    if kind == "custom":
        if p is None or None in given:
            raise InvalidExtension("custom extension needs p and the "
                                   "coefficients of E_K, E_L and sigma_pi")
        if p < 2:
            raise InvalidExtension(f"kind 'custom' has no p = {p}")
        if not is_prime(p):
            raise InvalidExtension(f"p = {p} is not prime")
        if not base:
            raise InvalidExtension("base modulus must have positive degree")
        if len(top) != p:
            raise InvalidExtension(f"top modulus must have degree p = {p}, got {len(top)}")
        _check_cost(p, len(base), N)
        return (p, N) + given
    if kind not in BUILTIN_NAMES + ("kummer-step",):
        raise InvalidExtension(f"unknown extension kind {kind!r}")
    if given != (None, None, None):
        raise InvalidExtension(f"kind {kind!r} reads no coefficient field")
    if kind == "quadratic-gaussian" and p in (None, 2):
        return 2, N, (-2,), ((2,), (-2,)), ((2,), (-1,))
    if kind == "quadratic-sqrt2" and p in (None, 2):
        return 2, N, (-2,), ((-2,), (0,)), ((0,), (-1,))
    if kind not in ("cyclotomic-step", "kummer-step"):
        raise InvalidExtension(f"kind {kind!r} has no p = {p}")
    p = 3 if p is None else p
    odd = kind == "cyclotomic-step"
    if (odd and p == 2) or not is_prime(p):
        raise InvalidExtension(f"{kind} requires {'an odd' if odd else 'a'} prime, got {p}")
    f = 1 if f is None else f
    if f < 1:
        raise InvalidExtension(f"kummer-step needs f >= 1, got {f}")
    radicand = spec.get("radicand", "unit")
    if radicand not in ("unit", "uniformizer"):
        raise InvalidExtension(f"the radicand is 'unit' or 'uniformizer', not {radicand!r}")
    e_K = f * (p - 1)
    _check_cost(p, e_K, N)
    # E_K = Phi_p(y^f + 1) = sum_{0<k<=p} C(p,k) y^(f(k-1)), pi_K = varpi
    base = [0] * e_K
    for k in range(1, p):
        base[f * (k - 1)] = math.comb(p, k)
    zeta = (1,) + (0,) * (f - 1) + (1,)  # zeta_p = 1 + varpi^f
    if radicand == "unit":
        # E_L = (x+1)^p - 1 - varpi, and sigma(pi_L) = zeta_p (pi_L + 1) - 1
        # = varpi^f + zeta_p pi_L
        top = ((0, -1),) + tuple((math.comb(p, k),) for k in range(1, p))
        return p, N, tuple(base), top, ((0,) + zeta[1:], zeta)
    # E_L = x^p - varpi, and sigma(pi_L) = zeta_p pi_L
    return p, N, tuple(base), ((0, -1),) + ((0,),) * (p - 1), ((0,), zeta)


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division up to its square root;
    InvalidExtension from PRIME_CAP on, rather than a long search."""
    if n >= PRIME_CAP:
        raise InvalidExtension(f"cannot certify that p = {n} is prime")
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _parse_int(value) -> int:
    # integers may arrive as decimal strings to sidestep word-size limits: an
    # optional '-' and ASCII digits, after surrounding whitespace is stripped
    if isinstance(value, str):
        text = value.strip()
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"expected a decimal string, got {value!r}")
        return int(text)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer or decimal string, got {value!r}")
    return value


def _parse_list(value, parse=_parse_int) -> tuple:
    # a string or an object is iterable too, but no list of a spec
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(map(parse, value))


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


def _check_eisenstein(tower: Tower):
    """InvalidExtension unless E_K and E_L are Eisenstein: every coefficient
    has valuation >= 1, and the constant term has valuation exactly 1,
    below the horizon.  One rule for both moduli: v_p with horizon N for
    the integer coefficients of E_K, v_K with horizon N e_K for those of
    E_L.  A coefficient that vanishes at precision has the horizon, which
    certifies valuation >= 1 and refuses a constant term; at N = 1 that is
    every constant term of E_K.  E_L's valuations are read only after E_K
    has passed, since v_K assumes it."""
    p, N = tower.p, tower.N
    moduli = (("E_K", (padic_val(c, p) if c else N for c in tower.E_K), N),
              ("E_L", map(valuation_K, tower.E_L), tower.horizon_K))
    for name, valuations, horizon in moduli:
        for i, v in enumerate(valuations):
            if v < 1:
                raise InvalidExtension(f"coefficient {i} of {name} is a unit")
            if i == 0 and v == horizon:
                raise InvalidExtension(
                    f"constant term of {name} vanishes at precision N={N}")
            if i == 0 and v != 1:
                raise InvalidExtension(f"constant term of {name} has valuation {v} != 1")


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
    """Build and validate an extension from a spec dict or a built-in name
    (the spec ``{"kind": name}``).  The build keeps its own copy of the
    spec, with ``precision`` set to the given one, if any.

    The one place that refuses extension data: ``Tower`` and its lifts
    check nothing.  Each check runs once per build, in order: the spec's
    fields obey the document rules, the kind takes its fields, and p is
    a prime (``is_prime``), with moduli of degrees e_K >= 1 and p for
    ``custom``; the rank D = p * e_K is at most MAX_RANK and the work
    D^2 * log10(p^N) at most MAX_WORK (all in ``_materialize``); N >= 1,
    and p^N has at most MAX_MODULUS_DIGITS decimal digits (ConfigError
    otherwise); both moduli are Eisenstein (``_check_eisenstein``);
    sigma_pi is a root of E_L; sigma does not fix pi_L and sigma^p does;
    the conjugates sigma^i(pi_L), i < p, sum to tr(pi_L) = -c_{p-1}; and
    the ramification break t = v_L(sigma(pi_L) - pi_L) - 1 satisfies
    Hilbert's formula (``_check_hilbert``), which also puts t >= 1.  t is
    exact: sigma does not fix pi_L, so the difference is nonzero at
    precision.
    """
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise InvalidExtension(f"a spec is a JSON object, not {type(spec).__name__}")
    spec = dict(spec) if precision is None else dict(spec, precision=precision)
    p, N, base_coeffs, top_coeffs, sigma_rows = _materialize(spec)
    if N < 1:
        raise InvalidExtension(f"precision N = {N} must be positive")
    # p^N has floor(N log10 p) + 1 digits; p^N itself is never formed here
    if N * math.log10(p) >= MAX_MODULUS_DIGITS:
        raise ConfigError(
            f"precision N = {N} is too large: p^N = {p}^{N} has more than "
            f"{MAX_MODULUS_DIGITS} decimal digits")

    tower = Tower(p, N, base_coeffs, top_coeffs)
    _check_eisenstein(tower)
    sigma_pi = tower.from_rows(sigma_rows)

    root = tower.one_ol  # E_L(sigma_pi) by Horner; the leading 1 is implicit
    for c in reversed(tower.E_L):
        root = root * sigma_pi + c
    if not root.is_zero:
        raise InvalidExtension("sigma(pi_L) is not a root of E_L at precision")

    powers = [tower.one_ol]
    for _ in range(p - 1):
        powers.append(powers[-1] * sigma_pi)
    sigma = tower.ok_linear_matrix([x.coeffs for x in powers])
    orbit = [tower.pi_L.coeffs, sigma_pi.coeffs]  # sigma^i(pi_L), i <= p
    for _ in range(p - 1):
        orbit.append(matvec(sigma, orbit[-1], tower.pN))
    if orbit[1] == orbit[0]:
        raise InvalidExtension("sigma fixes pi_L; the action is trivial")
    if orbit[p] != orbit[0]:
        raise InvalidExtension("sigma^p does not fix pi_L at precision")
    # the conjugates of pi_L are the p roots of E_L
    conjugate_sum = tuple(sum(c) % tower.pN for c in zip(*orbit[:p]))
    if conjugate_sum != (-tower.E_L[-1]).coeffs:
        raise InvalidExtension("the conjugates of pi_L do not sum to tr(pi_L) "
                               "= -c_{p-1} at precision: sigma is not a Galois action")

    t = valuation_L(sigma_pi - tower.pi_L) - 1
    _check_hilbert(tower, t)

    return ExtensionData(spec=spec, tower=tower, sigma=sigma, t=t)


# -- extension spec files ---------------------------------------------------


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are all distinct; the decoder would keep
    the last value of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is repeated")
        obj[key] = value
    return obj


def load_spec_file(path) -> dict:
    """The spec in a JSON spec file, as it stands: InvalidExtension if it
    is not JSON, repeats a key in an object or nests too deeply to parse.
    ``build_extension`` checks it as any spec made in code."""
    import json  # only spec files need it

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise InvalidExtension(
                f"malformed spec file {path}: {type(exc).__name__}: {exc}") from exc


def resolve_extension(name_or_path: str, precision: int = None) -> ExtensionData:
    """Build a built-in extension by name, or a custom one from a spec file."""
    if name_or_path in BUILTIN_NAMES:
        return build_extension(name_or_path, precision=precision)
    return build_extension(load_spec_file(name_or_path), precision=precision)
