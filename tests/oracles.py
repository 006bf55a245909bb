"""Test-side helpers that ``wittram verify`` never runs.

Each one re-derives a quantity the program computes another way, or builds
and takes apart Witt vectors for the arithmetic tests: an extension rebuilt
at a higher precision, sigma and all, the Galois conjugates of an element,
the ramification break from any generator, the conjugate-product basis with
its valuation pattern, the product by pi_L as a shift, uniform elements of
O_L, an operator matrix applied to an element, the order of a Howell span,
the Witt vector constructors and maps, the cascade checks on a vector that
is first certified trace-zero, and membership in the span of the trace-zero
generators, read in ghost coordinates.  Every check raises as it did in
the package, except that a valuation at the precision horizon raises this
module's own ``PrecisionExhausted``.

It also holds the spec documents that several test modules share: the t=4
tower, the t=1 tower, the first step of the cyclotomic Z_3-tower, the
custom sqrt2 document and the table of refused specs.
"""

from functools import lru_cache

from wittram.cohomology import _cascade_levels, trace_zero_generators
from wittram.errors import LengthMismatch, VerificationError
from wittram.extensions import ExtensionData, build_extension
from wittram.linalg import HowellBasis, LinearMap, howell_form, member
from wittram.rings import OLElement, matvec, valuation_L
from wittram.witt import WittVec, _from_ghost, _ghost, witt_trace

# -- shared spec documents ----------------------------------------------------

#: K = Q_2(sqrt 2), L = K(sqrt pi_K), sigma(pi_L) = -pi_L: break t = 4
T4_SPEC = {"kind": "custom", "p": 2, "E_K": [-2, 0], "E_L": [[0, -1], [0, 0]],
           "sigma_pi": [[0, 0], [-1, 0]]}

#: K = Q_2(2^(1/4)), L = K(beta) with beta^2 = 1 + pi_K^7 and
#: pi_L = (beta - 1)/pi_K^3, a root of x^2 + pi_K x - pi_K; sigma(beta) = -beta
#: gives sigma(pi_L) = -pi_K - pi_L: break t = 1, below e_K = 4, so a
#: trace-zero a_0 can have v_L(a_0) = 2 and (a_0, a_1) need not be killed by p^N
T1_SPEC = {"kind": "custom", "p": 2, "E_K": [-2, 0, 0, 0],
           "E_L": [[0, -1], [0, 1]], "sigma_pi": [[0, -1], [-1, 0]]}

#: Q_3 < L_1, the first step of the cyclotomic Z_3-extension: L_1 = Q_3(eta)
#: with eta = zeta_9 + zeta_9^-1, pi_L = 2 - eta a root of x^3 - 6x^2 + 9x - 3,
#: and sigma(eta) = -eta^2 - eta + 2 gives sigma(pi_L) = pi_L^2 - 5 pi_L + 6.
#: Break t = 1 over a base without zeta_3 (e_K = 1)
ZP_STEP_SPEC = {"kind": "custom", "p": 3, "E_K": [-3], "E_L": [[-3], [9], [-6]],
                "sigma_pi": [[6], [-5], [1]]}

#: ``quadratic-sqrt2`` spelled as a custom document
SQRT2_DOC = {"kind": "custom", "p": 2, "E_K": [-2],
             "E_L": [[-2], [0]], "sigma_pi": [[0], [-1]]}

#: documents that ``build_extension`` refuses with InvalidExtension, and the
#: text its message holds: from a spec file and in code alike
REFUSED_SPECS = {
    "missing-E_L": ({k: v for k, v in SQRT2_DOC.items() if k != "E_L"},
                    "needs p and the coefficients"),
    "custom-without-p": ({k: v for k, v in SQRT2_DOC.items() if k != "p"}, "needs p"),
    "precision-not-an-int": (dict(SQRT2_DOC, precision="x"), "ValueError"),
    "E_L-not-a-list": (dict(SQRT2_DOC, E_L=5), "TypeError"),
    "boolean-coefficient": (dict(SQRT2_DOC, sigma_pi=[[False], [-1]]),
                            "got False"),
    "float-p": ({"kind": "cyclotomic-step", "p": 3.0}, "got 3.0"),
    # int() would read each of these as a decimal string: 11, 5 and 5
    "p-with-underscore": ({"kind": "cyclotomic-step", "p": "1_1"},
                          "expected a decimal string, got '1_1'"),
    "p-in-arabic-indic-digits": ({"kind": "cyclotomic-step", "p": "\u0665"},
                                 "expected a decimal string, got '\u0665'"),
    "p-with-plus-sign": ({"kind": "cyclotomic-step", "p": " +5 "},
                         "expected a decimal string, got ' +5 '"),
    "not-an-object": ([["kind", "custom"]], "a spec is a JSON object"),
    "without-kind": ({"p": 2}, "needs a 'kind' field"),
    # documents that would build another extension than they say, or carry
    # a field their kind does not read
    "gaussian-at-p5": ({"kind": "quadratic-gaussian", "p": 5}, "has no p = 5"),
    "sqrt2-at-p3": ({"kind": "quadratic-sqrt2", "p": 3}, "has no p = 3"),
    "cyclotomic-at-p0": ({"kind": "cyclotomic-step", "p": 0}, "odd prime, got 0"),
    "cyclotomic-at-p1": ({"kind": "cyclotomic-step", "p": 1}, "odd prime, got 1"),
    "kummer-at-p4": ({"kind": "kummer-step", "p": 4}, "kummer-step requires a prime, got 4"),
    "kummer-with-f-0": ({"kind": "kummer-step", "p": 3, "f": 0}, "needs f >= 1, got 0"),
    "kummer-with-radicand-square": ({"kind": "kummer-step", "p": 3, "radicand": "square"},
                                    "the radicand is 'unit' or 'uniformizer', not 'square'"),
    "sqrt2-with-E_K": ({"kind": "quadratic-sqrt2", "E_K": [3]}, "reads no coefficient"),
    "sqrt2-with-sigma_pi": ({"kind": "quadratic-sqrt2", "sigma_pi": [[1], [1]]},
                            "reads no coefficient"),
    "cyclotomic-with-E_K": ({"kind": "cyclotomic-step", "p": 3, "E_K": [1]},
                            "reads no coefficient"),
    "cyclotomic-with-custom-fields": (
        {"kind": "cyclotomic-step", "p": 5, "sigma_pi": [[1]]}, "reads no coefficient"),
    "cyclotomic-with-f": ({"kind": "cyclotomic-step", "p": 5, "f": 2},
                          "kind 'cyclotomic-step' reads no field f"),
    "custom-with-radicand": (dict(SQRT2_DOC, radicand="unit"), "reads no field radicand"),
    "custom-with-bogus": (dict(SQRT2_DOC, bogus=1), "no spec reads field bogus"),
    # e_K is the length of E_K, never a field, even where it is right
    "custom-restates-e_K": (dict(SQRT2_DOC, e_K=1), "no spec reads field e_K"),
    "custom-at-p0": (dict(SQRT2_DOC, p=0), "has no p = 0"),
    "unknown-kind": ({"kind": "quartic"}, "unknown extension kind 'quartic'"),
    # a string or an object is iterable, but no list of a spec
    "E_L-rows-are-strings": (dict(SQRT2_DOC, E_L=["2", "0"]), "expected a list, got '2'"),
    "E_K-an-object": (dict(SQRT2_DOC, E_K={"7": 1}), "expected a list, got {'7': 1}"),
    # the build's rules on p, N, the degrees and the Eisenstein conditions
    "custom-at-p4": (dict(SQRT2_DOC, p=4), "p = 4 is not prime"),
    # from the trial-division cap 2^32 on, and odd
    "cyclotomic-at-uncertified-p": ({"kind": "cyclotomic-step", "p": 318665857834031151167461},
                                    "cannot certify that p = 318665857834031151167461"),
    "precision-0": (dict(SQRT2_DOC, precision=0), "precision N = 0 must be positive"),
    "precision-1": ({"kind": "quadratic-gaussian", "precision": 1},
                    "constant term of E_K vanishes at precision N=1"),
    "empty-E_K": (dict(SQRT2_DOC, E_K=[]), "base modulus must have positive degree"),
    "E_L-of-degree-p+1": (dict(SQRT2_DOC, E_L=[[-2], [0], [0]]),
                          "top modulus must have degree p = 2, got 3"),
    "unit-E_K-coefficient": (dict(SQRT2_DOC, E_K=[1]), "coefficient 0 of E_K is a unit"),
    "E_K-constant-of-valuation-2": (dict(SQRT2_DOC, E_K=[-4]),
                                    "constant term of E_K has valuation 2 != 1"),
    "E_K-constant-0": (dict(SQRT2_DOC, E_K=[0]),
                       "constant term of E_K vanishes at precision N=32"),
    # x^2 - 3 is not Eisenstein at 2
    "unit-E_L-constant": (dict(SQRT2_DOC, E_L=[[-3], [0]]), "coefficient 0 of E_L is a unit"),
    "unit-E_L-coefficient": (dict(SQRT2_DOC, E_L=[[-2], [1]]),
                             "coefficient 1 of E_L is a unit"),
    "E_L-constant-of-valuation-2": (dict(SQRT2_DOC, E_L=[[-4], [0]]),
                                    "constant term of E_L has valuation 2 != 1"),
    # E_L = x^2: v_K(c_0) is at least the horizon N e_K, at N = 2 as at 16
    "E_L-constant-0-at-N2": (dict(SQRT2_DOC, E_L=[[0], [0]], precision=2),
                             "constant term of E_L vanishes at precision N=2"),
    "E_L-constant-0-at-N16": (dict(SQRT2_DOC, E_L=[[0], [0]], precision=16),
                              "constant term of E_L vanishes at precision N=16"),
    # Galois data: sigma(pi_L) a root of E_L, sigma of order p, the conjugates
    # summing to the trace
    "sigma-not-a-root": (dict(SQRT2_DOC, sigma_pi=[[1], [1]]), "not a root of E_L"),
    "sigma-identity": (dict(SQRT2_DOC, sigma_pi=[[0], [1]]), "sigma fixes pi_L"),
    "sigma-of-order-not-p": ({"kind": "custom", "p": 3, "E_K": [-3], "E_L": [[-3], [0], [0]],
                              "sigma_pi": [[0], [1], [1]], "precision": 2},
                             "sigma^p does not fix pi_L"),
    # at N = 3, 3 pi_L is a root of x^2 - 2 of order 2, but pi_L + 3 pi_L != 0
    "conjugates-miss-the-trace": (dict(SQRT2_DOC, precision=3, sigma_pi=[[0], [3]]),
                                  "conjugates of pi_L do not sum"),
}


def spec_id(value):
    """A test id for a spec dict: its kind and p."""
    if isinstance(value, dict):
        return f"{value['kind']}{value.get('p') or ''}"
    return None


# -- extensions ---------------------------------------------------------------


class PrecisionExhausted(Exception):
    """An oracle's valuation hit the precision horizon: it cannot decide."""


@lru_cache(maxsize=None)
def rebuilt(ext: ExtensionData, precision: int) -> ExtensionData:
    """``ext`` built again from its spec at ``precision``, sigma included,
    once per pair: the oracles' own Galois action above N, which the
    program never builds."""
    return build_extension(ext.spec, precision)


def conjugates(ext: ExtensionData, a: OLElement) -> tuple:
    """a, sigma(a), ..., sigma^(p-1)(a), by matrix-vector products with sigma."""
    out = [a]
    for _ in range(1, ext.p):
        out.append(ext.apply_sigma(out[-1]))
    return tuple(out)


def ramification_break(ext: ExtensionData, generator_power: int = 1) -> int:
    """Re-derive t from any generator sigma^g (1 <= g < p); all agree."""
    if not 1 <= generator_power < ext.p:
        raise ValueError("generator power must lie in [1, p)")
    diff = conjugates(ext, ext.tower.pi_L)[generator_power] - ext.tower.pi_L
    v = valuation_L(diff)
    if v == ext.tower.horizon_L:
        raise PrecisionExhausted("ramification break not resolvable at precision")
    return v - 1


class SigmaBasis:
    """The conjugate-product basis x_mu = prod_{i<mu} sigma^i(pi_L).

    v_L(x_mu) = mu, and v_L((sigma - 1) x_mu) = t + mu for 1 <= mu <= p-1;
    the valuations are pairwise distinct mod p, which is what makes the
    family an O_K-basis of O_L.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: tuple):
        self.elements = elements


def sigma_basis(ext: ExtensionData) -> SigmaBasis:
    """Build x_0..x_{p-1} and verify their valuation pattern exactly."""
    tower = ext.tower
    conj = conjugates(ext, tower.pi_L)
    xs = [tower.one_ol]
    for mu in range(1, ext.p):
        xs.append(xs[-1] * conj[mu - 1])
    for mu, x in enumerate(xs):
        v = valuation_L(x)
        if v == tower.horizon_L:
            raise PrecisionExhausted(f"v_L(x_{mu}) hit the precision horizon")
        if v != mu:
            raise VerificationError(f"v_L(x_{mu}) = {v}, expected {mu}")
    for mu in range(1, ext.p):
        d = ext.apply_sigma(xs[mu]) - xs[mu]
        v = valuation_L(d)
        if v == tower.horizon_L:
            raise PrecisionExhausted(f"v_L((sigma-1)x_{mu}) hit the horizon")
        if v != ext.t + mu:
            raise VerificationError(
                f"v_L((sigma-1)x_{mu}) = {v}, expected t + mu = {ext.t + mu}"
            )
    return SigmaBasis(tuple(xs))


def times_pi_L(tower, vec) -> list:
    """vec * pi_L on flat coordinates, by one shift: the O_K blocks move up
    one power of pi_L, and the overflow block comes back in through
    pi_L^p = -(c_0 + ... + c_{p-1} pi_L^{p-1}), built here from E_L, times
    pi_K^k for its coordinate k.  The oracle of ``Tower.flat_mul``'s fold."""
    e, pN = tower.e_K, tower.pN
    row = [-c % pN for c_k in tower.E_L for c in c_k.coeffs[:e]]  # pi_L^p
    out = [0] * e + list(vec[:-e])
    for c in vec[-e:]:
        if c:
            out = [(a + c * b) % pN for a, b in zip(out, row)]
        row = tower._times_pi_K(row)
    return out


def uniform_element(ext: ExtensionData, rng) -> OLElement:
    """A uniform element of O_L: one ``randrange(p^N)`` per coordinate."""
    tower = ext.tower
    return tower.element([rng.randrange(tower.pN) for _ in range(tower.dim)])


# -- linear algebra -------------------------------------------------------------


def apply_map(lin: LinearMap, a: OLElement) -> tuple:
    """The coordinates of the operator ``lin`` applied to ``a`` (O_K
    coordinates for the trace): one matrix-vector product."""
    return matvec(lin.rows, a.coeffs, a.tower.pN)


def order_exponent(basis: HowellBasis) -> int:
    """log_p of the number of elements in the span of ``basis``."""
    return sum(basis.N - k for _, k in basis.pivots)


# -- Witt vectors -------------------------------------------------------------


def witt_zero(ext: ExtensionData, length: int) -> WittVec:
    return WittVec(ext, (ext.tower.zero_ol,) * length)


def teichmuller(ext: ExtensionData, x: OLElement, length: int) -> WittVec:
    """The multiplicative lift (x, 0, ..., 0)."""
    return WittVec(ext, (x,) + (ext.tower.zero_ol,) * (length - 1))


def witt_neg(a: WittVec) -> WittVec:
    """The additive inverse: the ghost components negate."""
    hi = a.ext.tower.lift(a.ext.N + len(a) - 1)
    return _from_ghost(a.ext, hi, [-x for x in _ghost(hi, a)])


def verschiebung(a: WittVec) -> WittVec:
    """The additive shift (a_0, ..., a_m) -> (0, a_0, ..., a_{m-1})."""
    return WittVec(a.ext, (a.ext.tower.zero_ol,) + a.components[:-1])


def restrict(a: WittVec, length: int) -> WittVec:
    """Truncation to the first ``length`` components."""
    if not 1 <= length <= len(a):
        raise LengthMismatch(f"cannot restrict length {len(a)} to {length}")
    return WittVec(a.ext, a.components[:length])


def apply_sigma(a: WittVec, power: int = 1) -> WittVec:
    """Componentwise Galois action; preserves component valuations."""
    if not 0 <= power < a.ext.p:
        raise ValueError("sigma power must lie in [0, p)")
    comps = a.components
    for _ in range(power):
        comps = tuple(a.ext.apply_sigma(c) for c in comps)
    return WittVec(a.ext, comps)


def ghost_map(a: WittVec) -> tuple:
    """Ghost coordinates (W_0(a), ..., W_m(a)) evaluated in O_L at precision."""
    tower = a.ext.tower
    ghost = _ghost(tower, WittVec(a.ext, a.components))
    return tuple(tower.element(ghost[k:k + tower.dim]) for k in range(0, len(ghost), tower.dim))


# -- cohomology ---------------------------------------------------------------


def verify_cascade(a: WittVec) -> list:
    """The cascade suite's level checks on ``a``, after certifying that its
    Witt trace is zero (ValueError otherwise)."""
    if not witt_trace(a).is_zero:
        raise ValueError("cascade verifier requires a trace-zero vector")
    return _cascade_levels(a)


def in_trace_zero_span(ext: ExtensionData, m: int):
    """Membership in the span of ``trace_zero_generators(ext, m)``, as a
    test on the components of a vector of length m+1.

    The ghost vector of a lift of a vector x to precision N+m, taken mod
    p^(N+k) at level k, does not depend on the lift (a change of lift by
    p^N e at component i moves level k >= i by a multiple of p^(N+k)), and
    it determines x (``_from_ghost``).  So x lies in the span exactly when
    that ghost vector lies in the span of the generators' ghost vectors
    plus p^(N+k) O_L at each level k, mod p^(N+m): one Howell membership.
    """
    hi, ghosts = trace_zero_generators(ext, m)
    p, N, D = ext.p, ext.N, ext.tower.dim
    width = D * (m + 1)
    lifts_of_zero = [[p ** (N + i // D) * (j == i) for j in range(width)]
                     for i in range(width)]
    basis = howell_form([list(g) for g in ghosts] + lifts_of_zero,
                        p, N + m, width)

    def contains(components) -> bool:
        return member(basis, _ghost(hi, WittVec(ext, tuple(components))))

    return contains
