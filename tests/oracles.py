"""Test-side helpers that ``wittram verify`` never runs.

Each one re-derives a quantity the program computes another way, or builds
and takes apart Witt vectors for the arithmetic tests: an extension rebuilt
at a higher precision, sigma and all, the Galois conjugates of an element,
the ramification break from any generator, the conjugate-product basis with
its valuation pattern, uniform elements of O_L, an operator matrix applied
to an element, the order of a Howell span, the Witt vector constructors and
maps, and the cascade checks on a vector that is first certified
trace-zero.  Every check raises as it did
in the package.
"""

from functools import lru_cache

from wittram.cohomology import _cascade_levels
from wittram.errors import LengthMismatch, PrecisionExhausted, VerificationError
from wittram.extensions import ExtensionData, build_extension
from wittram.linalg import HowellBasis, LinearMap
from wittram.rings import OLElement, matvec, valuation_L
from wittram.witt import WittVec, _from_ghost, _ghost, witt_trace

# -- extensions ---------------------------------------------------------------


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
    return _from_ghost(a.ext, hi, [-w for w in _ghost(hi, a.components)])


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
    return tuple(_ghost(a.ext.tower, a.components))


# -- cohomology ---------------------------------------------------------------


def verify_cascade(a: WittVec) -> list:
    """The cascade suite's level checks on ``a``, after certifying that its
    Witt trace is zero (ValueError otherwise)."""
    if not witt_trace(a).is_zero:
        raise ValueError("cascade verifier requires a trace-zero vector")
    return _cascade_levels(a)
