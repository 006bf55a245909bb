"""Truncated p-typical Witt vectors over the ring of integers of L.

A WittVec of length m+1 is a tuple of O_L elements.  Sums, negatives and
traces run through the ghost map at precision N+m: the coordinates in
[0, p^N) lift the components, their ghost components W_k are added, negated
or traced, and z_k = (W_k - sum_{i<k} p^i z_i^(p^(k-i))) / p^k is projected
back to precision N.  O_L is free over Z_p, so p^k divides an element iff it
divides every coordinate, which is checked (IntegralityError); z_k is exact
modulo p^(N+m-k) >= p^N.  The tests compare this path with ``evaluate_poly``
of the universal polynomials.
"""

from __future__ import annotations

from .errors import IntegralityError, LengthMismatch
from .extensions import ExtensionData, _twin
from .rings import OLElement


class WittVec:
    """A point of W_{m+1}(O_L) at precision; components share one extension.

    Witt vectors compare by identity; compare ``components`` for values.
    """

    __slots__ = ("ext", "components")

    def __init__(self, ext: ExtensionData, components: tuple):
        for c in components:
            if not isinstance(c, OLElement) or c.tower is not ext.tower:
                raise ValueError("components must be O_L elements of the extension")
        self.ext = ext
        self.components = components

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, k) -> OLElement:
        return self.components[k]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __repr__(self):
        return f"WittVec({self.ext.name}, {self.components})"


def witt_zero(ext: ExtensionData, length: int) -> WittVec:
    return WittVec(ext, (ext.tower.zero_ol,) * length)


def teichmuller(ext: ExtensionData, x: OLElement, length: int) -> WittVec:
    """The multiplicative lift (x, 0, ..., 0)."""
    return WittVec(ext, (x,) + (ext.tower.zero_ol,) * (length - 1))


def evaluate_poly(poly, assign: dict, ext: ExtensionData) -> OLElement:
    """Evaluate a ``universal.SymPoly`` (integer coefficients) at O_L values.

    ``assign`` maps variables (i, j) to O_L elements; every variable of the
    polynomial must be assigned.  Each packed monomial is decoded once into
    its ((i, j), e) factors, and the product runs in flat coordinates with
    per-variable power tables, which keeps the inner loop free of element
    allocation.  The symbolic layer is imported here, not with the module,
    so that runs without symbolic work never load it.
    """
    from .universal import decode_monomial

    tower = ext.tower
    dim = tower.dim
    flat_mul = tower.flat_mul
    powers = {}

    def power(var, e):
        table = powers.get(var)
        if table is None:
            table = [None, assign[var].coeffs]
            powers[var] = table
        while len(table) <= e:
            table.append(tuple(flat_mul(table[-1], table[1])))
        return table[e]

    total = [0] * dim
    for mono, c in poly.terms.items():
        vec = None
        for var, e in decode_monomial(mono):
            pv = power(var, e)
            vec = pv if vec is None else flat_mul(vec, pv)
        if vec is None:
            total[0] += c  # constant term
            continue
        for k in range(dim):
            if vec[k]:
                total[k] += c * vec[k]
    return tower.element(total)


def _check_compatible(a: WittVec, b: WittVec):
    if a.ext is not b.ext:
        raise LengthMismatch("Witt vectors belong to different extensions")
    if len(a) != len(b):
        raise LengthMismatch(f"lengths differ: {len(a)} vs {len(b)}")


def _ghost(hi: ExtensionData, comps) -> list:
    """Ghost components W_0..W_m of ``comps``, their coordinates lifted
    unchanged into ``hi`` (the twin at precision N+m, or ``ext`` itself)."""
    p = hi.p
    powers = [OLElement(hi.tower, c.coeffs) for c in comps]
    ghosts = []
    for k in range(len(powers)):
        w = [p ** k * x for x in powers[k].coeffs]
        for i in range(k):
            powers[i] = powers[i] ** p  # a_i^(p^(k-i))
            w = [x + p ** i * y for x, y in zip(w, powers[i].coeffs)]
        ghosts.append(hi.tower.element(w))
    return ghosts


def _from_ghost(ext: ExtensionData, hi: ExtensionData, ghosts) -> WittVec:
    """The Witt vector over ``ext`` whose ghost components in ``hi`` are
    ``ghosts``; raises IntegralityError where p^k fails to divide.

    The power chain of a component z_i that vanishes mod p^N is skipped,
    which leaves every component mod p^N and every divisibility test
    unchanged.  If z_i = p^N u, then p^i z_i^(p^(k-i)) has valuation at
    least i + N p^(k-i) >= N + k, so it adds nothing to z_k mod p^N.  The
    lift of z_k then moves by a multiple of p^N, and a^q = b^q mod
    p^(N+j) when a = b mod p^N and q = p^j, so the term it feeds into
    level l > k moves by valuation at least k + N + (l-k) = N + l, again
    nothing mod p^N after the division by p^l.  Each skipped term is a
    multiple of p^(N+k), so p^k still divides w exactly when it did.
    """
    p = ext.p
    powers = []
    comps = []
    for k, w in enumerate(ghosts):
        w = w.coeffs
        for i in range(k):
            if comps[i].is_zero:
                continue
            powers[i] = powers[i] ** p  # z_i^(p^(k-i))
            w = [x - p ** i * y for x, y in zip(w, powers[i].coeffs)]
        pk = p ** k
        if any(x % pk for x in w):
            raise IntegralityError(f"ghost level {k} is not divisible by p^{k}")
        z = [x // pk for x in w]
        powers.append(hi.tower.element(z))
        comps.append(ext.tower.element(z))
    return WittVec(ext, tuple(comps))


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    """Witt vector sum: the ghost components add."""
    _check_compatible(a, b)
    hi = _twin(a.ext, a.ext.N + len(a) - 1)
    ghosts = [x + y for x, y in zip(_ghost(hi, a.components), _ghost(hi, b.components))]
    return _from_ghost(a.ext, hi, ghosts)


def witt_neg(a: WittVec) -> WittVec:
    """The additive inverse: the ghost components negate."""
    hi = _twin(a.ext, a.ext.N + len(a) - 1)
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
    return WittVec(a.ext, tuple(a.ext.apply_sigma(c, power) for c in a.components))


def witt_trace(a: WittVec) -> WittVec:
    """The Witt sum of all Galois conjugates of ``a``.

    sigma is a ring map, so the ghost components of the sum are the traces
    of the ghost components of ``a``.  Component 0 equals the ordinary trace
    of a_0; the vector vanishes exactly on W_{m+1}(O_L)^{tr=0}.
    """
    hi = _twin(a.ext, a.ext.N + len(a) - 1)
    return _from_ghost(a.ext, hi, [hi.trace(w) for w in _ghost(hi, a.components)])


def ghost_map(a: WittVec) -> tuple:
    """Ghost coordinates (W_0(a), ..., W_m(a)) evaluated in O_L at precision."""
    return tuple(_ghost(a.ext, a.components))
