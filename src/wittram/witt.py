"""Truncated p-typical Witt vectors over the ring of integers of L.

A WittVec of length m+1 is a tuple of O_L elements.  Addition evaluates the
cached binary universal addition laws; negation solves the addition laws
level by level (z_n depends on the unknown level only through the linear
term X_{1,n}, so each component is determined by the lower ones).  The
ghost map, used as a cross-check oracle throughout the test-suite, is
evaluated directly from its defining sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegralityError, LengthMismatch
from .extensions import ExtensionData
from .rings import OLElement
from .universal import SymPoly, sum_polynomials


@dataclass(frozen=True)
class WittVec:
    """A point of W_{m+1}(O_L) at precision; components share one extension."""

    ext: ExtensionData
    components: tuple

    def __post_init__(self):
        for c in self.components:
            if not isinstance(c, OLElement) or c.tower is not self.ext.tower:
                raise ValueError("components must be O_L elements of the extension")

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


def evaluate_poly(poly: SymPoly, assign: dict, ext: ExtensionData) -> OLElement:
    """Evaluate an integer-certified SymPoly at O_L values.

    ``assign`` maps variables (i, j) to O_L elements; every variable of the
    polynomial must be assigned.  Runs in flat coordinates with per-variable
    power tables, which keeps the inner loop free of element allocation.
    """
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
    for mono, coeff in poly.terms.items():
        if coeff.denominator != 1:
            raise IntegralityError("cannot evaluate a non-integral polynomial in O_L")
        c = int(coeff)
        vec = None
        for var, e in mono:
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


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    """Witt vector sum via the binary universal addition laws."""
    _check_compatible(a, b)
    m = len(a) - 1
    zs = sum_polynomials(a.ext.p, m, 2)
    assign = {}
    for j in range(m + 1):
        assign[(0, j)] = a[j]
        assign[(1, j)] = b[j]
    comps = tuple(evaluate_poly(zs[n], assign, a.ext) for n in range(m + 1))
    return WittVec(a.ext, comps)


def witt_neg(a: WittVec) -> WittVec:
    """The additive inverse, solved level by level from the addition laws."""
    ext = a.ext
    m = len(a) - 1
    zs = sum_polynomials(ext.p, m, 2)
    zero = ext.tower.zero_ol
    assign = {}
    for j in range(m + 1):
        assign[(0, j)] = a[j]
        assign[(1, j)] = zero
    comps = []
    for n in range(m + 1):
        # z_n = X_{0,n} + X_{1,n} + (terms of lower level); with X_{1,n} = 0
        # the evaluation is a[n] + tail, and the unknown must cancel it.
        tail = evaluate_poly(zs[n], assign, ext)
        comps.append(-tail)
        assign[(1, n)] = comps[n]
    return WittVec(ext, tuple(comps))


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

    Component 0 equals the ordinary trace of a_0; the vector vanishes
    exactly on W_{m+1}(O_L)^{tr=0}.
    """
    acc = a
    for k in range(1, a.ext.p):
        acc = witt_add(acc, apply_sigma(a, k))
    return acc


def ghost_map(a: WittVec) -> tuple:
    """Ghost coordinates (W_0(a), ..., W_m(a)) evaluated in O_L at precision."""
    p = a.ext.p
    out = []
    for n in range(len(a)):
        acc = a.ext.tower.zero_ol
        for i in range(n + 1):
            acc = acc + (a[i] ** (p ** (n - i))).scale_int(p ** i)
        out.append(acc)
    return tuple(out)
