"""Truncated p-typical Witt vectors over the ring of integers of L.

A WittVec of length m+1 is a tuple of O_L elements.  Traces (the verify
path) and sums run through the ghost map in the tower lifted to N+m
(``Tower.lift``, whose trace comes from E_L, so no sigma is needed there):
the coordinates in [0, p^N) lift the components, their ghost components
W_k are traced or added, and z_k = (W_k - sum_{i<k} p^i z_i^(p^(k-i))) /
p^k is projected back to precision N.  O_L is free over Z_p, so p^k
divides an element iff it divides every coordinate, which is checked
(IntegralityError); z_k is exact modulo p^(N+m-k) >= p^N.  Ghost
components are additive, so a combination sum_i c_i v_i is one product of
the coefficients with the ghost vectors (``witt_combination``), and
``witt_add`` is its two-term case.  The tests compare this path with
``evaluate_poly``, the plain oracle.  ``verify`` calls neither it nor
``witt_add``; the benchmark tracer wraps both.
"""

from __future__ import annotations

from math import prod

from .errors import IntegralityError, LengthMismatch
from .rings import OLElement, Tower, matvec


class WittVec:
    """A point of W_{m+1}(O_L) at precision; components share one extension.

    Witt vectors compare by identity; compare ``components`` for values.
    """

    __slots__ = ("ext", "components")

    def __init__(self, ext, components: tuple):
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


def evaluate_poly(poly, assign: dict, ext) -> OLElement:
    """Evaluate a ``universal.SymPoly`` (integer coefficients) at O_L values:
    the plain oracle, the sum over the terms of the coefficient times the
    product of ``assign[var] ** e`` over the factors of the monomial.

    ``assign`` maps variables (i, j) to O_L elements; every variable of the
    polynomial must be assigned.  The symbolic layer is imported here, not
    with the module, so that runs without symbolic work never load it.
    """
    from .universal import decode_monomial

    one = ext.tower.one_ol
    return sum((c * prod((assign[var] ** e for var, e in decode_monomial(mono)), start=one)
                for mono, c in poly.terms.items()), start=ext.tower.zero_ol)


def _check_compatible(a: WittVec, b: WittVec):
    if a.ext is not b.ext:
        raise LengthMismatch("Witt vectors belong to different extensions")
    if len(a) != len(b):
        raise LengthMismatch(f"lengths differ: {len(a)} vs {len(b)}")


def frobenius_chain(hi: Tower, a: OLElement) -> list:
    """[a] with its coordinates lifted into the tower ``hi``; ``ghost_level``
    extends it to (a, a^p, a^(p^2), ...) as far as a level needs."""
    return [OLElement(hi, a.coeffs)]


def ghost_level(hi: Tower, chains, n: int) -> list:
    """The coordinates of W_n = sum_{i<=n} p^i a_i^(p^(n-i)) in ``hi``, not
    reduced, where ``chains`` are the Frobenius chains of a_0, a_1, ...;
    chains past level n are ignored.  Each chain is extended only as far
    as level n needs, and a chain whose head is zero is skipped.

    This is the one place where a ghost component is summed.  Two
    truncations bound the work done with it, for a lift ``hi`` of the tower
    to precision at least N+n:

    * a chain may start from any lift of its component mod p^N, so a
      component that is zero mod p^N can be skipped.  If a = b mod p^N,
      then a^q = b^q mod p^(N+j) for q = p^j, so the term
      p^i a_i^(p^(n-i)) moves by a multiple of p^(N+n).  That changes
      neither whether p^n divides W_n minus the lower terms nor the
      quotient mod p^N, which is all that ``_from_ghost`` recovers;
    * one ghost level is enough for a trace-zero prefix.  Component n of
      the Witt trace of (a_0, ..., a_{n-1}, 0) is
      (tr(W_n) - sum_{i<n} p^i z_i^(p^(n-i))) / p^n, where z_i are the
      lower components of that trace.  For a prefix that is trace-zero at
      precision N they are divisible by p^N, so each recovery term has
      valuation at least i + N p^(n-i) >= N + n and vanishes after the
      division by p^n: the component is tr(W_n)/p^n mod p^N, in any lift
      to precision >= N+n.
    """
    p = hi.p
    w = [0] * hi.dim
    for i, chain in enumerate(chains[:n + 1]):
        if chain[0].is_zero:
            continue
        while len(chain) <= n - i:
            chain.append(chain[-1] ** p)
        weight = p ** i
        w = [x + weight * y for x, y in zip(w, chain[n - i].coeffs)]
    return w


def _ghost(hi: Tower, comps) -> list:
    """Ghost components W_0..W_m of ``comps``, their coordinates lifted
    unchanged into ``hi`` (the tower at precision N+m, or at N itself)."""
    chains = [frobenius_chain(hi, c) for c in comps]
    return [hi.element(ghost_level(hi, chains, k)) for k in range(len(chains))]


def _from_ghost(ext, hi: Tower, ghosts) -> WittVec:
    """The Witt vector over ``ext`` whose ghost components in ``hi`` are
    ``ghosts``: z_k = (W_k - sum_{i<k} p^i z_i^(p^(k-i))) / p^k mod p^N,
    each z_i's chain starting from its value mod p^N (``ghost_level``);
    raises IntegralityError where p^k fails to divide."""
    p = ext.p
    comps, chains = [], []
    for k, w in enumerate(ghosts):
        w = [x - y for x, y in zip(w.coeffs, ghost_level(hi, chains, k))]
        pk = p ** k
        if any(x % pk for x in w):
            raise IntegralityError(f"ghost level {k} is not divisible by p^{k}")
        z = ext.tower.element([x // pk for x in w])
        comps.append(z)
        chains.append(frobenius_chain(hi, z))
    return WittVec(ext, tuple(comps))


def witt_combination(hi: Tower, coeffs, ghosts) -> tuple:
    """The ghost components of sum_i coeffs[i] * v_i in ``hi``, for Witt
    vectors v_i given by their ghost components ``ghosts[i]`` there
    (``_ghost``).  The ghost map is additive, so this is one matrix product;
    ``_from_ghost`` recovers the components, in a lift of the tower to
    precision at least N+m for length m+1."""
    levels = [[0] * hi.dim for _ in ghosts[0]]
    for c, ghost in zip(coeffs, ghosts):
        if c:
            levels = [[x + c * y for x, y in zip(acc, w.coeffs)]
                      for acc, w in zip(levels, ghost)]
    return tuple(hi.element(w) for w in levels)


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    """Witt vector sum: the two-term ``witt_combination``."""
    _check_compatible(a, b)
    hi = a.ext.tower.lift(a.ext.N + len(a) - 1)
    ghosts = (_ghost(hi, a.components), _ghost(hi, b.components))
    return _from_ghost(a.ext, hi, witt_combination(hi, (1, 1), ghosts))


def witt_trace(a: WittVec) -> WittVec:
    """The Witt sum of all Galois conjugates of ``a``.

    sigma is a ring map, so the ghost components of the sum are the traces
    of the ghost components of ``a``, taken with ``Tower.trace_matrix`` in
    the lift to N+m.  Component 0 equals the ordinary trace of a_0; the
    vector vanishes exactly on W_{m+1}(O_L)^{tr=0}.
    """
    hi = a.ext.tower.lift(a.ext.N + len(a) - 1)
    return _from_ghost(a.ext, hi, [hi.element(matvec(hi.trace_matrix, w.coeffs, hi.pN))
                                   for w in _ghost(hi, a.components)])
