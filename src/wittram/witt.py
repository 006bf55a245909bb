"""Truncated p-typical Witt vectors over the ring of integers of L.

A WittVec of length m+1 is a tuple of O_L elements.  Traces (the verify
path) and sums run through the ghost map in a lift of the tower to
precision at least N+m (``Tower.lift``, whose trace comes from E_L, so no
sigma is needed there), on plain coordinates in that lift: a ghost vector
is one flat int list of (m+1)*D coordinates, block k holding W_k, and a
Frobenius chain is a list of coordinate lists (a, a^p, a^(p^2), ...)
powered with ``Tower.flat_pow``.
OLElement and WittVec appear only at this module's boundary.  The
coordinates in [0, p^N) lift the components, their ghost components W_k
are traced or added, and z_k = (W_k - sum_{i<k} p^i z_i^(p^(k-i))) / p^k
is projected back to precision N.  O_L is free over Z_p, so p^k divides an
element iff it divides every coordinate, which is checked
(IntegralityError); z_k is exact modulo p^(N+m-k) >= p^N.  Ghost
components are additive, so ``witt_add`` adds two ghost vectors, and a
combination sum_i c_i v_i is one ``rings.matvec`` of the coefficients
with the transposed ghost vectors.

A vector keeps only its lift ``hi`` and the Frobenius chains of its
components there, each started from the component mod p^N.
``_from_ghost`` keeps the chains it powers to sum each level's lower
terms, ``extended`` appends a chain for one more component and takes no
power, and ``_ghost`` extends the chains as far as the vector's length
needs and sums them on every read (``ghost_level``), so a chain is powered
once however often it is read.  The one rule: a ghost vector is always
summed from the chains of the returned components, so ``witt_trace``, the
one Witt trace (the carry targets of ``cohomology._carry_target`` are its
components), tests those components.

``_ghost``, ``_from_ghost`` and ``extended`` are the only ghost entry
points other modules use; chains are built and extended in this module
alone (``ghost_level``).  The tests compare this path with
``evaluate_poly``, the plain oracle.  ``verify`` calls neither it nor
``witt_add``; the benchmark tracer wraps both.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .errors import IntegralityError, LengthMismatch
from .rings import OLElement, Tower, matvec


class WittVec:
    """A point of W_{m+1}(O_L) at precision; components share one extension.

    Witt vectors compare by identity; compare ``components`` for values.
    ``chains`` are the Frobenius chains of the components in the lift
    ``hi`` (``_chains``), both None until first needed.
    """

    __slots__ = ("ext", "components", "hi", "chains")

    def __init__(self, ext, components: tuple):
        for c in components:
            if not isinstance(c, OLElement) or c.tower is not ext.tower:
                raise ValueError("components must be O_L elements of the extension")
        self.ext = ext
        self.components = components
        self.hi = self.chains = None

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


def ghost_level(hi: Tower, chains, n: int) -> list:
    """The coordinates of W_n = sum_{i<=n} p^i a_i^(p^(n-i)) in ``hi``, not
    reduced, where ``chains`` are the Frobenius chains of a_0, a_1, ...:
    lists of coordinate lists (a_i, a_i^p, a_i^(p^2), ...) in ``hi`` that
    start with the coordinates of a_i; chains past level n are ignored.
    Each chain is extended with ``Tower.flat_pow`` only as far as level n
    needs, and a chain whose head is zero is skipped.

    This is the one place where a ghost component is summed.  In a lift
    ``hi`` of the tower to precision at least N+n, a chain may start from
    any lift of its component mod p^N, so a component that is zero mod p^N
    is skipped.  If a = b mod p^N, then a^q = b^q mod p^(N+j) for q = p^j,
    so the term p^i a_i^(p^(n-i)) moves by a multiple of p^(N+n).  That
    changes neither whether p^n divides W_n minus the lower terms nor the
    quotient mod p^N, which is all that ``_from_ghost`` recovers.
    """
    p = hi.p
    weights, terms = [], []
    for i, chain in enumerate(chains[:n + 1]):
        if any(chain[0]):
            while len(chain) <= n - i:
                chain.append(hi.flat_pow(chain[-1], p))
            weights.append(p ** i)
            terms.append(chain[n - i])
    return [sum(map(mul, weights, col)) for col in zip(*terms)] or [0] * hi.dim


def _chains(hi: Tower, vec: WittVec) -> list:
    """The Frobenius chains of ``vec`` in ``hi``, started at the coordinates
    of its components when it keeps none there; kept on ``vec``."""
    if vec.hi is not hi:
        vec.hi, vec.chains = hi, [[c.coeffs] for c in vec.components]
    return vec.chains


def _ghost(hi: Tower, vec: WittVec) -> list:
    """The ghost vector of ``vec`` in ``hi`` (the tower at precision N+m, or
    at N itself): W_0..W_m mod p^(N+m), D coordinates each, summed on every
    call over the chains ``vec`` keeps there."""
    chains = _chains(hi, vec)
    return [x % hi.pN for k in range(len(chains)) for x in ghost_level(hi, chains, k)]


def _from_ghost(ext, hi: Tower, ghost) -> WittVec:
    """The Witt vector over ``ext`` whose ghost vector in ``hi`` is
    ``ghost``: z_k = (W_k - sum_{i<k} p^i z_i^(p^(k-i))) / p^k mod p^N,
    each z_i's chain starting from its value mod p^N (``ghost_level``);
    raises IntegralityError where p^k fails to divide.  The vector keeps
    those chains, already as long as its own ghost vector needs."""
    p, D, low = ext.p, hi.dim, ext.tower
    chains = []
    for k in range(len(ghost) // D):
        w = [x - y for x, y in zip(ghost[k * D:k * D + D], ghost_level(hi, chains, k))]
        pk = p ** k
        if any(x % pk for x in w):
            raise IntegralityError(f"ghost level {k} is not divisible by p^{k}")
        chains.append([tuple(x // pk % low.pN for x in w)])
    vec = WittVec(ext, tuple(OLElement(low, chain[0]) for chain in chains))
    vec.hi, vec.chains = hi, chains
    return vec


def extended(hi: Tower, vec: WittVec, a: OLElement) -> WittVec:
    """(vec, a), sharing ``vec``'s chains in ``hi`` and starting one for
    ``a``.  No power is taken here: the first ghost read of the result
    takes the one more power per chain that level len(vec) needs."""
    out = WittVec(vec.ext, vec.components + (a,))
    out.hi, out.chains = hi, _chains(hi, vec) + [[a.coeffs]]
    return out


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    """Witt vector sum, through the sum of the two ghost vectors."""
    if a.ext is not b.ext:
        raise LengthMismatch("Witt vectors belong to different extensions")
    if len(a) != len(b):
        raise LengthMismatch(f"lengths differ: {len(a)} vs {len(b)}")
    hi = a.ext.tower.lift(a.ext.N + len(a) - 1)
    return _from_ghost(a.ext, hi, [(x + y) % hi.pN
                                   for x, y in zip(_ghost(hi, a), _ghost(hi, b))])


def witt_trace(a: WittVec) -> WittVec:
    """The Witt sum of all Galois conjugates of ``a``.

    sigma is a ring map, so the ghost components of the sum are the traces
    of the ghost components of ``a``, taken with ``Tower.trace_matrix`` in
    the lift that ``a`` keeps when its precision is at least N+m for length
    m+1, else in the lift to N+m.  Component 0 equals the ordinary trace of
    a_0; the vector vanishes exactly on W_{m+1}(O_L)^{tr=0}.
    """
    need = a.ext.N + len(a) - 1
    hi = a.hi if a.hi is not None and a.hi.N >= need else a.ext.tower.lift(need)
    ghost, D = _ghost(hi, a), hi.dim
    pad = (0,) * (D - a.ext.e_K)
    return _from_ghost(a.ext, hi, [x for k in range(0, len(ghost), D)
                                   for x in matvec(hi.trace_matrix, ghost[k:k + D], hi.pN) + pad])
