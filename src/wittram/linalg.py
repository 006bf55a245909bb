"""Linear algebra over the chain ring Z/p^N: Howell form, linear maps, quotients.

Over Z/p^N every submodule of (Z/p^N)^D has a unique Howell canonical
generating set: rows with strictly increasing pivot columns, each pivot a
power of p, entries above a pivot reduced modulo it, and the span closed
under the "Howell property" (every span element supported on columns >= c
is a combination of the rows with pivot column >= c; this is what the extra
p^(N-k) * row generators enforce).  The elimination of ``howell_form`` is
the one place that finds pivots; each ``HowellBasis`` keeps its rows'
(column, k) pivots p^k from it.

One sweep (``_reduce``) is every reduction against Howell rows: at each
pivot p^k in a column before a stop column, in order, it replaces the entry
x by its remainder mod p^k, subtracting q times the row for q the quotient
of x's balanced lift (so a solution comes out small: -1 rather than
p^N/2 - 1 for 2x = -2 over Z/2^N).  Rows with a later pivot vanish in that
column, so an entry, once swept, is final.  Now let s be an element of the
span whose entries at the pivot columns before the stop lie below their
pivots.  Then s vanishes before the stop: at its first nonzero column c, s
is a combination of the rows with pivot column >= c (Howell property), so
c is a pivot column p^k and s_c, a multiple of p^k, would lie in (0, p^k).
Hence a residue the sweep leaves before the stop can never be cleared, and
the final zero test decides: a vector lies in the span exactly when it
sweeps to zero (``member``, stop = width).  Two sweeps of one coset differ
by such an s, so a fully swept vector does not depend on the quotients
taken, and the above-pivot pass of ``howell_form`` is the same sweep.  So
is each elimination step, against its pivot row alone: the other rows'
entries in the pivot column have valuation >= k, so they sweep to 0.

A ``LinearMap`` A: (Z/p^N)^n -> (Z/p^N)^h is eliminated once: it keeps the
Howell form H of the rows (A e_c | e_c), c < n, whose span is the graph
{(A x | x)}.  The rows of H with a pivot in the left block, cut to it, are
the Howell form of the image, because the Howell property restricts to
leading columns: an image element supported on columns >= c lifts to an
element of span(H) supported there too, hence to a combination of rows of
H with pivot column >= c.  The rows with a pivot in the right block, cut to
it, are the Howell form of the kernel, by the Howell property at the first
right-block column; their pivots shift by h.  Sweeping (b | 0) with stop h
leaves s + (0 | z) for some s in span(H) exactly when b is in the image,
and then s vanishes on the left block: the sweep leaves (0 | -x) with
A x = b, which is ``solve_columnwise``.  A generating set G = (g_1, ...,
g_n) is the map with columns g_i: its image is span(G), its kernel the
syzygies of G and its solutions the combinations giving a vector.

A finite quotient span(G)/span(S) is presented on the generators G: its
relations are the syzygies of G and the combinations giving S.  The invariant
factors come from a Smith form over Z/p^N itself, which takes one
elimination step per pivot because Z/p^N is a chain ring: an entry of least
valuation divides every other entry.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NoSolution
from .rings import padic_val


class HowellBasis:
    """Canonical generating rows of a submodule of (Z/p^N)^width, with the
    (column, k) pivot of each row: its first nonzero entry, p^k."""

    def __init__(self, p: int, N: int, width: int, rows: tuple, pivots: tuple):
        self.p = p
        self.N = N
        self.width = width
        self.rows = rows
        self.pivots = pivots


def _reduce(r: list, rows, pivots, stop: int, p: int, pN: int) -> list:
    """The sweep of the residues ``r`` against Howell rows with their
    pivots, up to the column ``stop`` (see the module docstring)."""
    for row, (col, k) in zip(rows, pivots):
        if col >= stop:
            break
        x = r[col]
        q = (x if 2 * x <= pN else x - pN) // p ** k
        if q:
            r = [(a - q * b) % pN for a, b in zip(r, row)]
    return r


def howell_form(rows, p: int, N: int, width: int) -> HowellBasis:
    """Canonical Howell form of the span of the given rows."""
    pN = p ** N
    remaining = []
    for row in rows:
        r = [x % pN for x in row]
        if len(r) != width:
            raise ValueError(f"row width {len(r)} != {width}")
        if any(r):
            remaining.append(r)
    basis = []
    pivots = []
    for col in range(width):
        cand = [r for r in remaining if r[col]]
        rest = [r for r in remaining if not r[col]]
        if not cand:
            remaining = rest
            continue
        piv = min(cand, key=lambda r: padic_val(r[col], p))
        cand.remove(piv)
        k = padic_val(piv[col], p)
        unit_inv = pow(piv[col] // p ** k, -1, pN)
        piv = [(x * unit_inv) % pN for x in piv]
        for r in cand:
            r = _reduce(r, (piv,), ((col, k),), width, p, pN)
            if any(r):
                rest.append(r)
        if k > 0:
            extra = [(x * p ** (N - k)) % pN for x in piv]
            if any(extra):
                rest.append(extra)
        basis.append(piv)
        pivots.append((col, k))
        remaining = rest
    for i in range(len(basis)):
        basis[i] = _reduce(basis[i], basis[i + 1:], pivots[i + 1:], width, p, pN)
    return HowellBasis(p, N, width, tuple(map(tuple, basis)), tuple(pivots))


def member(basis: HowellBasis, vec) -> bool:
    """Decide membership of a vector in the spanned submodule: it sweeps
    to zero against the Howell rows.  ValueError on a wrong width."""
    if len(vec) != basis.width:
        raise ValueError(f"vector width {len(vec)} != {basis.width}")
    pN = basis.p ** basis.N
    return not any(_reduce([x % pN for x in vec], basis.rows, basis.pivots,
                           basis.width, basis.p, pN))


class LinearMap:
    """A Z/p^N-linear map (Z/p^N)^width -> (Z/p^N)^len(rows), eliminated once.

    ``rows`` is its matrix in column convention: column c is the image of
    the c-th unit vector.  ``width`` is the column count, which a map with
    no rows cannot tell from its rows.  The Howell form of [columns | I] is
    computed once, on first use; ``image``, ``kernel`` and every
    ``solve_columnwise`` read it.  Maps compare by identity.
    """

    def __init__(self, rows: tuple, p: int, N: int, width: int):
        self.rows = rows
        self.p = p
        self.N = N
        self.width = width

    @cached_property
    def _aug(self) -> HowellBasis:
        """Howell form of the rows (A e_c | e_c), one per column c."""
        n = self.width
        aug = [[row[c] for row in self.rows] + [int(i == c) for i in range(n)]
               for c in range(n)]
        return howell_form(aug, self.p, self.N, len(self.rows) + n)

    @cached_property
    def image(self) -> HowellBasis:
        """Howell form of {A x}: the leading rows of the form, those with a
        pivot in the left block, cut to it."""
        aug, h = self._aug, len(self.rows)
        i = sum(col < h for col, _ in aug.pivots)
        return HowellBasis(self.p, self.N, h, tuple(r[:h] for r in aug.rows[:i]),
                           aug.pivots[:i])

    @cached_property
    def kernel(self) -> HowellBasis:
        """Howell form of {x : A x = 0}: the other rows, cut to the right
        block, their pivots shifted by h."""
        aug, h = self._aug, len(self.rows)
        i = len(self.image.rows)
        return HowellBasis(self.p, self.N, self.width, tuple(r[h:] for r in aug.rows[i:]),
                           tuple((col - h, k) for col, k in aug.pivots[i:]))


def solve_columnwise(lin: LinearMap, b) -> tuple:
    """Some x with A x = b mod p^N; raises NoSolution when b is not in the
    image, ValueError when it has the wrong length: (b | 0) swept with
    stop h against ``lin``'s form leaves (0 | -x) exactly when A x = b."""
    h, aug = len(lin.rows), lin._aug
    if len(b) != h:
        raise ValueError(f"target width {len(b)} != {h}")
    pN = lin.p ** lin.N
    r = _reduce([x % pN for x in b] + [0] * lin.width, aug.rows, aug.pivots,
                h, lin.p, pN)
    if any(r[:h]):
        raise NoSolution("target vector is not in the image at precision")
    return tuple(-x % pN for x in r[h:])


def smith_invariants(rows, p: int, N: int, width: int) -> list:
    """Invariant factors of (Z/p^N)^width / span(rows), ascending.

    One factor per column: each step takes an entry of least valuation k
    (the first unit in row-major order when there is one, found without
    computing any valuation), which divides every remaining entry, clears
    its column in the other rows with the unit inverse of the pivot,
    records p^k and drops that row and column.  A column left without a
    pivot is free and contributes p^N.  Since the remaining entries keep
    valuation >= k, the pivots come out in ascending order.
    """
    pN = p ** N
    A = [[x % pN for x in row] for row in rows]
    cols = list(range(width))
    out = []
    while True:
        # the first unit in row-major order is the least (k, i, j) with k = 0
        best = next(((0, i, j) for i, row in enumerate(A)
                     for j in cols if row[j] % p), None)
        if best is None:
            best = min(((padic_val(row[j], p), i, j) for i, row in enumerate(A)
                        for j in cols if row[j]), default=None)
        if best is None:
            return out + [pN] * len(cols)
        k, i, j = best
        piv = A.pop(i)
        unit_inv = pow(piv[j] // p ** k, -1, pN)
        for row in A:
            q = (row[j] // p ** k) * unit_inv % pN
            if q:
                for c in cols:
                    row[c] = (row[c] - q * piv[c]) % pN
        cols.remove(j)
        out.append(p ** k)


def quotient_invariants(gen_rows, sub_rows, p: int, N: int) -> tuple:
    """Invariant factors of span(gen_rows) / span(sub_rows) over Z/p^N.

    ``sub_rows`` must generate a submodule of span(gen_rows), else
    ValueError.  With r generators the quotient is (Z/p^N)^r modulo the
    kernel of the map whose columns are the generators and the preimages
    of the sub-module generators; its invariant factors are read off the
    Smith form of that relation matrix over Z/p^N.  Returned in descending
    order, with trivial factors dropped.
    """
    lin = LinearMap(tuple(zip(*gen_rows)), p, N, len(gen_rows))
    relations = list(lin.kernel.rows)
    for b in sub_rows:
        try:
            relations.append(solve_columnwise(lin, b))
        except NoSolution:
            raise ValueError("sub_rows do not lie in the span of gen_rows") from None
    factors = smith_invariants(relations, p, N, len(gen_rows))
    return tuple(d for d in reversed(factors) if d > 1)
