"""Exact truncated arithmetic for a two-level Eisenstein tower of local rings.

All scalars live in Z/p^N and are stored as plain ints in [0, p^N).  On top
of the scalar ring sit two monogenic quotients

    O_K = (Z/p^N)[y] / (E_K)      degree e_K, uniformizer pi_K = class of y
    O_L = O_K[x]     / (E_L)      degree p,   uniformizer pi_L = class of x

with both moduli monic and Eisenstein, so the tower models the ring of
integers of a totally ramified extension L / K / Q_p with e(L/Q_p) = p*e_K,
truncated at p-adic precision N.  This module is arithmetic only: it
refuses no data, and ``extensions.build_extension`` is the one place that
checks p, N and the moduli.

There is one element type.  An OLElement is a flat tuple of D = p*e_K
scalars in the monomial basis pi_L^i pi_K^j (i < p, j < e_K), coordinate
i*e_K + j holding the coefficient of pi_L^i pi_K^j.  O_K is the block
i = 0.  A product is a schoolbook product followed by one fold.  The
unreduced monomials pi_L^i pi_K^j (i < 2p-1, j < 2e_K-1) of a product of
two elements get one slot each, i*(2e_K-1) + j, so that the slots of two
monomials add to the slot of their product; ``Tower._slot`` maps each
basis coordinate to its slot.  The D^2 coefficient products land in the
grid, and the slots outside the basis are folded back in stages
(``Tower._fold``), rows from the top down: within each row the columns
j >= e_K fold through the reduced pi_K^j, one integer scalar per target
column, and in the rows i >= p each remaining column folds through E_L into
the rows i-p .. i-1, one scalar per nonzero O_K coordinate of E_L.  A target
that lands outside the basis is folded again when its row comes.  The fold
scalars are stored as signed least residues, so that a scalar such as -7
stays a small int instead of p^N - 7; the grid values may go negative, and
the final reduction mod p^N makes them canonical.  A square visits each
unordered pair of coordinates once and doubles the off-diagonal terms, so
it makes about half the coefficient products of a general product.  Every
product in O_L is this one (``Tower.flat_mul``), the powers of pi_L
(``Tower.pi_L_power``) included.  The one-step shift by pi_K, which shifts
within every O_K block and reduces by E_K, builds the fold itself, the O_K
blocks of ``Tower.from_rows`` and the columns of ``Tower.ok_linear_matrix``.

Valuations are L-normalized: v_L(pi_L) = 1, v_L(pi_K) = p, v_L(p) = e_L =
p*e_K.  The monomials pi_L^i pi_K^j have pairwise distinct valuations
p*j + i modulo e_L, and a scalar coordinate c contributes e_L * v_p(c); by
the non-archimedean property the valuation of a nonzero element is
therefore the minimum of e_L*v_p(c_ij) + p*j + i over its nonzero
coordinates.  On O_K the K-normalized valuation is v_L / p.

Valuations are plain ints.  A nonzero coordinate c < p^N has v_p(c) <= N-1,
so a nonzero element has v_L <= (N-1)*e_L + p*(e_K-1) + (p-1) = N*e_L - 1:
every exact valuation lies below the horizon ``Tower.horizon_L`` = N*e_L.
An element that vanishes at precision gets the horizon itself, which reads
"at least the horizon", never infinity; v_K maps it to ``Tower.horizon_K``
= N*e_K.  So ``v < horizon`` says the valuation is exact, and a bound below
the horizon is decided by one comparison either way.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul


def padic_val(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("padic_val(0) is undefined; handle zero separately")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class OLElement:
    """An element of O_L: flat coordinates, index i*e_K + j for pi_L^i pi_K^j."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: "Tower", coeffs: tuple):
        self.tower = tower
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, OLElement):
            if other.tower is not self.tower:
                raise ValueError("elements belong to different towers")
            return other
        if isinstance(other, int):
            return self.tower.ol_const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pN = self.tower.pN
        return OLElement(self.tower, tuple((a + b) % pN for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        pN = self.tower.pN
        return OLElement(self.tower, tuple(-a % pN for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OLElement(self.tower, tuple(self.tower.flat_mul(self.coeffs, o.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        if n == 0:
            return self.tower.one_ol
        return OLElement(self.tower, tuple(self.tower.flat_pow(self.coeffs, n)))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def lies_in_K(self) -> bool:
        """True when only the O_K block (the pi_L^0 coordinates) is nonzero."""
        return not any(self.coeffs[self.tower.e_K:])

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __repr__(self):
        return f"OL{self.coeffs}"


class Tower:
    """The truncated two-level tower (Z/p^N) -> O_K -> O_L.

    ``base_coeffs`` are the non-leading integer coefficients of E_K (length
    e_K) and ``top_coeffs`` the non-leading coefficients of E_L (length p),
    each given as a coordinate list over O_K.  ``E_K`` keeps the integer
    coefficients and ``E_L`` the coefficients as elements of O_K.  The
    tower is arithmetic over the integers it is given and checks none of
    them: ``extensions.build_extension`` refuses every p that is not prime,
    every N < 1, and moduli of the wrong degrees or not Eisenstein, before
    it builds a tower.
    """

    def __init__(self, p: int, N: int, base_coeffs, top_coeffs):
        self.p = p
        self.N = N
        self.pN = p ** N
        self._data = (tuple(base_coeffs), tuple(top_coeffs))
        self._lifts = {N: self}
        self.e_K = len(base_coeffs)
        self.e_L = p * self.e_K
        self.dim = p * self.e_K
        self.horizon_L = N * self.e_L
        self.horizon_K = N * self.e_K

        self.E_K = tuple(c % self.pN for c in base_coeffs)
        self.E_L = tuple(self.element(self._ok_block(c)) for c in top_coeffs)

        self._slot, self._fold = self._build_slots()

        self.zero_ol = self.element(())
        self.one_ol = self.ol_const(1)
        self.pi_L = self.element((0,) * self.e_K + (1,))
        self._pi_L_powers = [self.one_ol]

    def lift(self, N: int) -> "Tower":
        """The same tower at precision N, rebuilt from the integer data as
        given, once per precision.  It checks nothing: Eisenstein data stay
        Eisenstein at any higher precision, so the build's checks hold for
        every lift above N."""
        if N not in self._lifts:
            self._lifts[N] = Tower(self.p, N, *self._data)
        return self._lifts[N]

    @cached_property
    def trace_matrix(self) -> tuple:
        """tr_{L/K} as the e_K x D matrix of a map O_L -> O_K: column c
        holds the O_K coordinates of the trace of monomial c.

        It is O_K-linear, so only s_i = tr(pi_L^i), i < p, is needed: the
        i-th power sum of the roots of E_L = x^p + c_{p-1} x^{p-1} + ... + c_0,
        by Newton's identities s_0 = p and s_i = -i c_{p-i} - sum_{0<j<i}
        c_{p-j} s_{i-j} in O_K (Serre, *Local Fields*, ch. III).  No Galois
        action enters, so every lift of the tower has its trace.
        """
        p, c = self.p, self.E_L
        sums = [self.ol_const(p)]
        for i in range(1, p):
            s_i = c[p - i] * -i
            for j in range(1, i):
                s_i -= c[p - j] * sums[i - j]
            sums.append(s_i)
        return self.ok_linear_matrix([s.coeffs[:self.e_K] for s in sums])

    def ok_linear_matrix(self, images) -> tuple:
        """Rows of the O_K-linear map sending pi_L^i to the coordinate
        vector images[i], i < p, in O_L (length D) or in O_K (length e_K).

        Column i*e_K + j is images[i] * pi_K^j.
        """
        cols = []
        for col in images:
            cols.append(col)
            for _ in range(self.e_K - 1):
                col = self._times_pi_K(col)
                cols.append(col)
        return tuple(zip(*cols))

    # -- constructors -------------------------------------------------

    def element(self, coeffs) -> OLElement:
        """Element from flat coordinates; missing trailing ones are zero."""
        if len(coeffs) > self.dim:
            raise ValueError(f"{len(coeffs)} coordinates exceed the rank {self.dim}")
        vec = tuple(c % self.pN for c in coeffs)
        return OLElement(self, vec + (0,) * (self.dim - len(vec)))

    def ol_const(self, c: int) -> OLElement:
        return self.element((c,))

    def from_rows(self, rows) -> OLElement:
        """sum_i (sum_j rows[i][j] pi_K^j) pi_L^i, one O_K coordinate list
        per power of pi_L; lists may run past the degrees of the moduli.
        Row 0 is an O_K block; each row i >= 1 is one product with pi_L^i."""
        acc = self.element(self._ok_block(rows[0]) if rows else ())
        for i, row in enumerate(rows[1:], 1):
            acc += self.element(self._ok_block(row)) * self.pi_L_power(i)
        return acc

    def pi_L_power(self, k: int) -> OLElement:
        """pi_L^k, from a table extended by one product with pi_L per power."""
        powers = self._pi_L_powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.pi_L)
        return powers[k]

    # -- reduction and multiplication ----------------------------------

    def _ok_block(self, value) -> list:
        """O_K coordinates of sum_j value[j] pi_K^j."""
        acc = [0] * self.e_K
        for c in reversed(value):
            acc = self._times_pi_K(acc)
            acc[0] = (acc[0] + c) % self.pN
        return acc

    def _times_pi_K(self, vec) -> list:
        """vec * pi_K: shift every O_K block up one place, reduce by E_K."""
        e, pN = self.e_K, self.pN
        out = []
        for i in range(0, len(vec), e):
            c = vec[i + e - 1]
            shifted = [0] + list(vec[i:i + e - 1])
            out.extend((a - c * k) % pN for a, k in zip(shifted, self.E_K))
        return out

    def _build_slots(self):
        """The product grid: slot i*(2e_K-1) + j holds the monomial
        pi_L^i pi_K^j for i < 2p-1, j < 2e_K-1.  Returns the slot of each
        basis coordinate, and the staged fold: for each slot outside the
        basis, in the order ``flat_mul`` folds them, the (target slot,
        scalar) pairs it is folded into.

        Rows are folded from the top down.  In every row the columns j >= e_K
        fold into the same row's columns below e_K through the reduced pi_K^j
        (E_K has integer coefficients, so each target takes one scalar).  In
        a row i >= p each column l < e_K then folds into rows i-p+k at
        columns l+l', one pair per nonzero O_K coordinate l' of -E_L[k].
        Every target lies in a lower row, or left of the columns being
        folded, so it is folded in turn if it lies outside the basis."""
        p, e = self.p, self.e_K
        width = 2 * e - 1
        slot = tuple(i * width + j for i in range(p) for j in range(e))
        # the reduced pi_K^j for e_K <= j < 2e_K-1, as (column, scalar) pairs
        ok_powers = []
        vec = [0] * (e - 1) + [1]
        for _ in range(e, width):
            vec = self._times_pi_K(vec)
            ok_powers.append(tuple((l, c) for l, c in enumerate(vec) if c))
        # pi_L^p = -(c_0 + ... + c_{p-1} pi_L^{p-1}), as (slot offset, scalar)
        # pairs from row i to i-p+k
        drops = [((k - p) * width + l, -c % self.pN)
                 for k, c_k in enumerate(self.E_L) for l, c in enumerate(c_k.coeffs[:e]) if c]
        # signed least residues (see the module docstring)
        half = self.pN // 2
        ok_powers = [tuple((l, c - self.pN if c > half else c) for l, c in vec)
                     for vec in ok_powers]
        drops = [(d, c - self.pN if c > half else c) for d, c in drops]
        fold = []
        for i in reversed(range(2 * p - 1)):
            base = i * width
            for j, vec in enumerate(ok_powers, e):
                fold.append((base + j, tuple((base + l, c) for l, c in vec)))
            if i >= p:
                for l in range(e):
                    fold.append((base + l, tuple((base + l + d, c) for d, c in drops)))
        return slot, tuple(fold)

    def flat_mul(self, x, y) -> list:
        """Product of flat coordinate vectors: schoolbook into the product
        grid (the slots add like the exponents), each slot outside the
        basis folded into the basis slots, then one reduction mod p^N.
        A square (``x is y``) visits each unordered pair of coordinates
        once and doubles the off-diagonal terms."""
        slot = self._slot
        ys = [(sb, cb) for sb, cb in zip(slot, y) if cb]
        grid = [0] * (2 * slot[-1] + 1)  # the top slot is twice the top basis slot
        if x is y:
            for k, (sa, ca) in enumerate(ys):
                grid[sa + sa] += ca * ca
                ca += ca
                for sb, cb in ys[k + 1:]:
                    grid[sa + sb] += ca * cb
        else:
            for sa, ca in zip(slot, x):
                if ca:
                    for sb, cb in ys:
                        grid[sa + sb] += ca * cb
        for s, vec in self._fold:
            c = grid[s]
            if c:
                for sk, v in vec:
                    grid[sk] += c * v
        pN = self.pN
        return [grid[s] % pN for s in slot]

    def flat_pow(self, x, n: int):
        """x^n for n >= 1 on flat coordinates, by square-and-multiply from
        the leading bit of n (each square a ``flat_mul`` of x with itself);
        x itself when n = 1."""
        result = x
        for bit in bin(n)[3:]:
            result = self.flat_mul(result, result)
            if bit == "1":
                result = self.flat_mul(result, x)
        return result


def matvec(matrix_rows, x, pN: int) -> tuple:
    """The matrix (a tuple of rows) times the coordinate vector x, mod pN."""
    return tuple(sum(map(mul, row, x)) % pN for row in matrix_rows)


# -- valuations ----------------------------------------------------------


def valuation_L(a: OLElement) -> int:
    """L-normalized valuation: v_L(pi_L) = 1, v_L(pi_K) = p, v_L(p) = e_L;
    ``horizon_L`` when ``a`` vanishes at precision."""
    tower = a.tower
    best = tower.horizon_L
    for idx, c in enumerate(a.coeffs):
        if c:
            i, j = divmod(idx, tower.e_K)
            v = tower.e_L * padic_val(c, tower.p) + tower.p * j + i
            if v < best:
                best = v
    return best


def valuation_K(a: OLElement) -> int:
    """K-normalized valuation v_K = v_L / p of an element of O_K;
    ``horizon_K`` = horizon_L / p when ``a`` vanishes at precision."""
    if not a.lies_in_K:
        raise ValueError("element does not lie in O_K")
    return valuation_L(a) // a.tower.p
