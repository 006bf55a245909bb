"""Universal polynomials for p-typical Witt vector addition.

Everything here is exact symbolic computation with integer coefficients
in the doubly indexed variables X_{i,j} (summand index i, Witt level j).
The level-n addition law z_n is obtained by solving the ghost-component
equations

    sum_i W_n(X_{i,0}, ..., X_{i,n}) = W_n(z_0, ..., z_n),
    W_n(X_0, ..., X_n) = sum_k p^k X_k^(p^(n-k)),

for z_n level by level.  Each solve builds the telescoped ghost difference

    T(n, upto) = sum_{k<upto} p^k (sum_i X_{i,k}^(p^(n-k)) - z_k^(p^(n-k)))

in integers and divides it by p^n exactly once.  The classical theory
guarantees the quotient has integer coefficients and no constant term; the
division raises IntegralityError on any remainder and the constant term is
checked, so the certificate doubles as a correctness check on the solve.
(Dividing each summand by its own p^(n-k) would not do: at p = 2,
(X^4 + Y^4 - (X + Y)^4)/4 alone is not integral.)

The numerical Witt arithmetic does not evaluate these polynomials: it
runs through the ghost map (see ``witt``).  They are the objects of the
symbolic suite and the ``witt-poly`` command, and the tests evaluate them
as an independent oracle for the ghost path.  Besides z_n there are two
derived families:

* the level-n carry f_n = z_n - sum_i X_{i,n} = T(n, n)/p^n; every
  monomial of f_n has total degree >= p;

* the carry residue g returned by ``carry_residue_polynomial(p, n)``, which
  splits the carry as p f_n = p g + sum_i X_{i,n-1}^p - z_{n-1}^p -
  (-f_{n-1})^p, so g = (T(n, n-1) + p^(n-1) (-f_{n-1})^p)/p^n; every
  monomial of g has total degree >= p^2.

Each monomial is packed into one Python int of fixed-width exponent
fields (Monagan & Pearce, CASC 2007): field 0 holds the total degree and
field c(i, j) + 1 the exponent of X_{i,j}, where c(i, j) = (i + j)(i + j +
1)/2 + j is the Cantor index of the pair, so the layout depends on nothing
but (i, j).  The constant monomial is 0, and the product of two monomials is
the sum of their ints.  Every exponent is at most the total degree, so a
product whose degree fits in a field cannot carry into the next one; a
product whose degree would not fit raises ResourceLimit instead of wrapping.
Monomials are decoded back to ((i, j), e) pairs only for output and
evaluation, and rendered in graded lexicographic order with the variables
X_{i,j} ordered by (j, i), so the serialized output is byte-stable and
suitable for golden files.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from struct import pack

from .errors import TERM_LIMIT, IntegralityError, ResourceLimit, sha256

# Bits per exponent field, and the bound on i + j for a variable X_{i,j}: it
# keeps a packed monomial within (64 * 65 / 2 + 1) fields of 32 bits.
_WIDTH = 32
_MASK = (1 << _WIDTH) - 1
_MAX_DIAGONAL = 64


def _cantor_pair(c: int) -> tuple:
    """The variable (i, j) whose Cantor index is c."""
    w = (isqrt(8 * c + 1) - 1) // 2
    j = c - w * (w + 1) // 2
    return (w - j, j)


def _factor_key(factor):
    (i, j), _ = factor
    return (j, i)


def decode_monomial(mono: int) -> tuple:
    """The ((i, j), e) pairs of a packed monomial, sorted by (j, i).

    Peels the highest nonzero field off at each step, so the cost grows with
    the number of variables present, not with the width of the layout.
    """
    factors = []
    mono >>= _WIDTH
    while mono:
        c = (mono.bit_length() - 1) // _WIDTH
        e = mono >> (_WIDTH * c)
        factors.append((_cantor_pair(c), e))
        mono -= e << (_WIDTH * c)
    factors.sort(key=_factor_key)
    return tuple(factors)


@lru_cache(maxsize=None)
def _rendered_factor(c: int, e: int) -> tuple:
    """The sort key bytes and the text " i:j^e" of the factor X_{i,j}^e in
    field c + 1, rendered once per (field, exponent)."""
    i, j = _cantor_pair(c)
    return pack(">3I", j, i, _MASK - e), f" {i}:{j}^{e}"


@lru_cache(maxsize=None)
def _rendered(mono: int) -> tuple:
    """The output sort key of a packed monomial and its text, " i:j^e" per
    factor in (j, i) order (empty for the constant monomial); built once
    per monomial, since the polynomial families share most of theirs, from
    the rendered factors.

    Graded lex, descending: higher degree first, then larger exponent on
    the earliest variable in the (j, i) order.  The key is bytes of 32-bit
    big-endian fields (_MASK - degree), then j, i, (_MASK - e) per factor,
    which compare like the tuple (-degree, ((j, i), -e), ...); the factor
    keys themselves sort the factors, since no two share (j, i).  The
    fields are peeled as in ``decode_monomial``, without decoding them.
    """
    factors = []
    rest = mono >> _WIDTH
    while rest:
        c = (rest.bit_length() - 1) // _WIDTH
        e = rest >> (_WIDTH * c)
        factors.append(_rendered_factor(c, e))
        rest -= e << (_WIDTH * c)
    factors.sort()
    return (pack(">I", _MASK - (mono & _MASK)) + b"".join([k for k, _ in factors]),
            "".join([text for _, text in factors]))


def _max_degree(terms: dict) -> int:
    return max(m & _MASK for m in terms)


class SymPoly:
    """Sparse multivariate polynomial with integer coefficients.

    ``terms`` maps packed monomials (see the module docstring) to nonzero
    ints; every operation drops the coefficients that cancel, so the
    constructor takes the dict as it is.  Instances are immutable by
    convention: the term dict is created fresh by every operation and never
    mutated afterwards, which makes the cached polynomial families and the
    memoized powers (``__pow__``) safe to share.
    """

    __slots__ = ("terms", "_powers")

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "SymPoly":
        return SymPoly()

    @staticmethod
    def const(c: int) -> "SymPoly":
        return SymPoly({0: c} if c else None)

    @staticmethod
    def var(i: int, j: int) -> "SymPoly":
        if i < 0 or j < 0:
            raise ValueError(f"variable indices must be >= 0, got ({i}, {j})")
        w = i + j
        if w >= _MAX_DIAGONAL:
            raise ResourceLimit(f"variable X_{{{i},{j}}} lies outside the packed "
                                f"monomial layout (i + j must be < {_MAX_DIAGONAL})")
        return SymPoly({1 << (_WIDTH * (w * (w + 1) // 2 + j + 1)) | 1: 1})

    # -- arithmetic -------------------------------------------------------

    def _plus(self, other: "SymPoly", sign: int) -> "SymPoly":
        # the copy keeps the stored hashes; only other's monomials are hashed
        out = dict(self.terms)
        for mono, c in other.terms.items():
            c = out.get(mono, 0) + sign * c
            if c:
                out[mono] = c
            else:
                del out[mono]
        return SymPoly(out)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "SymPoly":
        return SymPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return SymPoly()
        degree = _max_degree(a) + _max_degree(b)
        if degree > _MASK:
            raise ResourceLimit(f"a product of total degree {degree} does not "
                                f"fit the {_WIDTH}-bit exponent field")
        out = {}
        get = out.get
        b = list(b.items())
        for m1, c1 in a.items():
            for m2, c2 in b:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return SymPoly(out)

    def __pow__(self, n: int) -> "SymPoly":
        """self^n, memoized on the instance.

        A one-term base takes its power in closed form (monomial times n,
        coefficient to the n).  A longer one is built by repeated
        multiplication from the largest power memoized so far, and every
        power on the way is kept: dense multivariate powers are cheaper
        that way than by repeated squaring (Fateman, Stud. Appl. Math.
        1974), and the universal polynomials take the same power of the
        same z_k more than once.  The degree is checked before any product:
        a power whose total degree would not fit the exponent field raises
        ResourceLimit at once.
        """
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        if n < 2:
            return SymPoly.const(1) if n == 0 else self
        powers = getattr(self, "_powers", None)  # powers[k - 2] is self^k
        if powers is not None and n - 2 < len(powers):
            return powers[n - 2]
        terms = self.terms
        if not terms:
            return self
        degree = _max_degree(terms) * n
        if degree > _MASK:
            raise ResourceLimit(f"a power of total degree {degree} does not "
                                f"fit the {_WIDTH}-bit exponent field")
        if len(terms) == 1:
            [(mono, c)] = terms.items()
            return SymPoly({mono * n: c ** n})
        if powers is None:
            powers = self._powers = []
        power = powers[-1] if powers else self
        while len(powers) < n - 1:
            power = power * self
            powers.append(power)
        return power

    def scale(self, c: int) -> "SymPoly":
        if c == 0:
            return SymPoly.zero()
        return SymPoly({m: c * co for m, co in self.terms.items()})

    def exact_div(self, d: int, label: str) -> "SymPoly":
        """Divide every coefficient by d; raise IntegralityError on a remainder."""
        out = {}
        for mono, c in self.terms.items():
            q, r = divmod(c, d)
            if r:
                raise IntegralityError(f"{label} has a non-integer coefficient")
            out[mono] = q
        return SymPoly(out)

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def has_constant_term(self) -> bool:
        return 0 in self.terms

    @property
    def min_total_degree(self):
        """Smallest total degree among monomials, or None for the zero poly."""
        if not self.terms:
            return None
        return min(m & _MASK for m in self.terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.terms == other.terms

    # -- substitution -----------------------------------------------------

    def substitute(self, table: dict) -> "SymPoly":
        """Replace each variable found in ``table`` by the given SymPoly.

        Each term is the product of its factor powers, scaled by its
        coefficient; the powers of a table entry are memoized on it.
        """
        out = SymPoly.zero()
        for mono, coeff in self.terms.items():
            term = None
            for var, e in decode_monomial(mono):
                base = table.get(var)
                if base is None:
                    base = SymPoly.var(*var)
                got = base ** e
                term = got if term is None else term * got
            out = out + (SymPoly.const(coeff) if term is None else term.scale(coeff))
        return out

    # -- canonical serialization -----------------------------------------

    def canonical_lines(self):
        """One line per term, in graded lex descending order: coefficient,
        then "i:j^e" pairs in (j, i) order."""
        rows = []
        for mono, coeff in self.terms.items():
            key, text = _rendered(mono)
            rows.append((key, str(coeff) + text))
        rows.sort()
        return [line for _, line in rows]

    def digest(self) -> str:
        return sha256("\n".join(self.canonical_lines()).encode()).hexdigest()

    def __repr__(self):
        if self.is_zero:
            return "SymPoly(0)"
        return "SymPoly(" + "; ".join(self.canonical_lines()) + ")"


def format_polynomial(poly: SymPoly) -> str:
    """Canonical exchange format: newline-joined term lines (empty for 0)."""
    return "\n".join(poly.canonical_lines())


def structure_check(poly: SymPoly, required_min_degree: int) -> bool:
    """Certify no constant term and a floor on the total degree."""
    min_deg = poly.min_total_degree
    return not poly.has_constant_term and (
        min_deg is None or min_deg >= required_min_degree)


def _guard(p: int, n: int, arity: int):
    # dense bound: monomials of total degree <= d = p^n in arity*(n+1)
    # variables, C(d + nvars, nvars).  Both d and the binomial grow with every
    # factor, so each is built up only until it passes TERM_LIMIT: a huge
    # level or arity is refused without forming a huge integer.
    nvars = arity * (n + 1)
    degree = 1
    for _ in range(n):
        degree *= p
        if degree > TERM_LIMIT:
            break
    projected = 1
    for i in range(1, nvars + 1):
        projected = projected * (degree + i) // i
        if projected > TERM_LIMIT:
            raise ResourceLimit(
                f"projected dense term count for (p={p}, n={n}, "
                f"arity={arity}) exceeds the limit {TERM_LIMIT}"
            )


def ghost_polynomial(p: int, n: int) -> SymPoly:
    """The level-n ghost component W_n = sum_k p^k X_k^(p^(n-k)).

    Variables are addressed as (0, k), i.e. the level index in row 0, so the
    result can be fed to ``substitute`` with arbitrary replacement tables.
    """
    if n < 0:
        raise ValueError("ghost level must be >= 0")
    out = SymPoly.zero()
    for k in range(n + 1):
        out = out + (SymPoly.var(0, k) ** (p ** (n - k))).scale(p ** k)
    return out


def _telescoped(p: int, arity: int, zs, n: int, upto: int) -> SymPoly:
    """T(n, upto) = sum_{k<upto} p^k (sum_i X_{i,k}^(p^(n-k)) - z_k^(p^(n-k)))."""
    out = SymPoly.zero()
    for k in range(upto):
        q = p ** (n - k)
        block = SymPoly.zero()
        for i in range(arity):
            block = block + SymPoly.var(i, k) ** q
        out = out + (block - zs[k] ** q).scale(p ** k)
    return out


def _certified(poly: SymPoly, d: int, label: str) -> SymPoly:
    """poly / d, certified integral (exact division) with no constant term."""
    out = poly.exact_div(d, label)
    if out.has_constant_term:
        raise IntegralityError(f"{label} has a constant term")
    return out


@lru_cache(maxsize=None)
def sum_polynomials(p: int, n: int, arity: int) -> tuple:
    """The Witt addition laws z_0..z_n for ``arity`` summands.

    z_k = sum_i X_{i,k} + T(k, k)/p^k, certified integral with no constant
    term.  Raises ResourceLimit, before any level is built, when the dense
    monomial bound of level n exceeds TERM_LIMIT; the bound grows with
    the level, so no lower level can exceed it first.
    """
    if arity < 2:
        raise ValueError("arity must be >= 2")
    if n < 0:
        raise ValueError("level must be >= 0")
    _guard(p, n, arity)
    zs = []
    for k in range(n + 1):
        z_k = _certified(_telescoped(p, arity, zs, k, k), p ** k,
                         f"z_{k} (p={p}, arity={arity})")
        for i in range(arity):
            z_k = z_k + SymPoly.var(i, k)
        zs.append(z_k)
    return tuple(zs)


@lru_cache(maxsize=None)
def carry_polynomial(p: int, n: int) -> SymPoly:
    """The level-n addition carry for p summands (CLI name: f).

    f_0 = 0, and f_n = z_n - sum_i X_{i,n} = T(n, n)/p^n for n >= 1, read
    off the certified addition law z_n of ``sum_polynomials(p, n, p)``, which
    refuses the same inputs.  Every monomial has total degree >= p.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if n == 0:
        return SymPoly.zero()
    z_n = sum_polynomials(p, n, p)[n]
    return z_n - sum((SymPoly.var(i, n) for i in range(p)), SymPoly.zero())


@lru_cache(maxsize=None)
def carry_residue_polynomial(p: int, n: int) -> SymPoly:
    """The residue of the level-n carry split (CLI name: g).

    For n >= 1 this is the polynomial g with

        p f_n = p g + sum_i X_{i,n-1}^p - z_{n-1}^p - (-f_{n-1})^p,

    i.e. g = (T(n, n-1) + p^(n-1) (-f_{n-1})^p)/p^n.  It vanishes for n = 1,
    is certified integral with no constant term, and for n >= 2 every
    monomial has total degree >= p^2.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    if n == 1:
        return SymPoly.zero()
    _guard(p, n, p)
    zs = sum_polynomials(p, n - 2, p)
    f_prev = carry_polynomial(p, n - 1)
    block = _telescoped(p, p, zs, n, n - 1) + ((-f_prev) ** p).scale(p ** (n - 1))
    return _certified(block, p ** n, f"carry residue for level {n} (p={p})")
