"""Linear algebra over the chain ring Z/p^N: Howell form, kernels, quotients.

Over Z/p^N every submodule of (Z/p^N)^D has a unique Howell canonical
generating set: rows with strictly increasing pivot columns, each pivot a
power of p, entries above a pivot reduced modulo it, and the span closed
under the "Howell property" (every span element supported on columns >= c
is a combination of the rows with pivot column >= c; this is what the extra
p^(N-k) * row generators enforce).  Uniqueness makes submodule equality a
row-list comparison and membership a single reduction sweep.

Kernels and preimages come from the Howell form of an augmented matrix
[A^T | I]: a row (v | y) records v = A y, so rows with v = 0 generate the
kernel and reducing (b | 0) against the left block solves A x = b.

Finite quotients are presented over the integers and resolved with a small
dense Smith normal form; all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import NoSolution
from .rings import padic_val


@dataclass(frozen=True)
class HowellBasis:
    """Canonical generating rows of a submodule of (Z/p^N)^width."""

    p: int
    N: int
    width: int
    rows: tuple

    @cached_property
    def pivots(self) -> tuple:
        """(column, k) pairs: the pivot at ``column`` is p^k; computed once."""
        out = []
        for row in self.rows:
            col = next(i for i, x in enumerate(row) if x)
            out.append((col, padic_val(row[col], self.p)))
        return tuple(out)

    def order_exponent(self) -> int:
        """log_p of the number of elements in the span."""
        return sum(self.N - k for _, k in self.pivots)

    def __len__(self):
        return len(self.rows)


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
            q = r[col] // p ** k
            r2 = [(x - q * y) % pN for x, y in zip(r, piv)]
            if any(r2):
                rest.append(r2)
        if k > 0:
            extra = [(x * p ** (N - k)) % pN for x in piv]
            if any(extra):
                rest.append(extra)
        basis.append(piv)
        pivots.append((col, k))
        remaining = rest
    # reduce entries above every pivot
    for i, row in enumerate(basis):
        for j in range(i + 1, len(basis)):
            col, k = pivots[j]
            q = row[col] // p ** k
            if q:
                basis[i] = [(x - q * y) % pN for x, y in zip(basis[i], basis[j])]
                row = basis[i]
    return HowellBasis(p, N, width, tuple(tuple(r) for r in basis))


def reduce_against(basis: HowellBasis, vec) -> tuple:
    """Residual of a vector after reduction by the Howell rows."""
    p, pN = basis.p, basis.p ** basis.N
    r = [x % pN for x in vec]
    for row, (col, k) in zip(basis.rows, basis.pivots):
        x = r[col]
        if x and padic_val(x, p) >= k:
            q = x // p ** k
            r = [(a - q * b) % pN for a, b in zip(r, row)]
    return tuple(r)


def member(basis: HowellBasis, vec) -> bool:
    """Decide membership of a vector in the spanned submodule."""
    return not any(reduce_against(basis, vec))


def _augmented_howell(rows, p: int, N: int, width: int) -> HowellBasis:
    aug = []
    n = len(rows)
    for idx, row in enumerate(rows):
        tail = [0] * n
        tail[idx] = 1
        aug.append(list(row) + tail)
    return howell_form(aug, p, N, width + n)


def solve_in_span(rows, target, p: int, N: int):
    """Coefficients y with sum_i y_i rows_i = target, or None.

    Works for any generating rows (not necessarily Howell); the combination
    is read off the augmented Howell form.  Quotients use balanced lifts so
    the particular solution comes out small (e.g. -1 rather than p^N/2 - 1
    when solving 2x = -2 over Z/2^N).
    """
    width = len(target)
    pN = p ** N
    aug = _augmented_howell(rows, p, N, width)
    r = [x % pN for x in target] + [0] * len(rows)
    for row, (col, k) in zip(aug.rows, aug.pivots):
        if col >= width:
            break
        x = r[col]
        if x and padic_val(x, p) >= k:
            rep = x if 2 * x <= pN else x - pN
            q = rep // p ** k
            r = [(a - q * b) % pN for a, b in zip(r, row)]
    if any(r[:width]):
        return None
    return tuple(-x % pN for x in r[width:])


def kernel_columnwise(matrix_rows, p: int, N: int) -> HowellBasis:
    """Howell basis of {x : A x = 0 mod p^N} for A given as a row list.

    A acts in the column convention: (A x)_r = sum_c A[r][c] x[c].
    """
    nrows = len(matrix_rows)
    ncols = len(matrix_rows[0]) if nrows else 0
    transpose = [[matrix_rows[r][c] for r in range(nrows)] for c in range(ncols)]
    aug = _augmented_howell(transpose, p, N, nrows)
    kernel_rows = [row[nrows:] for row in aug.rows if not any(row[:nrows])]
    return howell_form(kernel_rows, p, N, ncols)


def image_columnwise(matrix_rows, p: int, N: int) -> HowellBasis:
    """Howell basis of the column span {A x} of A."""
    nrows = len(matrix_rows)
    ncols = len(matrix_rows[0]) if nrows else 0
    columns = [[matrix_rows[r][c] for r in range(nrows)] for c in range(ncols)]
    return howell_form(columns, p, N, nrows)


def solve_columnwise(matrix_rows, b, p: int, N: int) -> tuple:
    """Some x with A x = b mod p^N; raises NoSolution when b is not reached."""
    nrows = len(matrix_rows)
    ncols = len(matrix_rows[0]) if nrows else 0
    transpose = [[matrix_rows[r][c] for r in range(nrows)] for c in range(ncols)]
    combo = solve_in_span(transpose, b, p, N)
    if combo is None:
        raise NoSolution("target vector is not in the image at precision")
    return combo


def matvec(matrix_rows, x, pN: int) -> tuple:
    return tuple(sum(row[c] * x[c] for c in range(len(x))) % pN for row in matrix_rows)


def is_full_module(basis: HowellBasis) -> bool:
    """True when the span is all of (Z/p^N)^width."""
    ident = tuple(tuple(1 if i == j else 0 for j in range(basis.width))
                  for i in range(basis.width))
    return basis.rows == ident


def smith_invariants(matrix) -> list:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns d_1 | d_2 | ... (nonnegative, zeros dropped).  Plain Euclidean
    pivoting; sizes here stay tiny so no effort is spent on coefficient
    growth.
    """
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    out = []
    k = 0
    while k < min(m, n):
        # locate the smallest nonzero entry in the trailing submatrix
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[k], A[bi] = A[bi], A[k]
        for row in A:
            row[k], row[bj] = row[bj], row[k]
        while True:
            done = True
            for i in range(k + 1, m):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    A[i] = [a - q * b for a, b in zip(A[i], A[k])]
                    if A[i][k]:
                        done = False
            for j in range(k + 1, n):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    for row in A:
                        row[j] -= q * row[k]
                    if A[k][j]:
                        done = False
            if not done:
                # a smaller remainder appeared; re-pivot on it
                best = None
                for i in range(k, m):
                    for j in range(k, n):
                        if A[i][j] and (best is None
                                        or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                            best = (i, j)
                bi, bj = best
                A[k], A[bi] = A[bi], A[k]
                for row in A:
                    row[k], row[bj] = row[bj], row[k]
                continue
            # enforce divisibility of the rest by the pivot
            stumble = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if A[i][j] % A[k][k]:
                        stumble = i
                        break
                if stumble is not None:
                    break
            if stumble is None:
                break
            A[k] = [a + b for a, b in zip(A[k], A[stumble])]
        out.append(abs(A[k][k]))
        k += 1
    return [d for d in out if d]


def quotient_invariants(gen_rows, sub_rows, p: int, N: int) -> tuple:
    """Invariant factors of span(gen_rows) / span(sub_rows) over Z/p^N.

    ``sub_rows`` must generate a submodule of span(gen_rows).  The quotient
    is presented on the generators: its relation module is spanned by the
    coefficient syzygies of the generators, the preimages of the sub-module
    generators, and p^N times the coordinate vectors; the invariant factors
    are read off the integer Smith form of that relation matrix.  Returned
    in descending order, with trivial factors dropped.
    """
    r = len(gen_rows)
    if r == 0:
        if any(any(row) for row in sub_rows):
            raise ValueError("sub_rows do not lie in the span of gen_rows")
        return ()
    pN = p ** N
    width = len(gen_rows[0])
    # syzygies: y with sum_i y_i gen_i = 0, i.e. kernel of the column matrix
    col_matrix = [[gen_rows[i][c] for i in range(r)] for c in range(width)]
    syz = kernel_columnwise(col_matrix, p, N)
    relations = [list(row) for row in syz.rows]
    for b in sub_rows:
        combo = solve_in_span(gen_rows, b, p, N)
        if combo is None:
            raise ValueError("sub_rows do not lie in the span of gen_rows")
        relations.append(list(combo))
    for i in range(r):
        row = [0] * r
        row[i] = pN
        relations.append(row)
    diag = smith_invariants(relations)
    factors = [d for d in diag if d > 1]
    for d in factors:
        q = d
        while q % p == 0:
            q //= p
        if q != 1:
            raise ValueError(f"invariant factor {d} is not a power of p")
    return tuple(sorted(factors, reverse=True))


def group_order(factors) -> int:
    return reduce(lambda a, b: a * b, factors, 1)
