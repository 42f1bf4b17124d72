"""Exact integer/rational linear algebra: gcd identities, Smith form, solving, determinants.

Matrices are row-major lists (or tuples) of equal-length rows with int or
Fraction entries; nothing here ever touches floating point.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInput, ShapeError

Rat = Fraction

Matrix = Sequence[Sequence]


def _dims(a: Matrix) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ShapeError("ragged matrix")
    return m, n


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b) >= 0.

    y is reduced to the smallest-absolute-value representative modulo a/g
    (ties resolved to the nonnegative one), which pins the output uniquely.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    g, bx, by = old_r, old_x, old_y
    if g < 0:
        g, bx, by = -g, -bx, -by
    if g == 0:
        return 0, 1, 0
    # reduce the b-coefficient modulo a/g, compensating on the a-side
    mod = abs(a) // g
    if mod:
        by = by % mod
        if 2 * by > mod:
            by -= mod
        bx = (g - by * b) // a
    return g, bx, by


def ext_gcd_multi(values: Sequence[int]) -> tuple[int, list[int]]:
    """gcd of a nonempty integer list together with a Bezout certificate.

    Folds :func:`ext_gcd` left to right from gcd 0 and no coefficients: each
    step scales the certificate by the left-hand coefficient and appends the
    normalized right-hand one, so equal inputs give byte-identical output.
    """
    if not values:
        raise DegenerateInput("ext_gcd_multi needs a nonempty list")
    g, coeffs = 0, []
    for v in values:
        g, x, y = ext_gcd(g, v)
        coeffs = [c * x for c in coeffs] + [y]
    if g == 0:
        raise DegenerateInput("all-zero input to ext_gcd_multi")
    return g, coeffs


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = math.gcd(*v)
    if g == 0:
        return tuple(0 for _ in v)
    return tuple(int(x) // g for x in v)


def mu(v: Sequence) -> int:
    """Least positive integer making v a lattice point: the lcm of the
    denominators of its int or Fraction entries, read without conversion."""
    return math.lcm(*[x.denominator for x in v])


def scale_to_int(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Clear the denominators of int or Fraction entries, on their numerators,
    and make the result primitive."""
    den = mu(v)
    return primitive([x.numerator * (den // x.denominator) for x in v])


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(operator.mul, u, v))


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V is diagonal with a divisibility chain; U, V unimodular, and
    right_inverse is V^-1."""

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    right_inverse: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        """The rank of A: its nonzero invariant factors, which come first."""
        return sum(1 for x in self.diagonal if x != 0)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Matrix) -> SmithForm:
    """Smith normal form by one gcd pivot loop (Cohen 1993, Alg. 2.4.14),
    tracking both unimodular transforms and the inverse of the right one.

    The least nonzero entry, first in row-major order, clears its column and
    row by division with remainder; then a later row with an entry it does not
    divide is added to its row, which leaves a smaller remainder to pivot on.
    """
    m, n = _dims(a)
    d = [[int(x) for x in row] for row in a]
    u = _identity(m)
    v = _identity(n)
    vi = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        vi[j] = [x + q * y for x, y in zip(vi[j], vi[i])]

    k = 0
    while k < min(m, n):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                x = abs(d[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, i, j = best
        d[k], d[i] = d[i], d[k]
        u[k], u[i] = u[i], u[k]
        if j != k:
            for row in (*d, *v):
                row[k], row[j] = row[j], row[k]
            vi[k], vi[j] = vi[j], vi[k]
        p = d[k][k]
        for i in range(k + 1, m):
            if d[i][k] != 0:
                row_op(i, k, d[i][k] // p)
        for j in range(k + 1, n):
            if d[k][j] != 0:
                col_op(j, k, d[k][j] // p)
        if any(d[i][k] for i in range(k + 1, m)) or any(d[k][k + 1 :]):
            continue  # a nonzero remainder is the next pivot
        if abs(p) > 1:  # a unit pivot divides every later entry
            fold = next((i for i in range(k + 1, m) if any(x % p for x in d[i][k + 1 :])), None)
            if fold is not None:
                row_op(k, fold, -1)  # row_k += row_fold
                continue
        if p < 0:
            row_op(k, k, 2)  # row_k = -row_k
        k += 1
    diag = tuple(d[k][k] for k in range(min(m, n)))
    return SmithForm(diag, *(tuple(tuple(r) for r in t) for t in (u, v, vi)))


def determinant(a: Matrix):
    """Exact determinant by integer fraction-free (Bareiss) elimination; a matrix
    with a non-int entry is scaled row by row to integers, then divided back."""
    m, n = _dims(a)
    if m != n:
        raise ShapeError(f"determinant needs a square matrix, got {m}x{n}")
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in a for x in row):
        work, scale = list(a), None  # rows are replaced, never written to
    else:
        scales = [mu(row) for row in a]
        work = [[int(x * s) for x in row] for row, s in zip(a, scales)]
        scale = math.prod(scales)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not work[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if work[i][k]), None)
            if pivot_row is None:
                return 0 if scale is None else Fraction(0)
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pk = work[k][k]
        for i in range(k + 1, n):
            c = work[i][k]
            # the division is exact; columns up to k come out zero
            work[i] = [(x * pk - c * y) // prev for x, y in zip(work[i], work[k])]
        prev = pk
    det = sign * work[n - 1][n - 1]
    return det if scale is None else Fraction(det, scale)


@dataclass(frozen=True)
class Unique:
    x: tuple[Fraction, ...]


@dataclass(frozen=True)
class Inconsistent:
    """certificate y satisfies y @ A = 0 and y . b != 0."""

    certificate: tuple[Fraction, ...]


@dataclass(frozen=True)
class Underdetermined:
    particular: tuple[Fraction, ...]
    nullspace: tuple[tuple[Fraction, ...], ...]


Solution = Unique | Inconsistent | Underdetermined


def smith_solve(sf: SmithForm, b: Sequence) -> Solution:
    """Classify and solve A x = b by back-substitution over U A V = D.

    b is taken as integer numerators over one denominator b_den.  With
    y = V^-1 x the system reads D y = U b: each nonzero d_i fixes
    y_i = (U b)_i / d_i over the common denominator den = lcm(d_i), so every
    unknown is a single Fraction(row . (den y), den * b_den); a nonzero
    (U b)_i past the rank makes it inconsistent with row i of U as
    certificate, and V's trailing columns span the kernel.
    """
    if len(b) != len(sf.left):
        raise ShapeError("right-hand side length mismatch")
    b_den = mu(b)
    b_num = [x.numerator * (b_den // x.denominator) for x in b]
    ub = [dot(row, b_num) for row in sf.left]
    r = sf.rank
    for i in range(r, len(ub)):
        if ub[i] != 0:
            return Inconsistent(tuple(Fraction(x) for x in sf.left[i]))
    den = math.lcm(*sf.diagonal[:r])
    y = [ub[i] * (den // sf.diagonal[i]) for i in range(r)]  # den * b_den * y
    x = tuple(Fraction(dot(row[:r], y), den * b_den) for row in sf.right)
    if r == len(sf.right):
        return Unique(x)
    kernel = tuple(tuple(Fraction(row[k]) for row in sf.right) for k in range(r, len(sf.right)))
    return Underdetermined(x, kernel)


def solve_exact(a: Matrix, b: Sequence) -> Solution:
    """Classify and solve A x = b exactly over the rationals.

    Each row is scaled to integers and the scaled system is solved over its
    Smith form; the certificate is scaled back to satisfy y A = 0.
    """
    if len(b) != len(a):
        raise ShapeError("right-hand side length mismatch")
    scales = [mu(row) for row in a]
    rows = [[int(x * s) for x in row] for row, s in zip(a, scales)]
    sol = smith_solve(smith_normal_form(rows), [Fraction(x) * s for x, s in zip(b, scales)])
    if isinstance(sol, Inconsistent):
        return Inconsistent(tuple(y * s for y, s in zip(sol.certificate, scales)))
    return sol


def matrix_rank(a: Matrix) -> int:
    """Rank by fraction-free elimination; a row with Fraction entries is first
    scaled to a primitive integer row, which keeps the rank."""
    m, n = _dims(a)
    if m == 0 or n == 0:
        return 0
    rows = [list(r) if all(isinstance(x, int) for x in r) else list(scale_to_int(r)) for r in a]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        a0 = pr[col]
        for i in range(rank + 1, m):
            b0 = rows[i][col]
            if b0:
                g = math.gcd(a0, b0)
                fa, fb = a0 // g, b0 // g
                rows[i] = [fa * y - fb * x for y, x in zip(rows[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


def _adapted_basis(
    rows: Sequence[Sequence[int]], n: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int]:
    """Basis of Z^n whose first k members span the saturation of the row
    lattice, its inverse, and k, all read off one Smith form.

    With U A V = D for the rows A, A = U^-1 D V^-1 makes every row a
    combination of the first k = rank rows of V^-1; those rows span a direct
    summand of Z^n that contains A with finite index, i.e. the saturation.
    The rows of V^-1 are the basis, and V is its inverse.
    """
    if not rows:
        ident = [tuple(r) for r in _identity(n)]
        return ident, ident, 0
    sf = smith_normal_form(rows)
    return list(sf.right_inverse), list(sf.right), sf.rank


def saturated_basis(rows: Sequence[Sequence[int]], ambient: int) -> list[tuple[int, ...]]:
    """Basis of the saturation of the row lattice, i.e. of (span rows) cap Z^ambient:
    the first rank members of the adapted basis."""
    basis, _, k = _adapted_basis(rows, ambient)
    return basis[:k]


def invert_unimodular(v: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of a square integer matrix with determinant +-1.

    With U A V = I from the Smith form, A^-1 = V U; any other invariant
    factor means A is not unimodular.
    """
    m, n = _dims(v)
    if m != n:
        raise ShapeError(f"invert_unimodular needs a square matrix, got {m}x{n}")
    sf = smith_normal_form(v)
    if any(x != 1 for x in sf.diagonal):
        raise DegenerateInput(f"matrix is not unimodular (invariant factors {sf.diagonal})")
    return [[dot(row, col) for col in zip(*sf.left)] for row in sf.right]
