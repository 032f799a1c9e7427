"""Exact dense matrices and rational subspaces.

Everything here is arbitrary precision: entries are Python ints or
fractions.Fraction.  Determinants use fraction-free Bareiss elimination,
characteristic polynomials use the division-free Berkowitz recursion, and
subspaces are kept in reduced row echelon form so that equality of
subspaces is equality of representations.

Elimination is integer-first: rref scales each row to integers and
eliminates by cross-multiplication, and only the emitted rows are divided
by their pivots, so a Fraction appears only in an entry that is not an
integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .intpoly import (Polynomial, _norm_scalar, cyclotomic, cyclotomic_product,
                      cyclotomic_split, euler_phi, _orders_with_totient_at_most)


class DimensionError(ValueError):
    """Shapes do not match the operation."""


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with exact entries."""

    rows: tuple

    @staticmethod
    def from_rows(rows) -> "Matrix":
        data = tuple(tuple(_norm_scalar(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("ragged rows")
        return Matrix(data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def block_diag(*blocks: "Matrix") -> "Matrix":
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        rows = [[0] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[r0 + i][c0 + j] = b.rows[i][j]
            r0 += b.nrows
            c0 += b.ncols
        return Matrix.from_rows(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.rows for x in row)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(tuple(
            tuple(_norm_scalar(a + b) for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(tuple(
            tuple(_norm_scalar(a - b) for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        ))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        cols = tuple(zip(*other.rows))
        return Matrix(tuple(
            tuple(_norm_scalar(sum(map(mul, row, col))) for col in cols)
            for row in self.rows
        ))

    def matvec(self, v) -> tuple:
        if len(v) != self.ncols:
            raise DimensionError("vector length does not match")
        return tuple(_norm_scalar(sum(a * b for a, b in zip(row, v))) for row in self.rows)

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square:
            raise DimensionError("power of a non-square matrix")
        if k == 1:
            return self
        if k < 0:
            return self.inverse() ** (-k)
        out = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows)))

    def det(self):
        """Exact determinant by fraction-free Bareiss elimination on the
        matrix scaled to integer entries: det A = det(LA) / L**n, with L
        the common denominator of the entries."""
        if not self.is_square:
            raise DimensionError("determinant of a non-square matrix")
        n = self.nrows
        den = lcm(*(x.denominator for row in self.rows for x in row))
        m = [[int(x * den) for x in row] for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            top = m[k]
            p = top[k]
            for row in m[k + 1:]:
                f = row[k]
                for j in range(k + 1, n):
                    q, r = divmod(row[j] * p - f * top[j], prev)
                    if r:
                        raise ArithmeticError("inexact division in fraction-free elimination")
                    row[j] = q
                row[k] = 0
            prev = p
        return _norm_scalar(Fraction(sign * m[n - 1][n - 1], den ** n))

    def inverse(self) -> "Matrix":
        """Exact inverse: the right half of the reduced row echelon form
        of [A | I], which has a pivot past column n exactly when A is
        singular."""
        if not self.is_square:
            raise DimensionError("inverse of a non-square matrix")
        n = self.nrows
        rows, pivots = rref([row + tuple(int(i == j) for j in range(n))
                             for i, row in enumerate(self.rows)])
        if pivots[-1] >= n:
            raise ValueError("matrix is singular")
        return Matrix(tuple(row[n:] for row in rows))

    def char_poly(self) -> Polynomial:
        """Monic characteristic polynomial det(xI - A), by the
        division-free Berkowitz recursion."""
        if not self.is_square:
            raise DimensionError("characteristic polynomial of a non-square matrix")
        coeffs_high_first = _berkowitz(self.rows)
        return Polynomial.from_coeffs(tuple(reversed(coeffs_high_first)))

    @cached_property
    def spectrum(self) -> "Spectrum":
        """Root-of-unity eigenvalues, computed at most once per matrix."""
        cp = self.char_poly()
        orders = _orders_with_totient_at_most(self.nrows)
        factors, rest = cyclotomic_split(cp, orders)
        return Spectrum(self, cp, orders, tuple(factors), rest)

    def _same_shape(self, other: "Matrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError("shapes do not match")


def _berkowitz(rows) -> list:
    """Characteristic polynomial coefficients, highest degree first."""
    n = len(rows)
    if n == 1:
        return [1, -rows[0][0]]
    a = rows[0][0]
    top = rows[0][1:]
    left = [row[0] for row in rows[1:]]
    minor = [row[1:] for row in rows[1:]]
    # v = [1, -a, -R C, -R M C, ..., -R M^(n-2) C]
    v = [1, -a]
    w = left
    for _ in range(n - 1):
        v.append(-sum(x * y for x, y in zip(top, w)))
        w = [sum(r[j] * w[j] for j in range(n - 1)) for r in minor]
    q = _berkowitz(minor)
    out = []
    for i in range(n + 1):
        s = 0
        for j in range(len(q)):
            k = i - j
            if 0 <= k < len(v):
                s += v[k] * q[j]
        out.append(s)
    return out


def rref(rows):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivot_columns) with zero rows dropped and pivots
    normalized to 1.  The elimination is fraction-free: each row is
    scaled to integers by the lcm of its denominators, a row is cleared
    by cross-multiplication with the pivot row and then divided by the
    gcd of its entries, and each pivot row is divided by its pivot only
    when it is emitted.  None of these steps changes the row space, and
    the reduced row echelon form is unique, so the result is the one
    Gauss-Jordan elimination over the rationals gives.
    """
    work = [_integer_row(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f != 0:
                row = [p * a - f * b for a, b in zip(work[i], prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = [tuple(x // row[c] if x % row[c] == 0 else Fraction(x, row[c]) for x in row)
           for row, c in zip(work, pivots)]
    return out, pivots


def _integer_row(row) -> list:
    """The row times the lcm of its denominators: integers with the same
    span."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


@dataclass(frozen=True)
class Subspace:
    """Rational subspace of Q^ambient with a canonical echelon basis.

    Two subspaces are equal as sets exactly when their representations
    are equal, so subspace equality is just dataclass equality.
    """

    ambient: int
    basis: tuple
    pivots: tuple

    @staticmethod
    def span(ambient: int, vectors) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise DimensionError("vector does not match ambient dimension")
        rows, pivots = rref(vecs)
        return Subspace(ambient, tuple(rows), tuple(pivots))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, (), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace.span(ambient, Matrix.identity(ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient

    def reduce(self, v) -> tuple:
        """Residual of v after eliminating pivot coordinates."""
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            if c != 0:
                for j in range(self.ambient):
                    w[j] -= c * row[j]
        return tuple(_norm_scalar(x) for x in w)

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, v) -> tuple:
        """Coordinates of v in the echelon basis; v must lie in the span."""
        if not self.contains(v):
            raise ValueError("vector is not in the subspace")
        return tuple(v[p] for p in self.pivots)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionError("ambient dimensions differ")
        if self.is_zero or other.is_zero:
            return Subspace.zero(self.ambient)
        cols = [list(v) for v in self.basis] + [[-x for x in v] for v in other.basis]
        system = Matrix.from_rows(list(zip(*cols)))
        sol = kernel(system)
        vectors = []
        for s in sol.basis:
            vec = [0] * self.ambient
            for coef, bvec in zip(s[: self.dim], self.basis):
                if coef != 0:
                    for j in range(self.ambient):
                        vec[j] += coef * bvec[j]
            vectors.append(tuple(vec))
        return Subspace.span(self.ambient, vectors)

    def is_invariant(self, m: Matrix) -> bool:
        return all(self.contains(m.matvec(v)) for v in self.basis)

    def integral_basis(self) -> tuple:
        """Basis with denominators cleared and integer gcd one per vector."""
        out = []
        for v in self.basis:
            w = _integer_row(v)
            g = gcd(*w)
            if g > 1:
                w = [x // g for x in w]
            out.append(tuple(w))
        return tuple(out)


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the right null space of m."""
    rows, pivots = rref(m.rows)
    ncols = m.ncols
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        vectors.append(tuple(v))
    return Subspace.span(ncols, vectors)


def restrict_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of m restricted to an m-invariant subspace, in the
    canonical echelon basis of the subspace."""
    if sub.is_zero:
        raise DimensionError("cannot restrict to the zero subspace")
    cols = []
    for v in sub.basis:
        w = m.matvec(v)
        if not sub.contains(w):
            raise ValueError("subspace is not invariant under the matrix")
        cols.append(sub.coordinates(w))
    return Matrix.from_rows(list(zip(*cols)))


def express_in(sub_outer: Subspace, sub_inner: Subspace) -> Subspace:
    """Rewrite a subspace contained in sub_outer in the coordinates of
    sub_outer's echelon basis."""
    vecs = [sub_outer.coordinates(v) for v in sub_inner.basis]
    return Subspace.span(sub_outer.dim, vecs)


def quotient_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix induced by m on the quotient of the ambient space by an
    m-invariant subspace, in the non-pivot coordinates."""
    n = m.nrows
    if not sub.is_invariant(m):
        raise ValueError("subspace is not invariant under the matrix")
    if sub.is_full:
        raise DimensionError("quotient by the full space is zero-dimensional")
    pivot_set = set(sub.pivots)
    coords = [c for c in range(n) if c not in pivot_set]
    cols = []
    for c in coords:
        e = tuple(1 if j == c else 0 for j in range(n))
        w = sub.reduce(m.matvec(e))
        cols.append(tuple(w[j] for j in coords))
    return Matrix.from_rows(list(zip(*cols)))


def stage_quotient(m: Matrix, outer: Subspace, inner: Subspace) -> Matrix:
    """Matrix induced by m on outer/inner, for m-invariant subspaces
    inner strictly inside outer, in the coordinates of outer's echelon
    basis."""
    return quotient_matrix(restrict_matrix(m, outer), express_in(outer, inner))


def _powers(x: Matrix, k: int) -> list:
    """[I, x, x**2, ..., x**k]."""
    out = [Matrix.identity(x.nrows)]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


def _poly_at(p: Polynomial, powers) -> Matrix:
    """p(x) from the powers [I, x, x**2, ...] of a square x."""
    n = powers[0].nrows
    rows = [[0] * n for _ in range(n)]
    for c, pw in zip(p.coeffs, powers):
        if c != 0:
            for i, prow in enumerate(pw.rows):
                rows[i] = [a + c * y for a, y in zip(rows[i], prow)]
    return Matrix.from_rows(rows)


def singular_cyclotomic_orders(x: Matrix, orders) -> list:
    """The d in orders with cyclotomic(d) at x singular: the orders of
    the root-of-unity eigenvalues of x, by determinants instead of the
    characteristic polynomial."""
    powers = _powers(x, max(map(euler_phi, orders), default=0))
    return [d for d in orders if _poly_at(cyclotomic(d), powers).det() == 0]


@dataclass(frozen=True)
class Spectrum:
    """Which roots of unity are eigenvalues of a square rational matrix x.

    Such an eigenvalue of an n-by-n x has an order d with phi(d) <= n, one
    of the candidate_orders, so the cyclotomic factors of the
    characteristic polynomial over those orders find them all: factors as
    (d, count) pairs, and the cofactor rest, which is 1 exactly when x is
    quasi-unipotent.  The determinant route, c(x) and c(x)**n, c the
    product of the distinct cyclotomic factors, are computed when read."""

    matrix: Matrix = field(repr=False, compare=False)
    char_poly: Polynomial
    candidate_orders: tuple
    factors: tuple
    rest: Polynomial

    @property
    def orders(self) -> list:
        """The d with cyclotomic(d) dividing the characteristic polynomial."""
        return [d for d, _ in self.factors]

    @cached_property
    def singular_orders(self) -> list:
        """The same orders by the independent determinant route."""
        return singular_cyclotomic_orders(self.matrix, self.candidate_orders)

    @cached_property
    def cyclotomic_at(self) -> Matrix:
        """c(x): its kernel is the characters with a finite x-orbit."""
        c = cyclotomic_product((d, 1) for d in self.orders)
        return _poly_at(c, _powers(self.matrix, c.degree))

    @cached_property
    def unipotent_power(self) -> Matrix:
        """c(x)**n: zero exactly when x is quasi-unipotent, and its kernel
        is the sum of the generalized eigenspaces of x for roots of unity."""
        return self.cyclotomic_at ** self.matrix.nrows


def fixed_by_power(mats) -> Subspace:
    """Characters with a finite orbit under square matrices of one size:
    the kernel of every c(x) stacked.  As x**m - 1 is squarefree, this
    is the common fixed space of the x**m for any m that all the orders
    of x's spectrum divide."""
    return kernel(Matrix.from_rows(
        [row for x in mats for row in x.spectrum.cyclotomic_at.rows]))


def quasi_unipotent_on(x: Matrix, sub: Subspace) -> bool:
    """x is quasi-unipotent on the x-invariant subspace sub: the
    characteristic polynomial of the restriction is a product of
    cyclotomic factors."""
    if sub.is_zero:
        return True
    return restrict_matrix(x, sub).spectrum.rest.is_one


def walk_orbit(maps, start, cap: int, guard=None, known=None):
    """Breadth-first walk of the orbit of start under the given maps.

    The walk gives up when it reaches a point of the container known,
    when a new point has a coordinate of absolute value at least guard,
    or once more than cap points are seen.  Returns (seen, stop, last):
    seen is the set of points reached, stop is None when the orbit closed
    and otherwise "known", "coordinate-guard" or "visited-cap", and last
    is the point that stopped the walk.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for apply_map in maps:
                w = apply_map(v)
                if w in seen:
                    continue
                if known is not None and w in known:
                    return seen, "known", w
                if guard is not None and max(map(abs, w)) >= guard:
                    return seen, "coordinate-guard", w
                seen.add(w)
                nxt.append(w)
                if len(seen) > cap:
                    return seen, "visited-cap", w
        frontier = nxt
    return seen, None, None
