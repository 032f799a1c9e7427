"""Exact dense matrices and rational subspaces.

Everything here is arbitrary precision: entries are Python ints or
fractions.Fraction.  Determinants use fraction-free Bareiss elimination,
characteristic polynomials use the division-free Berkowitz recursion, and
subspaces are kept in reduced row echelon form so that equality of
subspaces is equality of representations.  One primitive, induced, maps
a matrix to a quotient of nested invariant subspaces, restrictions included.
The whole space modulo zero is the matrix itself, so that quotient reads
the spectrum the matrix caches; zero and the whole space are invariant
under every matrix of their size without a product.

Elimination is integer-first: rref scales each row to integers and
eliminates by cross-multiplication, and only the emitted rows are divided
by their pivots, so a Fraction appears only in an entry that is not an
integer.  A square matrix x keeps one integer scaling x = A/L and one list
of the powers of A as int rows, grown on demand: the determinant route
takes the Bareiss determinant of L**phi(d) * cyclotomic(d)(x) and c(x) is
read from the same list, with no Matrix per power and no Fraction when L
is 1.

Subspace.reduce leaves its residual as elimination made it: contains
only tests it for zero, and induced normalizes it through
Matrix.from_rows.  Orbit walks live in oracle, on compiled maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .intpoly import (Polynomial, _norm_scalar, cyclotomic, cyclotomic_product,
                      cyclotomic_split, orders_with_totient_at_most)


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
        matrix scaled to integer entries: det x = det A / L**n for x = A/L."""
        if not self.is_square:
            raise DimensionError("determinant of a non-square matrix")
        den, a = self._scaled
        d = _bareiss([row[:] for row in a])
        return d if den == 1 else _norm_scalar(Fraction(d, den ** self.nrows))

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
        orders = orders_with_totient_at_most(self.nrows)
        factors, rest = cyclotomic_split(cp, orders)
        return Spectrum(self, cp, orders, tuple(factors), rest)

    @cached_property
    def _scaled(self) -> tuple:
        """(L, A) with x = A/L, A of int rows and L the least common
        denominator of the entries."""
        den = lcm(*(x.denominator for row in self.rows for x in row))
        return den, [[x.numerator * (den // x.denominator) for x in row] for row in self.rows]

    @cached_property
    def _int_powers(self) -> list:
        """[I, A, A**2, ...] as int rows, as far as _scaled_poly_at has
        grown it: one list of powers per matrix."""
        n = self.nrows
        return [[[int(i == j) for j in range(n)] for i in range(n)], self._scaled[1]]

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
        v.append(-sum(map(mul, top, w)))
        w = [sum(map(mul, r, w)) for r in minor]
    q = _berkowitz(minor)
    v.reverse()
    return [sum(map(mul, q, v[n - i:])) for i in range(n + 1)]


def _bareiss(m) -> int:
    """Determinant of a square matrix of ints, given as a list of row
    lists that it overwrites, by fraction-free Bareiss elimination."""
    n = len(m)
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
    return sign * m[n - 1][n - 1]


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
        return Subspace(ambient, Matrix.identity(ambient).rows, tuple(range(ambient)))

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
        """Residual of v after eliminating pivot coordinates, not
        normalized: an integral entry may be a Fraction."""
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            if c != 0:
                for j in range(self.ambient):
                    w[j] -= c * row[j]
        return tuple(w)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def is_invariant(self, m: Matrix) -> bool:
        if m.nrows != self.ambient or m.ncols != self.ambient:
            raise DimensionError("matrix does not act on the ambient space")
        return self.is_full or all(self.contains(m.matvec(v)) for v in self.basis)

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


def induced(m: Matrix, outer: Subspace, inner: Subspace) -> Matrix:
    """Matrix induced by m on outer/inner, for m-invariant subspaces inner
    inside outer, in the coordinates of outer's echelon basis that are not
    pivots of inner.  Those basis vectors span the quotient, and an image
    reduced by inner is zero at inner's pivots, which are outer's too.

    The whole space modulo zero gives m itself, not a copy: the echelon
    basis of the whole space is the identity, and returning m keeps the
    values m caches, its spectrum first."""
    if not (outer.contains_subspace(inner) and outer.is_invariant(m)
            and inner.is_invariant(m)):
        raise ValueError("subspaces are not nested and invariant under the matrix")
    if outer.is_full and inner.is_zero:
        return m
    basis = [(v, p) for v, p in zip(outer.basis, outer.pivots) if p not in inner.pivots]
    if not basis:
        raise DimensionError("the quotient is zero-dimensional")
    images = [inner.reduce(m.matvec(v)) for v, _ in basis]
    return Matrix.from_rows([[w[p] for w in images] for _, p in basis])


def _scaled_poly_at(p: Polynomial, x: Matrix) -> tuple:
    """(rows, L**k) with rows the ints of L**k * p(x), for an integer p
    of degree k and x = A/L: the sum of p's coefficients times
    L**(k - i) * A**i, read from x's one power list, grown on demand, so
    the determinant route and c(x) share the powers both need.  The
    rows are new lists, never the cached powers."""
    k = p.degree
    den, powers = x._scaled[0], x._int_powers
    if len(powers) <= k:
        cols = list(zip(*powers[1]))
        while len(powers) <= k:
            powers.append([[sum(map(mul, row, col)) for col in cols] for row in powers[-1]])
    rows = [[0] * x.nrows for _ in range(x.nrows)]
    for i, (c, pw) in enumerate(zip(p.coeffs, powers)):
        if c != 0:
            c *= den ** (k - i)
            rows = [[a + c * y for a, y in zip(row, prow)] for row, prow in zip(rows, pw)]
    return rows, den ** k


def _matrix_over(rows, den: int) -> Matrix:
    """The matrix of int rows divided by den: ints where an entry is
    integral, and no Fraction at all when den is 1."""
    if den == 1:
        return Matrix(tuple(map(tuple, rows)))
    return Matrix(tuple(tuple(_norm_scalar(Fraction(y, den)) for y in row) for row in rows))


def singular_cyclotomic_orders(x: Matrix, orders) -> list:
    """The d in orders with cyclotomic(d) at x singular: the orders of
    the root-of-unity eigenvalues of x, by determinants instead of the
    characteristic polynomial."""
    return [d for d in orders if _bareiss(_scaled_poly_at(cyclotomic(d), x)[0]) == 0]


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
        return _matrix_over(*_scaled_poly_at(c, self.matrix))

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
    return induced(x, sub, Subspace.zero(sub.ambient)).spectrum.rest.is_one

