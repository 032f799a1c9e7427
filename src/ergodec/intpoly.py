"""Exact univariate polynomials over the integers and rationals.

A polynomial is a tuple of coefficients, lowest degree first, with no
trailing zeros.  Coefficients are Python ints or fractions.Fraction, so all
arithmetic is exact.  This module also provides the number-theoretic
helpers used by the root-of-unity tests: Euler's totient, cyclotomic
polynomials, the root-of-unity orders that can occur as eigenvalue orders
of a rational matrix of a given size, and cyclotomic factor splitting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

Scalar = "int | Fraction"


def _norm_scalar(x):
    """Collapse integral Fractions to plain ints."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    if isinstance(x, int):
        return x
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Dense exact polynomial, coefficients lowest degree first."""

    coeffs: tuple

    @staticmethod
    def from_coeffs(coeffs) -> "Polynomial":
        c = [_norm_scalar(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return Polynomial(tuple(c))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x_power_minus_one(n: int) -> "Polynomial":
        return Polynomial.from_coeffs([-1] + [0] * (n - 1) + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Polynomial.from_coeffs(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_coeffs([-x for x in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Polynomial.from_coeffs(out)

    def __divmod__(self, other: "Polynomial"):
        """Exact rational division with remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod_coeffs(self.coeffs, other.coeffs)
        return Polynomial.from_coeffs(quo), Polynomial.from_coeffs(rem)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def divides(self, other: "Polynomial") -> bool:
        if self.is_zero:
            return other.is_zero
        _, r = divmod(other, self)
        return r.is_zero

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = Fraction(self.leading)
        return Polynomial.from_coeffs([Fraction(x) / lead for x in self.coeffs])

    def pow(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        y = 0
        for c in reversed(self.coeffs):
            y = y * x + c
        return y


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the rationals, by the Euclidean algorithm."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = f, g
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r
    return a.monic()


def euler_phi(d: int) -> int:
    """Euler's totient of a positive integer."""
    if d < 1:
        raise ValueError("totient is defined for positive integers")
    n, result, q = d, d, 2
    while q * q <= n:
        if n % q == 0:
            while n % q == 0:
                n //= q
            result -= result // q
        q += 1
    if n > 1:
        result -= result // n
    return result


@functools.lru_cache(maxsize=None)
def orders_with_totient_at_most(r: int) -> tuple:
    """All d >= 1 with euler_phi(d) <= r, in increasing order.

    phi(d) >= sqrt(d/2), so scanning d up to 2*r*r + 1 is exhaustive.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    return tuple(d for d in range(1, 2 * r * r + 2) if euler_phi(d) <= r)


@functools.lru_cache(maxsize=None)
def max_torsion_order(r: int) -> int:
    """M(r), the largest order of a finite-order element of GL_r(Z): the
    largest lcm of a set of distinct d with sum of euler_phi(d) <= r
    (Levitt-Nicolas, J. Algebra 208 (1998)).

    A 0/1 knapsack over orders_with_totient_at_most(r) that keeps the
    least totient sum reaching each lcm; the lcm of a set depends only on
    the lcm of its part already chosen, so the least sum per lcm is exact.
    """
    cost = {1: 0}
    for d in orders_with_totient_at_most(r):
        phi = euler_phi(d)
        for l, c in list(cost.items()):
            m, s = math.lcm(l, d), c + phi
            if s < cost.get(m, r + 1):
                cost[m] = s
    return max(cost)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> Polynomial:
    """The d-th cyclotomic polynomial, by iterated exact division of
    x^d - 1 by the cyclotomic polynomials of the proper divisors of d."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    f = Polynomial.x_power_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            f = f.exact_div(cyclotomic(e))
    return f


def _divmod_coeffs(num, den):
    """Quotient and remainder coefficient lists of num by the nonzero den,
    lowest degree first.  A divisor with leading coefficient 1 or -1,
    such as every cyclotomic polynomial, needs no division, so integer
    operands stay in ints."""
    rem = list(num)
    lead = den[-1]
    unit = lead in (1, -1)  # then top / lead == top * lead
    n = len(den) - 1
    quo = [0] * max(len(rem) - n, 0)
    for k in range(len(quo) - 1, -1, -1):
        top = rem[k + n]
        if top != 0:
            q = quo[k] = top * lead if unit else _norm_scalar(Fraction(top) / lead)
            rem[k:k + n] = [a - q * y for a, y in zip(rem[k:k + n], den)]
    return quo, rem[:n]


def cyclotomic_split(f: Polynomial, orders):
    """Strip cyclotomic factors from a monic polynomial by exact division
    by each cyclotomic(d), d in orders; returns the factor multiset as
    (d, count) pairs in the order of orders, and the cofactor.  The
    divisions run on coefficient lists, and only the cofactor becomes a
    Polynomial."""
    factors, rest = [], list(f.coeffs)
    for d in orders:
        phi = cyclotomic(d).coeffs
        count = 0
        quo, rem = _divmod_coeffs(rest, phi)
        while quo and not any(rem):
            rest, count = quo, count + 1
            quo, rem = _divmod_coeffs(rest, phi)
        if count:
            factors.append((d, count))
    return factors, Polynomial.from_coeffs(rest)


def cyclotomic_product(factors) -> Polynomial:
    """Product of cyclotomic(d)**count over (d, count) pairs."""
    return math.prod((cyclotomic(d).pow(c) for d, c in factors), start=Polynomial.one())
