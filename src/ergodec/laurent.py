"""Sparse Laurent polynomials over prime fields, in one or two variables.

A Laurent polynomial is a finite map from integer exponent vectors to
nonzero residues mod p.  Monomials are units of the ring, so divisibility
questions are settled on canonical forms, obtained by multiplying with the
unique monomial that makes every exponent nonnegative with a zero minimum
per variable.  Division is sparse multivariate division driven by the
graded lexicographic order; a single divisor generates its own ideal
head, so a zero remainder is equivalent to ideal membership.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import Issue, ValidationError


class ModulusMismatchError(ValueError):
    """Operands live over different coefficient fields or variable counts."""


# ---------------------------------------------------------------------------
# Univariate helpers over F_p: coefficient lists, lowest degree first.


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    return _fp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                     for i in range(n)])


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _fp_trim(out)


def _fp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    inv = pow(b[-1], p - 2, p)
    dq = len(rem) - len(b)
    if dq < 0:
        return [], _fp_trim(rem)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        top = rem[k + len(b) - 1] % p
        if top == 0:
            continue
        q = (top * inv) % p
        quo[k] = q
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - q * y) % p
    return _fp_trim(quo), _fp_trim(rem)


def _fp_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [(x * inv) % p for x in a]


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        _, r = _fp_divmod(a, b, p)
        a, b = b, r
    return _fp_monic(a, p)


def _fp_powmod(base, e: int, modulus, p):
    """base**e modulo the modulus, by square and multiply."""
    out = [1]
    while e:
        if e & 1:
            out = _fp_divmod(_fp_mul(out, base, p), modulus, p)[1]
        e >>= 1
        if e:
            base = _fp_divmod(_fp_mul(base, base, p), modulus, p)[1]
    return out


# Steps the witness search may take.  Telling whether a power k is a
# candidate takes at most D small-integer steps, for a content of degree
# D.  A candidate's jump and gcd test count 4*D^2 steps per bit of the
# jump, which on a dense content over a large field takes about as long.
# The count depends only on p, D and the least power: over F_2, D = 20
# and the power 2^20 - 1 of a primitive content take 12,267,089 steps.
MAX_WITNESS_STEPS = 2 ** 24


def witness_power(content, step: int, p: int):
    """Least k with a non-unit common divisor of the content and
    t^(k*step) - 1, and that divisor.

    With T = t^step modulo the content, the least k is the least order of
    T modulo an irreducible factor h of the content: the content is
    coprime to t, so T is a unit modulo h, and its order divides
    p^(deg h) - 1, where deg h is at most the content's degree D.  The
    search walks k = 1, 2, ... but gcd-tests only the candidates, the k
    that divide p^d - 1 for some d <= D, which it tells by iterating
    x <- x*p mod k at most D times.  T's power moves from one candidate
    to the next by square and multiply.  Past MAX_WITNESS_STEPS the
    search raises a resource-limit ValidationError.
    """
    degree = len(content) - 1
    if degree < 1 or not content[0]:
        raise ValueError("content must be a non-unit coprime to t")
    _, t = _fp_divmod([0] * step + [1], content, p)
    power, at, steps, k = [1], 0, 0, 0
    while steps <= MAX_WITNESS_STEPS:
        k += 1
        # a candidate is 1, or coprime to p with p of order at most D mod k
        x, d = p % k, 1
        if k % p:
            while x != 1 and d < degree:
                x = x * p % k
                d += 1
        steps += d
        if x != 1 and k > 1:
            continue
        steps += 4 * degree * degree * (k - at).bit_length()
        power = _fp_divmod(_fp_mul(power, _fp_powmod(t, k - at, content, p), p),
                           content, p)[1]
        at = k
        common = _fp_gcd(content, _fp_sub(power, [1], p), p)
        if len(common) > 1:
            return k, common
    raise ValidationError([Issue("resource-limit", (), (
        f"no witness power up to {k} within {MAX_WITNESS_STEPS} search steps"))])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable sparse Laurent polynomial over F_p."""

    p: int
    nvars: int
    terms: tuple  # sorted tuple of (exponent tuple, coefficient in 1..p-1)

    @staticmethod
    def from_terms(p: int, nvars: int, terms) -> "LaurentPoly":
        if type(nvars) is not int or nvars not in (1, 2):
            raise ValueError("one or two variables supported")
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            e = tuple(exps)
            if len(e) != nvars:
                raise ValueError("exponent vector has the wrong length")
            if any(type(x) is not int for x in e):
                raise ValueError("exponents must be integers")
            acc[e] = (acc.get(e, 0) + c) % p
        clean = tuple(sorted((e, c) for e, c in acc.items() if c))
        return LaurentPoly(p, nvars, clean)

    @staticmethod
    def zero(p: int, nvars: int) -> "LaurentPoly":
        return LaurentPoly(p, nvars, ())

    @staticmethod
    def one(p: int, nvars: int) -> "LaurentPoly":
        return LaurentPoly.from_terms(p, nvars, {(0,) * nvars: 1})

    @staticmethod
    def monomial(p: int, nvars: int, exps, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly.from_terms(p, nvars, {tuple(exps): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_unit(self) -> bool:
        # Monomials are the units of the Laurent ring.
        return len(self.terms) == 1

    @property
    def is_one(self) -> bool:
        return self.terms == (((0,) * self.nvars, 1),)

    def total_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, var: int) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(e[var] for e, _ in self.terms)

    def min_exponents(self) -> tuple:
        if self.is_zero:
            raise ValueError("zero polynomial has no support")
        return tuple(min(e[v] for e, _ in self.terms) for v in range(self.nvars))

    def is_canonical(self) -> bool:
        return self.is_zero or self.min_exponents() == (0,) * self.nvars

    def canonical(self) -> "LaurentPoly":
        """Unit-normalized form: shift exponents so each variable has
        minimum exponent zero."""
        if self.is_zero:
            return self
        off = self.min_exponents()
        if all(o == 0 for o in off):
            return self
        return LaurentPoly(self.p, self.nvars, tuple(sorted(
            (tuple(x - o for x, o in zip(e, off)), c) for e, c in self.terms)))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._compatible(other)
        return LaurentPoly.from_terms(self.p, self.nvars,
                                      list(self.terms) + list(other.terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.p, self.nvars,
                           tuple((e, (-c) % self.p) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._compatible(other)
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = (acc.get(e, 0) + c1 * c2) % self.p
        return LaurentPoly(self.p, self.nvars,
                           tuple(sorted((e, c) for e, c in acc.items() if c)))

    def univariate_in(self, var: int):
        """Coefficient list if the polynomial involves only one variable."""
        other = 1 - var if self.nvars == 2 else None
        if self.is_zero:
            return []
        if other is not None and self.degree_in(other) != 0:
            raise ValueError("polynomial involves the other variable")
        out = [0] * (self.degree_in(var) + 1)
        for e, c in self.terms:
            out[e[var]] = c
        return out

    @staticmethod
    def along(p: int, direction, coeffs) -> "LaurentPoly":
        """The image of a coefficient list in t under t -> u^direction."""
        return LaurentPoly.from_terms(p, len(direction), {
            tuple(i * x for x in direction): c for i, c in enumerate(coeffs) if c % p})

    def _compatible(self, other: "LaurentPoly") -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise ModulusMismatchError("mixed moduli or variable counts")

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = ("u",) if self.nvars == 1 else ("u1", "u2")
        parts = []
        for e, c in sorted(self.terms, key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = []
            if c != 1 or all(x == 0 for x in e):
                factors.append(str(c))
            for name, x in zip(names, e):
                if x == 1:
                    factors.append(name)
                elif x != 0:
                    factors.append(f"{name}^{x}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def stated_axes(nvars: int) -> list:
    """The coordinate directions an analyze report states a verdict for:
    e_1, ..., e_nvars, or none in one variable, where u alone generates
    the group and the group verdict is the verdict of u."""
    if nvars == 1:
        return []
    return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]


def directions_in_shell(nvars: int, shell: int) -> list:
    """Directions with sup-norm equal to shell, in descending
    lexicographic order."""
    span = range(shell, -shell - 1, -1)
    return [d for d in itertools.product(span, repeat=nvars) if max(map(abs, d)) == shell]


def _grlex_key(e):
    return (sum(e), e)


def _poly_divide_canonical(h: dict, g: dict, p: int, nvars: int):
    """Exact division of canonical polynomial term maps; None when the
    remainder is nonzero.  {g} heads its own ideal, so a term that is not
    reducible by the leading term of g certifies non-membership."""
    lead_g = max(g, key=_grlex_key)
    lead_c_inv = pow(g[lead_g], p - 2, p)
    work = dict(h)
    quo = {}
    while work:
        t = max(work, key=_grlex_key)
        if any(t[i] < lead_g[i] for i in range(nvars)):
            return None
        shift = tuple(t[i] - lead_g[i] for i in range(nvars))
        c = (work[t] * lead_c_inv) % p
        quo[shift] = c
        for e, ce in g.items():
            key = tuple(e[i] + shift[i] for i in range(nvars))
            v = (work.get(key, 0) - c * ce) % p
            if v:
                work[key] = v
            else:
                work.pop(key, None)
    return quo


def laurent_divides(g: LaurentPoly, h: LaurentPoly):
    """Quotient q with q*g == h exactly, or None when h is not a multiple
    of g.  The answer does not depend on unit normalization."""
    g._compatible(h)
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    if h.is_zero:
        return LaurentPoly.zero(g.p, g.nvars)
    off_g = g.min_exponents()
    off_h = h.min_exponents()
    gc = {tuple(x - o for x, o in zip(e, off_g)): c for e, c in g.terms}
    hc = {tuple(x - o for x, o in zip(e, off_h)): c for e, c in h.terms}
    quo = _poly_divide_canonical(hc, gc, g.p, g.nvars)
    if quo is None:
        return None
    shift = tuple(oh - og for oh, og in zip(off_h, off_g))
    return LaurentPoly.from_terms(g.p, g.nvars, {
        tuple(e[i] + shift[i] for i in range(g.nvars)): c for e, c in quo.items()})


def _ext_gcd(a: int, b: int):
    """(x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (x0, y0, a) if a >= 0 else (-x0, -y0, -a)


def content_along(f: LaurentPoly, direction):
    """(m, n0, content) for direction = m*n0 with n0 primitive and m > 0.

    With w chosen by extended Euclid so that <n0, w> = 1, every exponent
    splits as e = (e - <e, w>*n0) + <e, w>*n0, and the first part is
    constant on the cosets of Z*n0.  Grouping f's monomials by it writes
    f as a sum of coset monomials times polynomials in t = u^n0.  The
    content is the monic gcd over F_p[t] of those polynomials, with
    powers of t removed, so a polynomial in t divides f exactly when it
    divides the content.
    """
    if f.is_zero:
        raise ValueError("content of the zero polynomial is undefined")
    direction = tuple(int(x) for x in direction)
    if len(direction) != f.nvars or not any(direction):
        raise ValueError("direction must be nonzero with one entry per variable")
    m, w = 0, []
    for x in direction:
        a, b, m = _ext_gcd(m, x)
        w = [a * y for y in w] + [b]
    n0 = tuple(x // m for x in direction)
    groups = {}
    for e, c in f.terms:
        s = sum(x * y for x, y in zip(e, w))
        key = tuple(x - s * y for x, y in zip(e, n0))
        groups.setdefault(key, {})[s] = c
    content = []
    for group in groups.values():
        low = min(group)
        coeffs = [0] * (max(group) - low + 1)
        for s, c in group.items():
            coeffs[s - low] = c
        content = _fp_gcd(content, coeffs, f.p)
        if content == [1]:
            break
    return m, n0, content
