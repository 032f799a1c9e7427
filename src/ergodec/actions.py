"""Validated descriptions of finitely generated commuting actions.

Three kinds of acting groups are supported: integer matrix groups on
tori (unimodular generators), rational matrix groups on solenoids
(invertible generators), and coordinate translation groups on duals of
cyclic Laurent quotient modules over a prime field.  Validation collects
every failure before reporting, and each validated action carries the
dual generators the engines actually compute with: the transposes of
the generators, since a character chi composed with the matrix A is the
character A^T chi.

An action also caches what is derived from it: dual products by
exponent vector, the finite-orbit subspace, Laurent contents and witness
powers by direction, and each command's results by flags
(replay.report_results).  These are pure functions of the immutable
action, so the engines and in-process replay share them, and the caches
die with the action.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field

from .encoding import decode_scalar
from .errors import Issue, ValidationError, shown
from .laurent import LaurentPoly, content_along, witness_power
from .matrices import Matrix, Subspace, common_kernel

# Largest torus or solenoid dimension a document may declare.  In-process
# `analyze` on the companion of x^r - 3x - 1 takes about 0.04 s at r = 32,
# 0.3 s at r = 64 and 3 s at r = 128 on a 2-CPU x86 host under Python
# 3.11.  Library constructors are not capped.
MAX_DIMENSION = 64

# Largest bit length of a numerator or denominator of a generator entry a
# document may declare: the characteristic polynomial's cost grows with it.
# In-process `analyze` on a dense rank-32 conjugate of 16 Fibonacci blocks
# takes about 0.08 s with 16-bit, 1.4 s with 512-bit and 7.5 s with
# 1536-bit entries on that host.
MAX_ENTRY_BITS = 128

# Largest width, in any variable, of a Laurent presenter a document may
# declare.  It bounds the degree of every content, and with it the cost of
# each step of the witness search (laurent.MAX_WITNESS_STEPS).
MAX_PRESENTER_WIDTH = 64


@dataclass(frozen=True)
class MatrixAction:
    """Commuting matrices acting on a torus (kind "toral": unimodular
    integer matrices) or a solenoid (kind "solenoid": invertible rational
    matrices) of the given dimension."""

    kind: str
    dim: int
    generators: tuple
    dual_generators: tuple
    dual_products: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)
    results: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def finite_orbit_subspace(self) -> Subspace:
        """Characters of the dual space whose group orbit is finite: the
        common kernel of the dual generators' c(D), or one's cached own."""
        duals = self.dual_generators
        return (duals[0].spectrum.finite_orbit_subspace if len(duals) == 1
                else common_kernel([d.spectrum.cyclotomic_at for d in duals]))

    def witness_character(self, fixed: Subspace) -> tuple:
        """The witness a nonzero subspace of finite-orbit characters
        gives, the one the engine reports and replay requires: its first
        integral basis vector on a torus, whose characters are integer
        vectors, and its first echelon basis vector on a solenoid."""
        return fixed.integral_basis()[0] if self.kind == "toral" else fixed.basis[0]


@dataclass(frozen=True)
class LaurentCyclicAction:
    """Coordinate translations on the dual of S/(g), where S is the
    Laurent polynomial ring over F_p in one or two variables and g is a
    nonzero non-unit presenter, stored in canonical form."""

    p: int
    nvars: int
    presenter: LaurentPoly
    contents: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    witnesses: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    results: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return "laurent"

    def content(self, direction) -> tuple:
        """laurent.content_along of the presenter, (m, n0, content),
        computed once per direction."""
        key = tuple(direction)
        if key not in self.contents:
            self.contents[key] = content_along(self.presenter, key)
        return self.contents[key]

    def witness(self, direction) -> tuple:
        """laurent.witness_power of the non-unit content along a
        direction, computed once per direction: (k, h), with the common
        factor h mapped back from t to u^n0."""
        key = tuple(direction)
        if key not in self.witnesses:
            m, n0, content = self.content(key)
            k, common = witness_power(content, m, self.p)
            self.witnesses[key] = (k, LaurentPoly.along(self.p, n0, common))
        return self.witnesses[key]


# Primality is decided by trial division, so the modulus is capped.
_MAX_MODULUS = 2 ** 31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def _matrix_issues(mats, dim, unimodular):
    issues = []
    for i, m in enumerate(mats, start=1):
        if not m.is_square or m.nrows != dim:
            issues.append(Issue("bad-shape", (i,),
                                f"generator {i} is not {dim}x{dim}"))
            continue
        d = m.det()
        if unimodular:
            if not m.is_integral:
                issues.append(Issue("not-integral", (i,),
                                    f"generator {i} has non-integer entries"))
            elif d not in (1, -1):
                issues.append(Issue("not-unimodular", (i,),
                                    f"generator {i} has determinant {d}"))
        elif d == 0:
            issues.append(Issue("not-invertible", (i,),
                                f"generator {i} is singular"))
    shaped = [m for m in mats if m.is_square and m.nrows == dim]
    if len(shaped) == len(mats):
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if mats[i] * mats[j] != mats[j] * mats[i]:
                    issues.append(Issue("non-commuting", (i + 1, j + 1),
                                        f"generators {i + 1} and {j + 1} do not commute"))
    return issues


def _matrix_action(kind: str, generators, unimodular: bool) -> MatrixAction:
    mats = tuple(g if isinstance(g, Matrix) else Matrix.from_rows(g) for g in generators)
    if not mats:
        raise ValidationError([Issue("no-generators", (),
                                     "at least one generator is required")])
    dim = mats[0].nrows
    issues = _matrix_issues(mats, dim, unimodular)
    if issues:
        raise ValidationError(issues)
    return MatrixAction(kind, dim, mats, tuple(m.transpose() for m in mats))


def toral_action(generators) -> MatrixAction:
    return _matrix_action("toral", generators, unimodular=True)


def solenoid_action(generators) -> MatrixAction:
    return _matrix_action("solenoid", generators, unimodular=False)


def product_counterexample(radius: int) -> MatrixAction:
    """Finite truncation of the product action of Z^2 that is ergodic as
    a group while no element is ergodic: one 2-torus factor for each
    primitive (i, j) with i > 0, or i = 0 and j > 0, and max(|i|, |j|)
    <= radius, on which the element (n, m) acts by F**(m*i - n*j), F the
    Fibonacci matrix.  Every nonzero element of the box of the radius is
    the identity on the factor of its own direction."""
    if radius < 1:
        raise ValueError("radius must be positive")
    f = Matrix.from_rows([[0, 1], [1, 1]])
    factors = [(i, j) for i in range(radius + 1) for j in range(-radius, radius + 1)
               if (i > 0 or j > 0) and math.gcd(i, j) == 1]
    return toral_action([Matrix.block_diag(*(f ** -j for _, j in factors)),
                         Matrix.block_diag(*(f ** i for i, _ in factors))])


def _ring_issues(p, nvars) -> list:
    """The issues of p and nvars, checked before any arithmetic mod p."""
    issues = []
    if not (type(p) is int and p < _MAX_MODULUS and _is_prime(p)):
        issues.append(Issue("bad-modulus", (), f"{shown(p)} is not a prime below 2**31"))
    if not (type(nvars) is int and nvars in (1, 2)):
        issues.append(Issue("bad-variable-count", (), "one or two variables supported"))
    return issues


def laurent_cyclic_action(p: int, nvars: int, presenter: LaurentPoly) -> LaurentCyclicAction:
    issues = _ring_issues(p, nvars)
    if not issues:
        if presenter.p != p or presenter.nvars != nvars:
            issues.append(Issue("bad-modulus", (),
                                "presenter does not match the declared ring"))
        elif presenter.is_zero or presenter.is_unit:
            issues.append(Issue("unit-presentation", (),
                                "presenter must be a nonzero non-unit"))
    if issues:
        raise ValidationError(issues)
    return LaurentCyclicAction(p, nvars, presenter.canonical())


def _product_of_powers(gens, exponents, dim: int) -> Matrix:
    """Exact product of the gens[i]**exponents[i]; for a unit exponent
    vector, the generator object itself, so its cached spectrum is read."""
    if len(exponents) != len(gens):
        raise ValueError("one exponent per generator expected")
    powers = [g ** e for g, e in zip(gens, exponents) if e]
    return functools.reduce(operator.mul, powers) if powers else Matrix.identity(dim)


def element(action, exponents) -> Matrix:
    """Exact product of generator powers."""
    return _product_of_powers(action.generators, exponents, action.dim)


def dual_element(action, exponents) -> Matrix:
    """Dual matrix of the product of generator powers, formed once per
    exponent vector, so its spectrum is split once."""
    key = tuple(exponents)
    if key not in action.dual_products:
        action.dual_products[key] = _product_of_powers(action.dual_generators, key,
                                                       action.dim)
    return action.dual_products[key]


def ergodic_search_bound(action) -> int:
    """Berend's bound r*(n - 1) + 2 for n generators of rank r: the largest
    coordinate sum toral.find_ergodic_exponents searches and reports."""
    return action.dim * (action.n_generators - 1) + 2


def positive_vectors(n: int, total: int):
    """All-positive integer vectors with the given coordinate sum, in
    lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in positive_vectors(n - 1, total - first):
            yield (first,) + rest


def _presenter_term(term) -> tuple:
    """(exponents, coefficient) of one presenter term of a document: a
    list of plain ints and a plain int, neither holding a bool."""
    exps, c = term["exponents"], term["coefficient"]
    if not (isinstance(exps, list) and all(type(x) is int for x in exps) and type(c) is int):
        raise ValueError("exponents and coefficient must be integers")
    return tuple(exps), c


def build_action(doc: dict):
    """Build and validate an action from a parsed input document."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValidationError([Issue("schema", (), "document must declare a type")])
    kind = doc["type"]
    if kind in ("toral", "solenoid"):
        if "generators" not in doc or not isinstance(doc["generators"], list):
            raise ValidationError([Issue("schema", (), "generators array required")])
        if not all(isinstance(g, list) and all(isinstance(row, list) for row in g)
                   for g in doc["generators"]):
            raise ValidationError([Issue("schema", (), "generators must be lists of row lists")])
        # a string's digit run is refused by its length before int() reads it
        run = max((len(digits) for g in doc["generators"] for row in g for x in row
                   if isinstance(x, str) for digits in re.findall("[0-9]+", x)), default=0)
        if run > len(str(2 ** MAX_ENTRY_BITS)):
            raise ValidationError([Issue(
                "resource-limit", (), f"a generator entry with a run of {run} digits is above "
                                      f"the limit of {MAX_ENTRY_BITS} bits")])
        try:
            mats = [Matrix.from_rows([[decode_scalar(x) for x in row] for row in g])
                    for g in doc["generators"]]
        except (TypeError, ValueError) as exc:
            raise ValidationError([Issue("schema", (), f"bad generator: {exc}")])
        if "r" in doc and mats and mats[0].nrows != doc["r"]:
            raise ValidationError([Issue("schema", (),
                                         "declared dimension does not match generators")])
        if mats and mats[0].nrows > MAX_DIMENSION:
            raise ValidationError([Issue(
                "resource-limit", (), f"dimension {mats[0].nrows} is above the limit "
                                      f"of {MAX_DIMENSION}")])
        bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                    for m in mats for row in m.rows for x in row), default=0)
        if bits > MAX_ENTRY_BITS:
            raise ValidationError([Issue(
                "resource-limit", (), f"a generator entry of {bits} bits is above the limit "
                                      f"of {MAX_ENTRY_BITS}")])
        return toral_action(mats) if kind == "toral" else solenoid_action(mats)
    if kind == "laurent":
        for key in ("p", "d", "g"):
            if key not in doc:
                raise ValidationError([Issue("schema", (), f"missing field {key!r}")])
        issues = _ring_issues(doc["p"], doc["d"])
        if issues:
            raise ValidationError(issues)
        try:
            g = LaurentPoly.from_terms(doc["p"], doc["d"], [_presenter_term(t) for t in doc["g"]])
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError([Issue("schema", (), f"bad presenter: {exc}")])
        width = 0 if g.is_zero else max(g.canonical().degree_in(v) for v in range(g.nvars))
        if width > MAX_PRESENTER_WIDTH:
            raise ValidationError([Issue(
                "resource-limit", (), f"presenter width {shown(width)} is above the limit "
                                      f"of {MAX_PRESENTER_WIDTH}")])
        return laurent_cyclic_action(doc["p"], doc["d"], g)
    raise ValidationError([Issue("schema", (), f"unknown action type {shown(kind)}")])
