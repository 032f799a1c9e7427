"""Differential tests against sympy: the cyclotomic split of a
characteristic polynomial against sympy's factorization, the finite-orbit
kernel and the largest ergodic subgroup's dual subspace against sympy's
nullspace, the fraction-free rref against sympy's rref and a Fraction
Gauss-Jordan reference, the Laurent gcds and contents over GF(p) against
sympy's gcd, and the exact Laurent direction verdicts against a bounded
gcd scan."""

import math
import random
from fractions import Fraction

import pytest

from ergodec import (LaurentPoly, Matrix, Subspace, content_along, direction_is_ergodic,
                     laurent_cyclic_action, largest_ergodic_subgroup, solenoid_action)
from ergodec.encoding import decode_laurent
from ergodec.intpoly import cyclotomic_split, orders_with_totient_at_most
from ergodec.laurent import _fp_gcd
from ergodec.matrices import fixed_by_power, rref, singular_cyclotomic_orders
from factories import (commuting_mixed_family, commuting_unipotent_family,
                       conjugate, ergodic_distal_pair, random_unimodular)

sp = pytest.importorskip("sympy")
X = sp.Symbol("x")

# companions of the cyclotomic polynomials of orders 4, 3 and 6
ROTATIONS = [Matrix.from_rows(rows) for rows in (
    [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[0, -1], [1, 1]])]


def families():
    """Commuting families from the factories, some with a rotation block
    of order 3, 4 or 6, some conjugated by a rational matrix."""
    rng = random.Random(4242)
    out = []
    for _ in range(6):
        out.append(commuting_mixed_family(rng, max_dim=4))
        out.append(commuting_unipotent_family(rng, max_dim=4))
        alpha, beta = ergodic_distal_pair(rng, max_dim=4)
        rot = rng.choice(ROTATIONS)
        p = random_unimodular(rng, alpha.nrows + 2)
        out.append([conjugate(Matrix.block_diag(g, rot), p) for g in (alpha, beta)])
        gens = commuting_mixed_family(rng, max_dim=4)
        n = gens[0].nrows
        scale = Matrix.from_rows([[Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 5]))
                                   if i == j else 0 for j in range(n)] for i in range(n)])
        out.append([conjugate(g, scale * random_unimodular(rng, n)) for g in gens])
    return out


FAMILIES = families()


def to_sympy(m):
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                      for row in m.rows])


def sympy_cyclotomic_split(m):
    """({order: multiplicity}, monic non-cyclotomic cofactor) from sympy's
    factorization of the characteristic polynomial."""
    _, factors = sp.factor_list(to_sympy(m).charpoly(X).as_expr(), X)
    orders, rest = {}, sp.Integer(1)
    for f, e in factors:
        poly = sp.Poly(f, X)
        if poly.LC() == 1 and poly.is_cyclotomic:
            d = next(d for d in range(1, 2 * m.nrows ** 2 + 2)
                     if sp.Poly(sp.cyclotomic_poly(d, X), X) == poly)
            orders[d] = e
        else:
            rest *= f ** e
    return orders, sp.Poly(rest, X).monic()


def at_matrix(poly, m):
    out = sp.zeros(m.rows, m.cols)
    for c in poly.all_coeffs():
        out = out * m + c * sp.eye(m.rows)
    return out


@pytest.mark.parametrize("gens", FAMILIES)
def test_cyclotomic_split_matches_sympy(gens):
    for g in gens:
        factors, rest = cyclotomic_split(g.char_poly(), orders_with_totient_at_most(g.nrows))
        orders, sympy_rest = sympy_cyclotomic_split(g)
        assert dict(factors) == orders
        assert [sp.Rational(c.numerator, c.denominator) for c in reversed(rest.coeffs)] \
            == sympy_rest.all_coeffs()
        assert singular_cyclotomic_orders(g, orders_with_totient_at_most(g.nrows)) \
            == sorted(orders)


def sympy_common_kernel(mats, power):
    """Nullspace of the c(x)**power stacked over mats, c the product of
    the distinct cyclotomic factors of x's characteristic polynomial."""
    blocks = []
    for g in mats:
        c = sp.Integer(1)
        for d in sympy_cyclotomic_split(g)[0]:
            c *= sp.cyclotomic_poly(d, X)
        blocks.append(at_matrix(sp.Poly(c, X), to_sympy(g)) ** power)
    null = sp.Matrix.vstack(*blocks).nullspace()
    return Subspace.span(mats[0].nrows, [tuple(Fraction(int(x.p), int(x.q)) for x in v)
                                         for v in null])


def inverse_transposes(mats):
    return [m.transpose().inverse() for m in mats]


@pytest.mark.parametrize("gens", FAMILIES)
def test_finite_orbit_kernel_matches_sympy_nullspace(gens):
    """The transposes, which are the duals, and their inverses have the
    same kernel, since cyclotomic polynomials are reciprocal up to sign."""
    assert fixed_by_power(gens) == sympy_common_kernel(gens, 1)
    duals = [g.transpose() for g in gens]
    assert fixed_by_power(duals) == sympy_common_kernel(duals, 1) \
        == sympy_common_kernel(inverse_transposes(gens), 1)


@pytest.mark.parametrize("gens", [gens for gens in FAMILIES
                                  if all(a * b == b * a for a in gens for b in gens)])
def test_largest_ergodic_subgroup_matches_sympy_nullspace(gens):
    action = solenoid_action(gens)
    w = largest_ergodic_subgroup(action)
    assert w == sympy_common_kernel(action.dual_generators, action.dim) \
        == sympy_common_kernel(inverse_transposes(gens), action.dim)


def fraction_rref(rows):
    """Reference: Gauss-Jordan elimination in Fractions, each pivot row
    scaled to pivot 1 before it clears its column."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return [tuple(work[i]) for i in range(r)], pivots


def rref_inputs():
    """Random integer and rational matrices: tall, wide and square, of
    full rank and rank-deficient, some with zero and repeated rows and
    some with entries of 2^64 and more."""
    rng = random.Random(8128)
    out = []
    for i in range(48):
        nrows, ncols = rng.choice([(6, 3), (3, 6), (4, 4), (1, 5), (5, 1), (7, 5)])
        rank = rng.randint(0, min(nrows, ncols)) if i % 3 == 0 else min(nrows, ncols)
        big = 2 ** 64 if i % 4 == 1 else 1

        def entry():
            x = rng.randint(-5, 5) * big + rng.randint(-3, 3)
            return Fraction(x, rng.choice([1, 2, 3, 7, 12])) if i % 2 else x

        basis = [[entry() for _ in range(ncols)] for _ in range(max(rank, 1))]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(ncols)]
                if rank < min(nrows, ncols) else [entry() for _ in range(ncols)]
                for _ in range(nrows)]
        if i % 5 == 2:
            rows[rng.randrange(nrows)] = [0] * ncols
        if i % 5 == 3:
            rows.append(list(rows[rng.randrange(nrows)]))
        out.append(rows)
    return out


@pytest.mark.parametrize("rows", rref_inputs())
def test_rref_matches_sympy_and_fraction_reference(rows):
    ours, pivots = rref(rows)
    assert (ours, pivots) == fraction_rref(rows)
    theirs, their_pivots = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                                      for row in rows]).rref()
    assert pivots == list(their_pivots)
    assert ours == [tuple(Fraction(int(x.p), int(x.q)) for x in theirs.row(i))
                    for i in range(len(pivots))]
    for row in ours:
        for x in row:
            assert type(x) is (int if x.denominator == 1 else Fraction)


U = sp.symbols("u1 u2")
PRIMES = [2, 3, 5, 7]


def random_laurent(rng, p, nvars, max_terms=4, span=3):
    terms = {tuple(rng.randint(-span, span) for _ in range(nvars)): rng.randint(1, p - 1)
             for _ in range(rng.randint(1, max_terms))}
    return LaurentPoly.from_terms(p, nvars, terms)


def planted_pairs(p, nvars, count=12):
    """Random pairs, every other one multiplied by a shared random factor."""
    rng = random.Random(1000 * p + nvars)
    pairs = []
    for i in range(count):
        f, g = random_laurent(rng, p, nvars), random_laurent(rng, p, nvars)
        if i % 2:
            common = random_laurent(rng, p, nvars, max_terms=3, span=2)
            f, g = f * common, g * common
        pairs.append((f, g))
    return pairs


def sympy_poly(f, gens=U):
    """The canonical form of f as a sympy polynomial over GF(p)."""
    expr = sum(c * sp.Mul(*(u ** e for u, e in zip(gens, exps)))
               for exps, c in f.canonical().terms)
    return sp.Poly(expr, *gens, modulus=f.p)


def same_up_to_unit(ours, theirs):
    return ours.monic() == theirs.monic()


@pytest.mark.parametrize("p", PRIMES)
def test_fp_gcd_matches_sympy(p):
    for f, g in planted_pairs(p, 1):
        ours = _fp_gcd(f.canonical().univariate_in(0), g.canonical().univariate_in(0), p)
        theirs = sympy_poly(f, U[:1]).gcd(sympy_poly(g, U[:1]))
        assert same_up_to_unit(sympy_poly(LaurentPoly.along(p, (1,), ours), U[:1]), theirs)


@pytest.mark.parametrize("p", PRIMES)
def test_content_in_matches_sympy(p):
    """The content in u_var is the gcd of the coefficients of f as a
    polynomial in the other variable over GF(p)[u_var]."""
    rng = random.Random(p)
    for f, _ in planted_pairs(p, 2):
        for var in (0, 1):
            side = random_laurent(rng, p, 1).canonical().univariate_in(0)
            axis = (1, 0) if var == 0 else (0, 1)
            h = f * LaurentPoly.along(p, axis, side)  # a univariate factor
            ring = sp.GF(p)[U[var]]
            over_ring = sp.Poly(sympy_poly(h).as_expr(), U[1 - var], domain=ring)
            theirs = sp.Poly(ring.to_sympy(over_ring.content()), U[var], modulus=p)
            ours = LaurentPoly.along(p, (1,), content_along(h, axis)[2])
            assert same_up_to_unit(sympy_poly(ours, U[var:var + 1]), theirs)


MIXED = [(1, 1), (1, -1), (2, 1), (1, -2), (2, 2), (3, -2), (5, 2), (4, -3)]
SCAN_REACH = 16


def to_second_axis(f, n0):
    """f under the monomial automorphism u^e -> u^(A e), A in GL2(Z) with
    A n0 = (0, 1).  It maps u^(k*m*n0) - 1 to u2^(k*m) - 1 and keeps
    every gcd, up to a unit."""
    a, b = n0
    x, y = next((x, y) for x in range(-6, 7) for y in range(-6, 7) if x * a + y * b == 1)
    return LaurentPoly.from_terms(f.p, 2, {(a * e2 - b * e1, x * e1 + y * e2): c
                                           for (e1, e2), c in f.terms})


@pytest.mark.parametrize("p", PRIMES)
def test_bounded_scan_hits_are_exact_verdicts(p):
    """The bounded scan the exact verdicts replace: the least k up to
    SCAN_REACH at which sympy's GF(p) gcd of g and u^(k*n) - 1 is not a
    unit.  A hit is a not-ergodic verdict with the same least power and
    the same common factor; no hit is an ergodic verdict, or a witness
    power past the reach.  The scan runs in coordinates where n points
    along u2, which keeps sympy's bivariate gcd fast."""
    rng = random.Random(7 * p)
    for i in range(8):
        g = random_laurent(rng, p, 2)
        if i % 2:
            n0 = rng.choice(MIXED)
            n0 = tuple(x // math.gcd(*n0) for x in n0)
            g = g * LaurentPoly.along(p, n0, [rng.randint(1, p - 1)]
                                      + [rng.randint(0, p - 1) for _ in range(rng.randint(0, 1))]
                                      + [1])
        if g.is_unit:
            continue
        action = laurent_cyclic_action(p, 2, g)
        for n in MIXED:
            m = math.gcd(*n)
            n0 = tuple(x // m for x in n)
            moved = sympy_poly(to_second_axis(g, n0))
            scan = ((k, moved.gcd(sp.Poly(U[1] ** (k * m) - 1, *U, modulus=p)))
                    for k in range(1, SCAN_REACH + 1))
            hit = next(((k, common) for k, common in scan if common.total_degree() > 0), None)
            verdict = direction_is_ergodic(action, n)
            if verdict.is_ergodic:
                assert hit is None
                continue
            data = verdict.data
            if data["power"] > SCAN_REACH:
                assert hit is None
                continue
            assert hit is not None and hit[0] == data["power"]
            factor = decode_laurent(data["common_factor"])
            assert same_up_to_unit(sympy_poly(to_second_axis(factor, n0)), hit[1])
