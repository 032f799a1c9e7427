"""Deterministic random constructions shared across the test suite.

Families are built so that their dynamical properties hold by elementary
coefficient arguments, independent of the engine under test: ergodic
seeds have characteristic polynomials that no product of cyclotomics can
match, unipotent blocks are triangular by construction, and commutativity
comes from Kronecker structure or from taking polynomials in one matrix.
"""

from __future__ import annotations

import math
import random

from ergodec import LaurentPoly, Matrix, product_counterexample
from ergodec.encoding import encode_matrix
from ergodec.intpoly import cyclotomic, orders_with_totient_at_most


def random_unimodular(rng: random.Random, n: int, ops: int = 5) -> Matrix:
    """Product of elementary shears, swaps, and sign flips."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                rows[i][k] += c * rows[j][k]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return Matrix.from_rows(rows)


def root_of_unity_lcm(r: int) -> int:
    """lcm of all orders of roots of unity that satisfy a rational
    polynomial of degree at most r: exponential in r, the uniform power
    that tests check the engine's cyclotomic answers against."""
    return math.lcm(*orders_with_totient_at_most(r))


def conjugate(m: Matrix, p: Matrix) -> Matrix:
    return p * m * p.inverse()


def kron(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            row = []
            for j in range(a.ncols):
                for l in range(b.ncols):
                    row.append(a.rows[i][j] * b.rows[k][l])
            rows.append(row)
    return Matrix.from_rows(rows)


def fibonacci_matrix() -> Matrix:
    return Matrix.from_rows([[0, 1], [1, 1]])


def random_ergodic_2x2(rng: random.Random) -> Matrix:
    """Companion of x^2 - t*x - s with |t| >= 3 and s = +-1.

    The determinant is -s, and no product of cyclotomics of degree at
    most two has a middle coefficient of magnitude three, nor is +-1 a
    root, so no eigenvalue is a root of unity.
    """
    t = rng.choice([-6, -5, -4, -3, 3, 4, 5, 6])
    s = rng.choice([1, -1])
    return Matrix.from_rows([[0, 1], [s, t]])


def ergodic_3x3() -> Matrix:
    """Companion of x^3 - x - 1: irreducible over the rationals, and no
    cyclotomic polynomial has odd degree three."""
    return Matrix.from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 0]])


def random_unipotent(rng: random.Random, n: int) -> Matrix:
    rows = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0)
             for j in range(n)] for i in range(n)]
    return Matrix.from_rows(rows)


def random_nilpotent(rng: random.Random, n: int) -> Matrix:
    rows = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)]
            for i in range(n)]
    return Matrix.from_rows(rows)


def ergodic_distal_pair(rng: random.Random, max_dim: int = 6):
    """Commuting pair (alpha ergodic, beta quasi-unipotent), conjugated
    by a random unimodular matrix."""
    shapes = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]
    shapes = [(k, m) for k, m in shapes if k * m <= max_dim]
    k, m = rng.choice(shapes)
    seed = ergodic_3x3() if k == 3 else random_ergodic_2x2(rng)
    unip = random_unipotent(rng, m)
    sign = rng.choice([1, -1])
    alpha = kron(seed, Matrix.identity(m))
    beta = kron(Matrix.identity(k), unip)
    if sign == -1:
        beta = Matrix.from_rows([[-x for x in row] for row in beta.rows])
    p = random_unimodular(rng, k * m)
    return conjugate(alpha, p), conjugate(beta, p)


def commuting_mixed_family(rng: random.Random, max_dim: int = 6):
    """Commuting generators of the form +-(seed^a (x) unipotent^b),
    conjugated simultaneously: products of powers of one ergodic seed and
    one commuting quasi-unipotent block."""
    shapes = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]
    shapes = [(k, m) for k, m in shapes if k * m <= max_dim]
    k, m = rng.choice(shapes)
    seed = ergodic_3x3() if k == 3 else random_ergodic_2x2(rng)
    unip = random_unipotent(rng, m)
    p = random_unimodular(rng, k * m)
    n_gens = rng.randint(1, 3)
    gens = []
    for _ in range(n_gens):
        a = rng.randint(-2, 2)
        b = rng.randint(-2, 2)
        g = kron(seed ** a, unip ** b)
        if rng.random() < 0.3:
            g = Matrix.from_rows([[-x for x in row] for row in g.rows])
        gens.append(conjugate(g, p))
    return gens


def commuting_unipotent_family(rng: random.Random, max_dim: int = 6):
    """Commuting unipotent generators: identity plus polynomials in one
    nilpotent matrix, conjugated simultaneously."""
    n = rng.randint(2, max_dim)
    nil = random_nilpotent(rng, n)
    p = random_unimodular(rng, n)
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = Matrix.identity(n)
        power = nil
        for _ in range(rng.randint(1, n - 1)):
            c = rng.randint(-2, 2)
            if c:
                g = g + Matrix.from_rows([[c * x for x in row] for row in power.rows])
            power = power * nil
        gens.append(conjugate(g, p))
    return gens


def counterexample_doc(radius: int) -> dict:
    """Action document of the product counterexample truncated at radius."""
    action = product_counterexample(radius)
    return {"type": "toral", "r": action.dim,
            "generators": [encode_matrix(g) for g in action.generators]}


def cyclotomic_blocks_doc(orders) -> dict:
    """Action document of one finite-order generator: the block diagonal
    of the companion matrices of the cyclotomic polynomials of the given
    orders, conjugated by P = I with ones across the first row.  The
    witness character e1 of the dual (P A P^-1)^T is carried by P^T to
    the all-ones vector, which meets every block, so its orbit has
    lcm(orders) points."""
    blocks = []
    for d in orders:
        coeffs = cyclotomic(d).coeffs
        n = len(coeffs) - 1
        blocks.append(Matrix.from_rows(
            [[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]))
    a = Matrix.block_diag(*blocks)
    p = Matrix.from_rows([[int(i == 0 or i == j) for j in range(a.nrows)]
                          for i in range(a.nrows)])
    return {"type": "toral", "r": a.nrows, "generators": [encode_matrix(conjugate(a, p))]}


def power_minus_one(p: int, nvars: int, direction, k: int) -> LaurentPoly:
    """The Laurent polynomial u^(k*direction) - 1, expanded: the identity
    a finite-quotient witness is about, which the engine and replay never
    form."""
    exps = tuple(k * n for n in direction)
    if all(x == 0 for x in exps):
        raise ValueError("direction must be nonzero")
    return LaurentPoly.from_terms(p, nvars, {exps: 1, (0,) * nvars: p - 1})
