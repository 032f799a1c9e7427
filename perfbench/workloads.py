"""Seeded inputs for the benchmark workloads.

Every input is a plain JSON action document built here from
`random.Random(seed)`; nothing is imported from the library or its
tests, so editing either never changes what the benchmark feeds the
library.  The constructions mirror the test factories: commuting toral
families are +-(seed^a (x) unipotent^b) conjugated by one unimodular (or,
for solenoids, rational) matrix, and Laurent presenters are products of
random factors over F_p.

Each workload is a list of slots.  A slot fixes the input dimensions
that decide an op's cost (rank, seed polynomial, generator count and seed
exponents, the prime, degree and axis content or witness order band of a
Laurent presenter); the seed draws everything else (unipotent entries,
signs, conjugators, coefficients).  The set of slots is the same for
every seed, so two seeds give different inputs with the same cost
profile, and run-to-run spread measures the program rather than the draw.

An op is (input id, document, CLI arguments after the input path).
"""

from __future__ import annotations

import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Exact matrix helpers (lists of int / Fraction rows)
# ---------------------------------------------------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def inverse(a):
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [[_norm(x) for x in row[n:]] for row in aug]


def _norm(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def mat_pow(a, e):
    if e < 0:
        a, e = inverse(a), -e
    out = identity(len(a))
    for _ in range(e):
        out = matmul(out, a)
    return out


def kron(a, b):
    return [[a[i][j] * b[k][l] for j in range(len(a)) for l in range(len(b))]
            for i in range(len(a)) for k in range(len(b))]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def companion(k, t, s):
    """Companion matrix of x^k - t*x - s; determinant +-s."""
    if k == 1:
        return [[t + s]]
    m = [[0] * k for _ in range(k)]
    for i in range(1, k):
        m[i][i - 1] = 1
    m[0][k - 1] = s
    m[1][k - 1] += t
    return m


def unimodular(rng, n, ops):
    """Product of elementary row additions and sign flips."""
    m = identity(n)
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.15:
            m[i] = [-x for x in m[i]]
        else:
            c = rng.choice((-1, 1))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def rational_conjugator(rng, n):
    """Unimodular matrix times a diagonal of small positive rationals."""
    scale = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 5))) for _ in range(n)]
    u = unimodular(rng, n, n)
    return [[x * scale[j] for j, x in enumerate(row)] for row in u]


def conjugate(g, p, p_inv):
    return [[_norm(x) for x in row] for row in matmul(matmul(p, g), p_inv)]


def encode(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def matrix_doc(kind, gens):
    return {"type": kind, "r": len(gens[0]),
            "generators": [[[encode(x) for x in row] for row in g] for g in gens]}


# ---------------------------------------------------------------------------
# toral-solenoid
# ---------------------------------------------------------------------------

# Seeds are companions of x^k - t*x - s with (k, t, s) fixed by the slot:
# the signs of t and s move the root magnitudes, which set the entry sizes
# of the uniform power and so the cost.  With |t| >= 3 and |s| = 1 no root
# of unity is a root (|z^k - s| <= 2 < |t|), so the seed is hyperbolic.
# With t = 0 the seed has finite order, and k = 2 with |t| <= 2, s = -1 is
# elliptic or parabolic: both keep entries small whatever the rank.


def fraction_free_divides(a):
    """Whether fraction-free (Bareiss) elimination of `a`, pivoting as
    the library's `Matrix.det` does, divides exactly at every step where
    both operands are integers.  On a rational matrix such a step can be
    inexact, and `Matrix.det` then raises ArithmeticError: a known defect
    that KNOWN_DEFECTS reproduces."""
    n = len(a)
    m = [list(row) for row in a]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return True
            m[k], m[swap] = m[swap], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if isinstance(num, int) and isinstance(prev, int) and num % prev:
                    return False
                m[i][j] = _norm(Fraction(num) / prev)
            m[i][k] = 0
        prev = m[k][k]
    return True


def toral_family(rng, kind, k, m, a_pattern, t, s, det_exact=True):
    """Commuting generators +-(seed^a (x) U^b), conjugated together.

    a_pattern gives each generator's seed exponent a in {-1, 0, 1}; the
    unipotent U, the exponents b != 0, the signs and the conjugator are
    drawn from rng.  A solenoid family is redrawn until
    `fraction_free_divides` holds for every generator (or, with
    det_exact=False, until it fails for one).
    """
    seed = companion(k, t, s)
    unip = [[1 if i == j else
             rng.choice((-2, -1, 1, 2)) if j == i + 1 else
             rng.randint(-2, 2) if j > i else 0 for j in range(m)]
            for i in range(m)]
    n = k * m
    for _ in range(1000):
        p = rational_conjugator(rng, n) if kind == "solenoid" else unimodular(rng, n, 2 * n)
        p_inv = inverse(p)
        gens = []
        for a in a_pattern:
            g = kron(mat_pow(seed, a), mat_pow(unip, rng.choice((-2, -1, 1, 2))))
            if rng.random() < 0.3:
                g = [[-x for x in row] for row in g]
            gens.append(conjugate(g, p, p_inv))
        if kind == "toral" or all(map(fraction_free_divides, gens)) == det_exact:
            return matrix_doc(kind, gens)
    raise ValueError(f"no {kind} family of rank {n} with det_exact={det_exact}")


ALL_TORAL = (("analyze",), ("filtration",), ("find-ergodic",))

# (kind, (k, m, t, s), a_pattern, commands).  Rank is k*m.
TORAL_SLOTS = (
    # ranks 2-5, every command: milliseconds each
    *[("toral", seed, pat, ALL_TORAL)
      for seed in ((2, 1, 3, 1), (2, 1, -6, 1), (3, 1, 4, 1), (2, 2, 3, 1),
                   (2, 2, -5, 1), (4, 1, 4, -1), (5, 1, 3, 1), (5, 1, -6, 1))
      for pat in ((1,), (-1, 0), (0, 1, -1))],
    *[("toral", seed, pat, ALL_TORAL)
      for seed in ((2, 2, 0, 1), (4, 1, 0, -1))
      for pat in ((1,), (0, 1))],
    *[("solenoid", seed, pat, ALL_TORAL)
      for seed in ((1, 1, 1, 2), (2, 1, 4, 2), (3, 1, -5, 3), (2, 2, 4, -2))
      for pat in ((1,), (1, -1))],
    # ranks 8-9 with small-entry seeds: large uniform power, small numbers
    *[("toral", seed, (1, -1), ALL_TORAL)
      for seed in ((2, 4, 2, -1), (3, 3, 0, 1), (8, 1, 0, 1))],
    # ranks 6-7 hyperbolic: the uniform power dominates; filtration is
    # left out because it takes seconds here, too near the deadline
    *[("toral", seed, pat, (cmd,))
      for seed, pat, cmd in (((2, 3, 3, 1), (1,), ("find-ergodic",)),
                             ((3, 2, 3, 1), (-1, 0), ("analyze",)),
                             ((6, 1, 3, 1), (1, 0), ("find-ergodic",)),
                             ((7, 1, 3, 1), (-1,), ("analyze",)))],
    # finite-order seeds at ranks 6 and 8, analyze only: 50-65 ms whatever
    # the draw.  They are the workload's 90th-percentile cost class, so
    # that op_p90_ms sits inside one class rather than on the steep edge
    # between the rank 6-9 ops above and the solenoid and rank-5 ops below,
    # whose cost moves with the draw
    *[("toral", seed, pat, (("analyze",),))
      for seed, pat in (((8, 1, 0, 1), (1, -1)), ((2, 3, 0, 1), (1, 0, -1)))
      for _ in range(6)],
    # ranks 10-12 hyperbolic: no op finishes within the deadline today
    ("toral", (2, 5, 3, 1), (1,), (("analyze",),)),
    ("toral", (11, 1, 3, 1), (1,), (("find-ergodic",),)),
    ("toral", (3, 4, 3, 1), (1,), (("filtration",),)),
)


def toral_solenoid(rng):
    ops = []
    for i, (kind, (k, m, t, s), pat, commands) in enumerate(TORAL_SLOTS):
        doc = toral_family(rng, kind, k, m, pat, t, s)
        for cmd in commands:
            ops.append((f"ts{i:02d}-{kind[0]}r{k * m}g{len(pat)}", doc, cmd))
    return ops


# Inputs on which the library fails today, kept out of the timed ops so
# that no op of the workload fails; the benchmark runs each once, untimed,
# and reports whether it still fails.  (kind, (k, m, t, s), a_pattern,
# command, det_exact, defect).
KNOWN_DEFECTS = (
    # rank 6 with |t| >= 5: det(B^m - I) has over 5000 digits, past the
    # interpreter's int-to-str limit of 4300, so the report cannot be
    # written (|t| = 3 stays near 3900 digits and is written)
    ("toral", (2, 3, 5, 1), (1,), ("analyze",), True,
     "report integer past the int-to-str limit"),
    # a rank-4 rational conjugate on which Matrix.det divides inexactly
    ("solenoid", (2, 2, 4, -2), (1, -1), ("analyze",), False,
     "inexact division in fraction-free elimination"),
)


def known_defects(workload):
    """[(input id, document, CLI arguments, defect)] of a workload, from a
    fixed stream; only toral-solenoid has any."""
    if workload != "toral-solenoid":
        return []
    rng = random.Random("toral-solenoid:known-defects")
    out = []
    for kind, (k, m, t, s), pat, cmd, det_exact, defect in KNOWN_DEFECTS:
        doc = toral_family(rng, kind, k, m, pat, t, s, det_exact)
        out.append((f"kd-{kind[0]}r{k * m}g{len(pat)}", doc, cmd, defect))
    return out


# ---------------------------------------------------------------------------
# laurent-modules
# ---------------------------------------------------------------------------
# Dense univariate polynomials over F_p, lowest degree first.


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        _trim(a)
    return a


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def witness_order(g, p, limit):
    """Least k <= limit with gcd(g, u^k - 1) non-constant, else None."""
    x = _pmod([0, 1], g, p)
    power = x
    for k in range(1, limit + 1):
        shifted = list(power) + [0] * max(0, 1 - len(power))
        shifted[0] = (shifted[0] - 1) % p
        if len(_pgcd(list(g), _trim(shifted), p)) > 1:
            return k
        power = _pmod(_pmul(power, x, p), g, p)
    return None


def _random_poly(rng, p, deg):
    """Random polynomial of exact degree deg with nonzero constant term."""
    return ([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg - 1)]
            + [rng.randrange(1, p)])


def univariate_presenter(rng, p, deg, order_band):
    """One-variable presenter of degree deg whose least witness power
    lies in order_band, by rejection."""
    lo, hi = order_band
    for _ in range(100_000):
        g = _random_poly(rng, p, deg)
        k = witness_order(g, p, hi)
        if k is not None and k >= lo:
            return g
    raise ValueError(f"no presenter of degree {deg} over F_{p} in band {order_band}")


def laurent_doc(p, nvars, terms):
    return {"type": "laurent", "p": p, "d": nvars,
            "g": [{"exponents": list(e), "coefficient": c}
                  for e, c in sorted(terms.items()) if c % p]}


def _bivariate_mul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def _random_bivariate(rng, p, deg):
    """Dense polynomial in u1, u2 of total degree deg: every monomial
    present, with random nonzero coefficients."""
    return {(i, j): rng.randrange(1, p)
            for i in range(deg + 1) for j in range(deg + 1 - i)}


def _axis_factor(rng, p, var, deg):
    coeffs = _random_poly(rng, p, deg)
    return {((i, 0) if var == 0 else (0, i)): c for i, c in enumerate(coeffs) if c}


def bivariate_presenter(rng, p, deg, axes):
    """Random bivariate core times one univariate factor per listed axis,
    which gives the presenter non-trivial content along that axis."""
    g = _random_bivariate(rng, p, deg) if deg else {(0, 0): 1}
    for var in axes:
        g = _bivariate_mul(g, _axis_factor(rng, p, var, 1), p)
    return g


ANALYZE = ("analyze",)
FIND_BOX2 = ("find-ergodic", "--search-box", "2")

# One-variable slots: (p, degree, witness order band).  The witness search
# walks powers of u modulo the presenter, so its cost follows the least
# order, which the band pins.  The slowest slots form one cost class
# (degree 12 over F_2, least witness power exactly 63, a product of two
# order-63 sextics) so that the 90th percentile of the workload sits
# inside a class rather than on the edge between two.
UNIVARIATE_SLOTS = tuple(
    (p, deg, band)
    for p, degs in ((2, (8, 10, 12, 14)), (3, (6, 8, 10, 12)), (5, (6, 8, 10)),
                    (7, (6, 7, 8)))
    for deg in degs
    for band in ((2, 12), (13, 60))) + ((2, 12, (63, 63)),) * 14

# Two-variable slots: (p, core degree, axes carrying content).  Content in
# both axes sends find-ergodic through every mixed direction of the box.
BIVARIATE_SLOTS = tuple(
    (p, deg, axes)
    for p in (2, 3, 5, 7)
    for deg, axes in ((2, ()), (2, (0,)), (2, (1,)))) + ((2, 0, (0, 1)),)


# Two-variable presenters run through analyze only: two exact axis content
# checks and the closure argument for the group, a few milliseconds each.
# They are the bulk of the workload's ops and keep its median op in one
# cost class.
AXIS_SLOTS = tuple((p, deg) for p in (2, 3, 5, 7) for deg in (2, 3) for _ in range(6))


def laurent_modules(rng):
    ops = []
    for i, (p, deg, band) in enumerate(UNIVARIATE_SLOTS):
        g = univariate_presenter(rng, p, deg, band)
        doc = laurent_doc(p, 1, {(j,): c for j, c in enumerate(g)})
        for cmd in (ANALYZE, ("find-ergodic",)):
            ops.append((f"lm{i:02d}-u-p{p}d{deg}", doc, cmd))
    for i, (p, deg, axes) in enumerate(BIVARIATE_SLOTS):
        doc = laurent_doc(p, 2, bivariate_presenter(rng, p, deg, axes))
        for cmd in (ANALYZE, FIND_BOX2):
            ops.append((f"lm{i:02d}-b-p{p}d{deg}a{len(axes)}", doc, cmd))
    for i, (p, deg) in enumerate(AXIS_SLOTS):
        doc = laurent_doc(p, 2, bivariate_presenter(rng, p, deg, ()))
        ops.append((f"lm{i:02d}-a-p{p}d{deg}", doc, ANALYZE))
    return ops


# ---------------------------------------------------------------------------
# oracle-box
# ---------------------------------------------------------------------------

ORACLE_CHECK = ("oracle-check", "--norm-bound", "2", "--cap", "200")


def block_pair(rng):
    """Two hyperbolic 2x2 seeds on complementary blocks of a 4-torus."""
    e1, e2 = companion(2, 3, 1), companion(2, -3, 1)
    return [block_diag(mat_pow(e1, rng.choice((-1, 1))), identity(2)),
            block_diag(identity(2), mat_pow(e2, rng.choice((-1, 1))))]


def shear(rng):
    """A unipotent 2x2 shear, conjugated: orbits grow linearly, so only
    the visited cap ends the walk."""
    c = rng.choice((-2, -1, 1, 2))
    p = unimodular(rng, 2, 3)
    return [conjugate([[1, c], [0, 1]], p, inverse(p))]


# ((k, m, t, s), a_pattern) for dimensions 2-4.  Dimensions 2 and 3 are
# many and cheap; the 4-dim slots, the block pair and the shear are where
# the walk meets the visited cap on two-parameter orbits.  Those few
# dominate time and memory, so they are drawn from a fixed stream rather
# than the seed: how many box characters share an orbit depends on every
# detail of the matrices, and would otherwise move both from seed to seed.
ORACLE_SLOTS = (
    *[((2, 1, t, s), pat) for _ in range(4)
      for (t, s), pats in (((3, 1), ((1,), (1, -1), (0, 1))),
                           ((-4, 1), ((-1,), (1, 1), (0, -1))),
                           ((5, -1), ((1,), (1, -1), (0, 1))),
                           ((-6, 1), ((1,), (1, 1), (0, 1))),
                           ((0, 1), ((1,), (0,))), ((1, -1), ((1,),)),
                           ((2, -1), ((1,), (0,))))
      for pat in pats],
    *[((3, 1, t, 1), pat) for _ in range(2) for pat in ((1,), (-1, 0), (0, 1))
      for t in (3, -4, 5, -6)],
    *[((3, 1, 0, 1), pat) for pat in ((1,), (-1, 0), (0, 1))],
    ((2, 2, 3, 1), (1,)), ((2, 2, 3, 1), (0, 1)), ((4, 1, 3, 1), (1,)),
    ((4, 1, 0, -1), (1,)),
)


def oracle_box(rng):
    ops = []
    fixed = random.Random("oracle-box:fixed")
    for i, ((k, m, t, s), pat) in enumerate(ORACLE_SLOTS):
        draw = fixed if k * m == 4 else rng
        doc = toral_family(draw, "toral", k, m, pat, t, s)
        ops.append((f"ob{i:03d}-r{k * m}g{len(pat)}", doc, ORACLE_CHECK))
    ops.append(("ob-blockpair", matrix_doc("toral", block_pair(fixed)), ORACLE_CHECK))
    ops.append(("ob-shear", matrix_doc("toral", shear(rng)), ORACLE_CHECK))
    return ops


WORKLOADS = {
    "toral-solenoid": toral_solenoid,
    "laurent-modules": laurent_modules,
    "oracle-box": oracle_box,
}


def generate(workload, seed):
    """Ops of one workload for one seed: [(input_id, doc, args), ...]."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
