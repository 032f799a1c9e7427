import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec.intpoly import Polynomial, cyclotomic, orders_with_totient_at_most
from ergodec.matrices import (DimensionError, Matrix, Subspace, _bareiss, _matrix_over,
                              _scaled_poly_at, fixed_by_power, induced, kernel,
                              singular_cyclotomic_orders)
from ergodec.oracle import walk_orbit
from factories import fibonacci_matrix, random_unimodular


def poly(*coeffs_low_first):
    return Polynomial.from_coeffs(coeffs_low_first)


def char_poly_by_cofactors(m):
    """Independent oracle: expand det(xI - A) over polynomial entries."""
    n = m.nrows
    entries = [[poly(-m.rows[i][j], 1) if i == j else poly(-m.rows[i][j])
                for j in range(n)] for i in range(n)]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Polynomial.zero()
        for j, top in enumerate(mat[0]):
            if top.is_zero:
                continue
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = top * det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    return det(entries)


class TestCharPoly:
    def test_identity(self):
        assert Matrix.identity(2).char_poly() == poly(1, -2, 1)

    def test_fibonacci(self):
        assert fibonacci_matrix().char_poly() == poly(-1, -1, 1)
        assert char_poly_by_cofactors(fibonacci_matrix()) == poly(-1, -1, 1)

    def test_rotation(self):
        rot = Matrix.from_rows([[0, -1], [1, 0]])
        assert rot.char_poly() == poly(1, 0, 1)
        assert char_poly_by_cofactors(rot) == poly(1, 0, 1)

    def test_against_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(n)]
                                  for _ in range(n)])
            assert m.char_poly() == char_poly_by_cofactors(m)

    def test_rational_entries(self):
        m = Matrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
        assert m.char_poly() == char_poly_by_cofactors(m)

    def test_conjugation_invariance(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 4)
            m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                                  for _ in range(n)])
            p = random_unimodular(rng, n)
            assert (p * m * p.inverse()).char_poly() == m.char_poly()

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            Matrix.from_rows([[1, 2, 3], [4, 5, 6]]).char_poly()


class TestDeterminantAndInverse:
    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = Matrix.from_rows([[rng.randint(-5, 5) for _ in range(n)]
                                  for _ in range(n)])
            # det = (-1)^n * charpoly(0)
            sign = 1 if n % 2 == 0 else -1
            expected = sign * char_poly_by_cofactors(m)(0)
            assert m.det() == expected

    def test_rational_det_clears_denominators(self):
        m = Matrix.from_rows([[32, 0, -15, -30], [2, 0, 0, -2],
                              [Fraction(1, 30), Fraction(1, 2), 0, 0],
                              [30, Fraction(1, 4), -15, -28]])
        assert m.det() == Fraction(1, 4)
        assert m.det() == char_poly_by_cofactors(m)(0)

    def test_rational_det_matches_cofactor_expansion(self):
        rng = random.Random(18)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = Matrix.from_rows([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                   for _ in range(n)] for _ in range(n)])
            sign = 1 if n % 2 == 0 else -1
            assert m.det() == sign * char_poly_by_cofactors(m)(0)

    def test_fibonacci_power_twelve(self):
        f12 = fibonacci_matrix() ** 12
        assert f12.rows == ((89, 144), (144, 233))
        assert (f12 - Matrix.identity(2)).det() == -320

    def test_inverse_roundtrip(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 4)
            p = random_unimodular(rng, n)
            assert p * p.inverse() == Matrix.identity(n)
            assert p ** -2 == (p.inverse()) ** 2
            assert (p ** -3).is_integral and p ** -3 * p ** 3 == Matrix.identity(n)
        checked = 0
        while checked < 20:
            n = rng.randint(1, 4)
            m = Matrix.from_rows([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                   for _ in range(n)] for _ in range(n)])
            if m.det() == 0:
                continue
            inv = m.inverse()
            assert m * inv == inv * m == Matrix.identity(n)
            assert m ** -2 == inv ** 2 and m ** -3 * m ** 3 == Matrix.identity(n)
            checked += 1

    def test_singular_inverse_rejected(self):
        singular = [Matrix.from_rows([[Fraction(x) for x in row] for row in rows]) for rows in (
            [[1, 2], [2, 4]], [[0]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[1, 0, 2], [0, 1, 3], [4, 5, 23]], [[2, 1, "7/2"], [1, 3, "17/4"], [0, 1, 1]])]
        # the first n - 1 columns are independent and the last one is a
        # rational combination of them
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(2, 5)
            weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 1)]
            singular.append(Matrix.from_rows(
                [row[:-1] + (sum(w * x for w, x in zip(weights, row[:-1])),)
                 for row in random_unimodular(rng, n).rows]))
        for m in singular:
            with pytest.raises(ValueError):
                m.inverse()


def list_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestIntegerResults:
    def test_integral_results_are_ints(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 5)
            a, b = ([[rng.randint(-9, 9) * 2 ** rng.choice([0, 64]) for _ in range(n)]
                     for _ in range(n)] for _ in range(2))
            coeffs = [rng.randint(-3, 3) for _ in range(4)]
            powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
            for _ in coeffs[1:]:
                powers.append(list_product(powers[-1], a))
            at = [[sum(c * pw[i][j] for c, pw in zip(coeffs, powers)) for j in range(n)]
                  for i in range(n)]
            product = Matrix.from_rows(a) * Matrix.from_rows(b)
            value = _matrix_over(*_scaled_poly_at(poly(*coeffs), Matrix.from_rows(a)))
            assert product.rows == tuple(map(tuple, list_product(a, b)))
            assert value.rows == tuple(map(tuple, at))
            for m in (product, value):
                assert all(type(x) is int for row in m.rows for x in row)
            assert type(Matrix.from_rows(a).det()) is int

    def test_integral_rational_results_collapse_to_ints(self):
        product = Matrix.from_rows([[Fraction(1, 2)]]) * Matrix.from_rows([[2]])
        assert product.rows == ((1,),) and type(product.rows[0][0]) is int
        assert product.is_integral
        half = Matrix.from_rows([[Fraction(1, 2), 1], [0, 2]])
        assert type(half.det()) is int and half.det() == 1
        value = _matrix_over(*_scaled_poly_at(poly(0, 2), half))
        assert value.rows == ((1, 2), (0, 4)) and value.is_integral


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        k = kernel(Matrix.from_rows([[0, 0], [0, 0]]))
        assert k == Subspace.full(2)

    def test_shear_fixed_line(self):
        shear = Matrix.from_rows([[1, 1], [0, 1]]) - Matrix.identity(2)
        assert kernel(shear).basis == ((1, 0),)

    def test_fibonacci_power_minus_identity_trivial(self):
        m = fibonacci_matrix() ** 12 - Matrix.identity(2)
        assert kernel(m).is_zero

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(23)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)]
                                  for _ in range(rows)])
            k = kernel(m)
            for v in k.basis:
                assert all(x == 0 for x in m.matvec(v))
            rank = Subspace.span(cols, m.rows).dim
            assert k.dim + rank == cols


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace.span(3, [(1, 2, 0), (0, 0, 1)])
        b = Subspace.span(3, [(2, 4, 2), (0, 0, -3), (1, 2, 1)])
        assert a == b

    def test_whole_space_is_the_identity_echelon_basis(self):
        for n in (1, 2, 5):
            assert Subspace.full(n) == Subspace.span(n, Matrix.identity(n).rows)

    def test_integral_basis_clears_denominators(self):
        s = Subspace.span(2, [(Fraction(1, 3), Fraction(1, 6))])
        assert s.integral_basis() == ((2, 1),)
        # the echelon basis is (1, 1/2): the residual of (2, 1) is
        # computed in Fractions, and it is zero
        assert s.basis == ((1, Fraction(1, 2)),)
        assert s.contains((2, 1)) and not s.contains((2, 2))


class TestQuotients:
    def test_restriction_in_invariant_plane(self):
        m = Matrix.block_diag(fibonacci_matrix(), Matrix.identity(2))
        plane = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert induced(m, plane, Subspace.zero(4)) == fibonacci_matrix()

    def test_restriction_requires_invariance(self):
        m = fibonacci_matrix()
        line = Subspace.span(2, [(1, 0)])
        with pytest.raises(ValueError):
            induced(m, line, Subspace.zero(2))

    def test_quotient_of_block_matrix(self):
        m = Matrix.block_diag(Matrix.identity(2), fibonacci_matrix())
        plane = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert induced(m, Subspace.full(4), plane) == fibonacci_matrix()

    def test_inner_in_outer_coordinates(self):
        # the swap of the first two coordinates keeps (1, 1, 0) and the
        # plane z = 0; on their quotient e2 = -e1, so e2 maps to e1 = -e2
        swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        outer = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        inner = Subspace.span(3, [(1, 1, 0)])
        assert induced(swap, outer, inner) == Matrix.from_rows([[-1]])
        # modulo (2, 2, 1), echelon (1, 1, 1/2), the residuals of twice the
        # swap are computed in Fractions; the integral entries of the
        # induced matrix are ints all the same
        double = Matrix.from_rows([[0, 2, 0], [2, 0, 0], [0, 0, 2]])
        inner = Subspace.span(3, [(2, 2, 1)])
        assert type(inner.reduce(double.matvec((0, 1, 0)))[2]) is Fraction
        q = induced(double, Subspace.full(3), inner)
        assert q == Matrix.from_rows([[-2, 0], [-1, 2]])
        assert all(type(x) is int for row in q.rows for x in row)

    def test_nesting_and_dimension_are_checked(self):
        swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        plane = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        axis = Subspace.span(3, [(0, 0, 1)])
        with pytest.raises(ValueError):
            induced(swap, plane, axis)  # not nested
        with pytest.raises(ValueError):
            induced(swap, plane, Subspace.span(3, [(1, 0, 0)]))  # not invariant
        with pytest.raises(DimensionError):
            induced(swap, plane, plane)
        with pytest.raises(DimensionError):
            induced(swap, Subspace.zero(3), Subspace.zero(3))

    @pytest.mark.parametrize("m", [Matrix.identity(2), Matrix.from_rows([[1, 0, 0]] * 2)],
                             ids=["smaller", "non-square"])
    def test_zero_and_whole_space_check_the_matrix_size(self, m):
        # the whole space and zero are invariant without any matvec, but
        # only under a matrix that acts on their ambient space
        for sub in (Subspace.zero(3), Subspace.full(3)):
            with pytest.raises(DimensionError):
                sub.is_invariant(m)
        with pytest.raises(DimensionError):
            induced(m, Subspace.full(3), Subspace.zero(3))


class TestFiniteOrbitPrimitives:
    def test_fixed_by_power_is_common_fixed_space(self):
        rot = Matrix.from_rows([[0, -1], [1, 0]])
        shear = Matrix.from_rows([[1, 1], [0, 1]])
        assert fixed_by_power([rot]).is_full
        assert fixed_by_power([fibonacci_matrix()]).is_zero
        assert fixed_by_power([shear]) == Subspace.span(2, [(1, 0)])
        assert fixed_by_power([rot, shear]) == Subspace.span(2, [(1, 0)])
        assert fixed_by_power([rot, fibonacci_matrix()]).is_zero

    def test_unipotent_power(self):
        rot = Matrix.from_rows([[0, -1], [1, 0]])
        shear = Matrix.from_rows([[1, 1], [0, 1]])
        assert rot.spectrum.unipotent_power.is_zero
        assert shear.spectrum.unipotent_power.is_zero
        assert not fibonacci_matrix().spectrum.unipotent_power.is_zero

    def test_cyclotomic_orders_by_both_routes(self):
        rot = Matrix.from_rows([[0, -1], [1, 0]])
        third = Matrix.from_rows([[0, -1], [1, -1]])
        cases = [(rot, [4]), (Matrix.from_rows([[1, 1], [0, 1]]), [1]),
                 (fibonacci_matrix(), []),
                 (Matrix.block_diag(third, rot, rot * rot), [2, 3, 4])]
        for x, orders in cases:
            assert x.spectrum.orders == orders
            assert singular_cyclotomic_orders(x, [1, 2, 3, 4, 5, 6, 8]) == orders

    def test_stage_quotient_of_block_matrix(self):
        m = Matrix.block_diag(Matrix.identity(2), fibonacci_matrix())
        plane = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert induced(m, Subspace.full(4), plane) == fibonacci_matrix()
        assert induced(m, Subspace.full(4), Subspace.zero(4)) is m
        line = Subspace.span(4, [(1, 0, 0, 0)])
        assert induced(m, plane, line) == Matrix.identity(1)

    def test_walk_orbit_stops(self):
        rot = Matrix.from_rows([[0, -1], [1, 0]]).matvec
        seen, stop, last = walk_orbit([rot], (1, 0), cap=10)
        assert (len(seen), stop, last) == (4, None, None)
        shear = Matrix.from_rows([[1, 1], [0, 1]]).matvec
        seen, stop, last = walk_orbit([shear], (0, 1), cap=5)
        assert (len(seen), stop, last) == (6, "visited-cap", (5, 1))
        seen, stop, last = walk_orbit([shear], (0, 1), cap=100, guard=3)
        assert (seen, stop, last) == ({(0, 1), (1, 1), (2, 1)}, "coordinate-guard", (3, 1))
        seen, stop, last = walk_orbit([shear], (0, 1), cap=100, known={(2, 1)})
        assert (seen, stop, last) == ({(0, 1), (1, 1)}, "known", (2, 1))


def companion(coeffs):
    """Companion matrix of the monic polynomial with the given
    coefficients, lowest degree first."""
    n = len(coeffs) - 1
    return Matrix.from_rows([[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]]
                             for i in range(n)])


def poly_at_in_fractions(p, x):
    """p(x) by Matrix products and sums, entries in Fractions."""
    n = x.nrows
    value = Matrix.from_rows([[0] * n for _ in range(n)])
    power = Matrix.identity(n)
    for c in p.coeffs:
        value = value + Matrix.from_rows([[c * y for y in row] for row in power.rows])
        power = power * x
    return value


@st.composite
def conjugated_blocks(draw):
    """D B D^-1, B the block diagonal of companions of cyclotomic and of
    random monic polynomials, D diagonal with entries up to 2**64: a
    rational matrix with root-of-unity eigenvalues and denominators up
    to 2**64."""
    blocks = draw(st.lists(st.one_of(
        st.sampled_from([cyclotomic(d).coeffs for d in (1, 2, 3, 4, 6)]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(lambda c: (*c, 1))),
        min_size=1, max_size=3))
    b = Matrix.block_diag(*map(companion, blocks))
    scale = draw(st.lists(st.integers(1, 2 ** 64), min_size=b.nrows, max_size=b.nrows,
                          unique=True))
    return Matrix.from_rows([[Fraction(y * scale[i], scale[j]) for j, y in enumerate(row)]
                             for i, row in enumerate(b.rows)])


class TestIntegerRoute:
    @settings(max_examples=40, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_bareiss_is_the_cofactor_determinant(self, rows):
        n = len(rows)
        sign = 1 if n % 2 == 0 else -1
        expected = sign * char_poly_by_cofactors(Matrix.from_rows(rows))(0)
        assert _bareiss([list(row) for row in rows]) == expected
        if n > 1:
            assert _bareiss([list(row) for row in rows[:-1]] + [list(rows[0])]) == 0

    @settings(max_examples=40, derandomize=True)
    @given(conjugated_blocks())
    def test_singular_orders_of_rational_matrices(self, x):
        orders = orders_with_totient_at_most(x.nrows)
        expected = [d for d in orders if poly_at_in_fractions(cyclotomic(d), x).det() == 0]
        assert singular_cyclotomic_orders(x, orders) == expected == x.spectrum.orders

    def test_one_power_list_shared_and_never_overwritten(self):
        # the companion of x**8 - 1, a rank-8 dual of finite order
        x = companion((-1, 0, 0, 0, 0, 0, 0, 0, 1))
        spectrum = x.spectrum
        expected = [[list(row) for row in (x ** k).rows] for k in range(9)]
        assert spectrum.singular_orders == [1, 2, 4, 8]
        assert x.det() == -1 and x._scaled[0] == 1
        assert x._int_powers == expected
        assert spectrum.cyclotomic_at.is_zero
        assert x._int_powers == expected
        assert spectrum.cyclotomic_at == Matrix(x.rows).spectrum.cyclotomic_at
