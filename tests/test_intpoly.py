import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergodec.intpoly import (Polynomial, _norm_scalar, cyclotomic, cyclotomic_product,
                             cyclotomic_split, euler_phi, max_torsion_order,
                             orders_with_totient_at_most, poly_gcd)
from factories import root_of_unity_lcm


def phi_by_counting(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def poly(*coeffs_low_first):
    return Polynomial.from_coeffs(coeffs_low_first)


class TestEulerPhi:
    def test_small_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(2) == 1
        assert euler_phi(12) == 4

    def test_against_counting_oracle(self):
        for d in range(1, 80):
            assert euler_phi(d) == phi_by_counting(d)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            euler_phi(0)
        with pytest.raises(ValueError):
            euler_phi(-3)


class TestRootOfUnityLcm:
    def test_examples(self):
        assert root_of_unity_lcm(1) == 2
        assert root_of_unity_lcm(2) == 12
        assert root_of_unity_lcm(4) == 120

    def test_order_lists(self):
        assert orders_with_totient_at_most(1) == (1, 2)
        assert orders_with_totient_at_most(2) == (1, 2, 3, 4, 6)
        assert orders_with_totient_at_most(4) == (1, 2, 3, 4, 5, 6, 8, 10, 12)

    def test_cached_order_list_cannot_be_altered(self):
        orders = orders_with_totient_at_most(2)
        with pytest.raises(AttributeError):
            orders.append(7)
        assert orders_with_totient_at_most(2) == (1, 2, 3, 4, 6)

    def test_against_wide_scan_oracle(self):
        # Scan far beyond the implementation's cutoff to confirm no order
        # with a small totient is missed.
        for r in range(1, 8):
            wide = [d for d in range(1, 10 * r * r + 10)
                    if phi_by_counting(d) <= r]
            assert orders_with_totient_at_most(r) == tuple(
                d for d in wide if d <= 2 * r * r + 1)
            assert math.lcm(*wide) == root_of_unity_lcm(r)


def largest_lcm_by_subsets(r):
    """Largest lcm over every set of distinct candidate orders whose
    totients sum to at most r, by walking all such sets."""
    orders = orders_with_totient_at_most(r)

    def best(i, budget, acc):
        if i == len(orders):
            return acc
        skip = best(i + 1, budget, acc)
        phi = phi_by_counting(orders[i])
        if phi > budget:
            return skip
        return max(skip, best(i + 1, budget - phi, math.lcm(acc, orders[i])))
    return best(0, r, 1)


class TestMaxTorsionOrder:
    def test_levitt_nicolas_sequence(self):
        assert [max_torsion_order(r) for r in range(1, 13)] == [
            2, 6, 6, 12, 12, 30, 30, 60, 60, 120, 120, 210]

    @pytest.mark.parametrize("r", range(1, 9))
    def test_against_subset_enumeration(self, r):
        assert max_torsion_order(r) == largest_lcm_by_subsets(r)


class TestCyclotomic:
    def test_examples(self):
        assert cyclotomic(1) == poly(-1, 1)
        assert cyclotomic(4) == poly(1, 0, 1)
        assert cyclotomic(6) == poly(1, -1, 1)

    def test_product_identity_up_to_30(self):
        for n in range(1, 31):
            prod = Polynomial.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == Polynomial.x_power_minus_one(n)

    def test_degrees_match_totient(self):
        for d in range(1, 40):
            assert cyclotomic(d).degree == euler_phi(d)


class TestCyclotomicSplit:
    def test_split_and_product_round_trip(self):
        golden = poly(-1, -1, 1)
        f = cyclotomic(4).pow(2) * cyclotomic(1) * golden * cyclotomic(6)
        factors, rest = cyclotomic_split(f, orders_with_totient_at_most(8))
        assert factors == [(1, 1), (4, 2), (6, 1)]
        assert rest == golden
        assert cyclotomic_product(factors) * rest == f

    def test_orders_outside_the_list_stay_in_the_rest(self):
        factors, rest = cyclotomic_split(cyclotomic(5) * cyclotomic(2), [1, 2, 3])
        assert factors == [(2, 1)]
        assert rest == cyclotomic(5)


class TestPolyGcd:
    def test_examples(self):
        assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)
        assert poly_gcd(poly(-1, -1, 1), Polynomial.x_power_minus_one(12)) == poly(1)
        assert poly_gcd(poly(1, 0, 1), Polynomial.x_power_minus_one(12)) == poly(1, 0, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(), Polynomial.zero())

    def test_divides_both_and_common_divisors_divide_it(self):
        rng = random.Random(7)
        for _ in range(40):
            c = Polynomial.from_coeffs([rng.randint(-3, 3) for _ in range(3)] + [1])
            f = c * Polynomial.from_coeffs([rng.randint(-3, 3) for _ in range(2)] + [1])
            g = c * Polynomial.from_coeffs([rng.randint(-3, 3) for _ in range(2)] + [1])
            h = poly_gcd(f, g)
            assert h.divides(f) and h.divides(g)
            assert c.monic().divides(h)


def fraction_divmod(f, g):
    """Reference: long division with every quotient coefficient a
    Fraction divided by the divisor's leading coefficient."""
    rem = [Fraction(x) for x in f.coeffs]
    quo = [Fraction(0)] * max(len(rem) - g.degree, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + g.degree] / g.leading
        for j, y in enumerate(g.coeffs):
            rem[k + j] -= quo[k] * y
    return Polynomial.from_coeffs(quo), Polynomial.from_coeffs(rem)


class TestIntegerFastPaths:
    def test_unit_leading_divisor_keeps_ints(self):
        rng = random.Random(31)
        for i in range(40):
            f = poly(*(rng.randint(-9, 9) * 2 ** rng.choice([0, 70])
                       for _ in range(rng.randint(1, 12))))
            g = (cyclotomic(rng.randint(1, 30)) if i % 2 else
                 poly(*(rng.randint(-4, 4) for _ in range(rng.randint(0, 5))),
                      rng.choice([1, -1])))
            q, r = divmod(f, g)
            assert (q, r) == fraction_divmod(f, g)
            assert all(type(c) is int for c in q.coeffs + r.coeffs)

    def test_unit_leading_divisor_of_a_rational_dividend(self):
        f = poly(Fraction(1, 2), 3, Fraction(-2, 3), 1)
        for g in (poly(1, 1), poly(-2, 0, -1), cyclotomic(3)):
            assert divmod(f, g) == fraction_divmod(f, g)

    def test_other_leading_coefficients_divide_in_fractions(self):
        q, r = divmod(poly(1, 0, 1), poly(1, 2))
        assert q == poly(Fraction(-1, 4), Fraction(1, 2))
        assert r == poly(Fraction(5, 4))
        rng = random.Random(37)
        for _ in range(20):
            f = poly(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
            g = poly(*(rng.randint(-4, 4) for _ in range(rng.randint(0, 3))),
                     rng.choice([2, -3, Fraction(1, 2)]))
            assert divmod(f, g) == fraction_divmod(f, g)

    def test_norm_scalar(self):
        assert type(_norm_scalar(Fraction(4, 2))) is int
        assert _norm_scalar(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(TypeError):
            _norm_scalar(0.5)


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_divmod_reconstructs(a, b):
    f = Polynomial.from_coeffs(a)
    g = Polynomial.from_coeffs(b)
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_product_is_divisible_by_factors(a, b):
    f = Polynomial.from_coeffs(a)
    g = Polynomial.from_coeffs(b)
    if f.is_zero or g.is_zero:
        return
    assert f.divides(f * g)
    assert (f * g).exact_div(f) == g


def split_by_divmod(f, orders):
    """The cyclotomic split as a loop of Polynomial divmods."""
    factors, rest = [], f
    for d in orders:
        count = 0
        while not rest.is_one:
            quo, rem = divmod(rest, cyclotomic(d))
            if not rem.is_zero:
                break
            rest, count = quo, count + 1
        if count:
            factors.append((d, count))
    return factors, rest


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(orders_with_totient_at_most(4)), st.integers(1, 3)),
                max_size=3),
       st.lists(st.one_of(st.integers(-5, 5),
                          st.fractions(min_value=-5, max_value=5, max_denominator=6)),
                max_size=4))
# (x - 1)(x**2 + x/2 + 1): the division passes through the integral Fraction 1
@example([(1, 1)], [1, Fraction(1, 2)])
def test_list_split_matches_a_divmod_loop(cyclotomic_part, cofactor):
    f = cyclotomic_product(cyclotomic_part) * Polynomial.from_coeffs([*cofactor, 1])
    orders = orders_with_totient_at_most(8)
    factors, rest = cyclotomic_split(f, orders)
    assert (factors, rest) == split_by_divmod(f, orders)
    assert cyclotomic_product(factors) * rest == f
    assert all(type(c) is int for c in rest.coeffs if Fraction(c).denominator == 1)
