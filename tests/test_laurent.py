import random

import pytest

from ergodec.laurent import (LaurentPoly, ModulusMismatchError, _fp_gcd,
                             bivar_gcd, content_in, direction_power_minus_one,
                             laurent_divides)


def lp(p, nvars, terms):
    return LaurentPoly.from_terms(p, nvars, terms)


def ledrappier():
    return lp(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def random_poly(rng, p, nvars, max_terms=4, span=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[e] = rng.randint(1, p - 1)
    return lp(p, nvars, terms)


class TestCanonicalForm:
    def test_shifts_minimum_exponents_to_zero(self):
        f = lp(3, 2, {(-1, 2): 1, (0, 3): 2})
        c = f.canonical()
        assert c.min_exponents() == (0, 0)
        assert c.terms == (((0, 0), 1), ((1, 1), 2))

    def test_zero_and_units(self):
        assert LaurentPoly.zero(5, 1).is_zero
        assert LaurentPoly.monomial(5, 2, (-3, 2), 4).is_unit
        assert not ledrappier().is_unit

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ModulusMismatchError):
            _ = lp(2, 1, {(0,): 1}) + lp(3, 1, {(0,): 1})


class TestDivides:
    def test_monomial_case(self):
        q = laurent_divides(LaurentPoly.monomial(2, 1, (1,)),
                            LaurentPoly.monomial(2, 1, (3,)))
        assert q == LaurentPoly.monomial(2, 1, (2,))

    def test_constructed_product(self):
        g = ledrappier()
        factor = lp(2, 2, {(1, 0): 1, (0, 1): 1})
        q = laurent_divides(g, g * factor)
        assert q == factor

    def test_definite_no(self):
        g = ledrappier()
        h = lp(2, 2, {(3, 0): 1, (0, 0): 1})  # u1^3 - 1 over F2
        assert laurent_divides(g, h) is None

    def test_exact_identity_with_negative_exponents(self):
        g = lp(3, 2, {(-1, 0): 2, (0, 1): 1})
        m = lp(3, 2, {(2, -2): 1, (0, 0): 2})
        q = laurent_divides(g, g * m)
        assert q == m
        assert q * g == g * m

    def test_roundtrip_fuzz(self):
        rng = random.Random(31)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            nvars = rng.choice([1, 2])
            g = random_poly(rng, p, nvars)
            m = random_poly(rng, p, nvars)
            h = g * m
            q = laurent_divides(g, h)
            assert q is not None
            assert q * g == h

    def test_unit_normalization_invariance(self):
        rng = random.Random(37)
        for _ in range(30):
            p = rng.choice([2, 3])
            g = random_poly(rng, p, 2)
            h = random_poly(rng, p, 2)
            unit = LaurentPoly.monomial(p, 2, (rng.randint(-2, 2), rng.randint(-2, 2)))
            before = laurent_divides(g, h) is None
            after = laurent_divides(g * unit, h * unit) is None
            assert before == after

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            laurent_divides(LaurentPoly.zero(2, 1), LaurentPoly.one(2, 1))


def coefficients(f):
    """Coefficient list of a one-variable polynomial's canonical form."""
    return f.canonical().univariate_in(0)


def gcd_1d(f, g):
    return LaurentPoly.from_univariate(f.p, 1, 0, _fp_gcd(coefficients(f), coefficients(g), f.p))


class TestUnivariateGcd:
    def test_examples(self):
        u_minus_1 = lp(3, 1, {(1,): 1, (0,): 2})
        u2_minus_1 = lp(3, 1, {(2,): 1, (0,): 2})
        assert gcd_1d(u_minus_1, u2_minus_1) == u_minus_1

        trinomial = lp(2, 1, {(2,): 1, (1,): 1, (0,): 1})
        cube = lp(2, 1, {(3,): 1, (0,): 1})
        assert gcd_1d(trinomial, cube) == trinomial

        square = lp(2, 1, {(2,): 1, (0,): 1})
        assert gcd_1d(trinomial, square) == LaurentPoly.one(2, 1)

    def test_gcd_divides_both(self):
        rng = random.Random(41)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            f = random_poly(rng, p, 1)
            g = random_poly(rng, p, 1)
            h = gcd_1d(f, g)
            assert laurent_divides(h, f) is not None
            assert laurent_divides(h, g) is not None


class TestBivariate:
    # sympy's gcd over GF(p) is the oracle in tests/test_differential.py;
    # these check examples and the divisibility properties of any gcd
    def test_equal_inputs_share_factor(self):
        assert not bivar_gcd(ledrappier(), ledrappier()).is_unit

    def test_ledrappier_coprime_to_univariate(self):
        h = lp(2, 2, {(3, 0): 1, (0, 0): 1})
        assert bivar_gcd(ledrappier(), h).is_unit

    def test_constructed_common_factor(self):
        f = lp(3, 2, {(1, 1): 1, (1, 0): 2, (0, 1): 2, (0, 0): 1})  # (u1-1)(u2-1)
        g = lp(3, 2, {(5, 0): 1, (0, 0): 2})  # u1^5 - 1
        assert bivar_gcd(f, g) == lp(3, 2, {(1, 0): 1, (0, 0): 2})  # u1 - 1

    def test_agrees_with_univariate_gcd_when_one_variable_absent(self):
        rng = random.Random(43)
        for _ in range(30):
            p = rng.choice([2, 3])
            a = random_poly(rng, p, 1)
            b = random_poly(rng, p, 1)
            f = lp(p, 2, {(e[0], 0): c for e, c in a.terms})
            g = lp(p, 2, {(e[0], 0): c for e, c in b.terms})
            expected = _fp_gcd(coefficients(a), coefficients(b), p)
            assert bivar_gcd(f, g) == LaurentPoly.from_univariate(p, 2, 0, expected)

    def test_gcd_route_matches_decision_route(self):
        # the gcd divides both inputs, and a planted common factor divides it
        rng = random.Random(47)
        for _ in range(50):
            p = rng.choice([2, 3])
            f = random_poly(rng, p, 2)
            g = random_poly(rng, p, 2)
            common = LaurentPoly.one(p, 2)
            if rng.random() < 0.5:
                common = random_poly(rng, p, 2, max_terms=2)
                f = f * common
                g = g * common
            gcd = bivar_gcd(f, g)
            assert laurent_divides(gcd, f) is not None
            assert laurent_divides(gcd, g) is not None
            assert laurent_divides(common, gcd) is not None

    def test_content_of_ledrappier_is_trivial(self):
        assert content_in(ledrappier(), 0) == [1]
        assert content_in(ledrappier(), 1) == [1]

    def test_content_detects_univariate_factor(self):
        f = lp(3, 2, {(1, 1): 1, (1, 0): 1, (0, 1): 2, (0, 0): 2})  # (u1-1)(u2+1)
        assert content_in(f, 0) == [2, 1]  # u1 - 1, monic
        assert content_in(f, 1) == [1, 1]  # u2 + 1


class TestDirectionPower:
    def test_positive_direction(self):
        w = direction_power_minus_one(2, 2, (1, 0), 3)
        assert w == lp(2, 2, {(3, 0): 1, (0, 0): 1})

    def test_mixed_signs_canonicalize(self):
        w = direction_power_minus_one(3, 2, (1, -1), 2).canonical()
        assert w == lp(3, 2, {(2, 0): 1, (0, 2): 2})

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            direction_power_minus_one(2, 2, (0, 0), 1)
