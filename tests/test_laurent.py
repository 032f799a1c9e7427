import random

import pytest

from ergodec import ValidationError, direction_is_ergodic, laurent, \
    laurent_cyclic_action
from ergodec.laurent import (LaurentPoly, ModulusMismatchError, _fp_divmod, _fp_gcd, _fp_monic,
                             _fp_mul, _fp_sub, content_along, directions_in_shell,
                             laurent_divides, witness_power)
from factories import power_minus_one


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


class TestFromTerms:
    def test_non_integer_exponents_rejected(self):
        # int() would truncate 0.7 to 0 and read "1" as 1, giving u + 1
        with pytest.raises(ValueError):
            LaurentPoly.from_terms(2, 1, [((0.7,), 1), (("1",), 1)])
        for bad in (0.7, 1.0, "1", True):
            with pytest.raises(ValueError):
                LaurentPoly.from_terms(2, 2, [((0, bad), 1)])

    def test_non_integer_variable_count_rejected(self):
        for nvars in (True, 1.0, "1"):
            with pytest.raises(ValueError):
                LaurentPoly.from_terms(2, nvars, [((0,), 1), ((1,), 1)])

    def test_plain_ints_accepted(self):
        f = LaurentPoly.from_terms(2, 1, [([0], 1), ((1,), 1)])
        assert f.nvars == 1 and f.terms == (((0,), 1), ((1,), 1))


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
    return LaurentPoly.along(f.p, (1,), _fp_gcd(coefficients(f), coefficients(g), f.p))


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


def random_t_poly(rng, p, deg):
    """Coefficient list of degree deg with a nonzero constant term."""
    return [rng.randint(1, p - 1)] + [rng.randint(0, p - 1) for _ in range(deg - 1)] \
        + [rng.randint(1, p - 1)]


class TestBivariate:
    # content along a direction; sympy's gcd over GF(p) is the oracle in
    # tests/test_differential.py, and these check examples and the
    # divisibility properties of the content
    def test_polynomial_in_the_direction_is_its_own_content(self):
        rng = random.Random(43)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            n0 = rng.choice([(1, 0), (1, 1), (2, -1), (-3, 2)])
            coeffs = random_t_poly(rng, p, rng.randint(1, 3))
            f = LaurentPoly.along(p, n0, coeffs) * LaurentPoly.monomial(p, 2, (1, -2))
            assert content_along(f, n0) == (1, n0, _fp_monic(coeffs, p))
            assert content_along(f, tuple(3 * x for x in n0)) == (3, n0, _fp_monic(coeffs, p))
            back = tuple(-x for x in n0)
            assert content_along(f, back) == (1, back, _fp_monic(coeffs[::-1], p))

    def test_equal_inputs_share_factor(self):
        # every coset group of h(u^n0) * q is a unit times h(t) when q has
        # one monomial in each of several cosets of Z*n0, so the gcd of
        # equal groups is h itself
        rng = random.Random(53)
        for _ in range(30):
            p = rng.choice([2, 3, 5, 7])
            n0, v = rng.choice([((1, 0), (0, 1)), ((1, 1), (1, -1)),
                                ((2, -1), (1, 1)), ((-3, 2), (1, 0))])
            coeffs = random_t_poly(rng, p, rng.randint(1, 3))
            q = LaurentPoly.zero(p, 2)
            for j in range(rng.randint(2, 4)):
                s = rng.randint(-2, 2)
                q = q + LaurentPoly.monomial(p, 2, tuple(j * a + s * b for a, b in zip(v, n0)),
                                             rng.randint(1, p - 1))
            g = LaurentPoly.along(p, n0, coeffs) * q
            assert content_along(g, n0) == (1, n0, _fp_monic(coeffs, p))
            assert content_along(g, tuple(2 * x for x in n0)) == (2, n0, _fp_monic(coeffs, p))
            assert content_along(q, n0)[2] == [1]

    def test_ledrappier_coprime_to_univariate(self):
        # no polynomial in a single monomial u^n0 divides 1 + u1 + u2
        for shell in (1, 2, 3):
            for n in directions_in_shell(2, shell):
                assert content_along(ledrappier(), n)[2] == [1]

    def test_constructed_common_factor(self):
        f = lp(3, 2, {(1, 1): 1, (1, 0): 2, (0, 1): 2, (0, 0): 1})  # (u1-1)(u2-1)
        assert content_along(f, (1, 0)) == (1, (1, 0), [2, 1])  # u1 - 1
        assert content_along(f, (0, -2)) == (2, (0, -1), [2, 1])  # u2^-1 - 1, monic
        assert content_along(f, (1, 1))[2] == [1]
        planted = ledrappier() * lp(2, 2, {(0, 0): 1, (1, 1): 1})  # times 1 + u1*u2
        assert content_along(planted, (1, 1)) == (1, (1, 1), [1, 1])
        assert content_along(planted, (-2, -2)) == (2, (-1, -1), [1, 1])
        assert content_along(planted, (1, -1))[2] == [1]

    def test_agrees_with_univariate_gcd_when_one_variable_absent(self):
        # f = a(u1) + u2*b(u1): its content along u1 is gcd(a, b)
        rng = random.Random(43)
        for _ in range(30):
            p = rng.choice([2, 3])
            a = random_poly(rng, p, 1)
            b = random_poly(rng, p, 1)
            f = lp(p, 2, {(e[0], 0): c for e, c in a.terms}) \
                + lp(p, 2, {(e[0], 1): c for e, c in b.terms})
            expected = _fp_gcd(coefficients(a), coefficients(b), p)
            assert content_along(f, (1, 0))[2] == expected

    def test_gcd_route_matches_decision_route(self):
        # the content divides f along the direction, a planted factor in
        # u^n0 divides the content, and the engine's verdict follows it
        rng = random.Random(47)
        for _ in range(50):
            p = rng.choice([2, 3])
            n, n0 = rng.choice([((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1)),
                                ((2, -1), (2, -1)), ((2, 4), (1, 2))])
            f = random_poly(rng, p, 2)
            common = LaurentPoly.one(p, 2)
            if rng.random() < 0.5:
                common = LaurentPoly.along(p, n0, random_t_poly(rng, p, 1))
                f = f * common
            if f.is_unit:
                continue
            m, found, content = content_along(f, n)
            assert (m, found) == (max(abs(x) for x in n) // max(abs(x) for x in n0), n0)
            along = LaurentPoly.along(p, n0, content)
            assert laurent_divides(along, f) is not None
            assert laurent_divides(common, along) is not None
            verdict = direction_is_ergodic(laurent_cyclic_action(p, 2, f), n)
            assert (verdict.kind == "ergodic") == (content == [1])

    def test_content_of_ledrappier_is_trivial(self):
        assert content_along(ledrappier(), (1, 0))[2] == [1]
        assert content_along(ledrappier(), (0, 1))[2] == [1]

    def test_content_detects_univariate_factor(self):
        f = lp(3, 2, {(1, 1): 1, (1, 0): 1, (0, 1): 2, (0, 0): 2})  # (u1-1)(u2+1)
        assert content_along(f, (1, 0))[2] == [2, 1]  # u1 - 1, monic
        assert content_along(f, (0, 1))[2] == [1, 1]  # u2 + 1


class TestDirectionPower:
    """The tests' own u^(k*direction) - 1, which witness identities are
    checked with."""

    def test_positive_direction(self):
        w = power_minus_one(2, 2, (1, 0), 3)
        assert w == lp(2, 2, {(3, 0): 1, (0, 0): 1})

    def test_mixed_signs_canonicalize(self):
        w = power_minus_one(3, 2, (1, -1), 2).canonical()
        assert w == lp(3, 2, {(2, 0): 1, (0, 2): 2})

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            power_minus_one(2, 2, (0, 0), 1)


class TestWitnessPower:
    def test_primitive_content_has_the_full_order(self):
        # 1 + t + t^6 is primitive over F_2, so t has order 63 modulo it
        content = [1, 1, 0, 0, 0, 0, 1]
        assert witness_power(content, 1, 2) == (63, content)
        assert witness_power(content, 3, 2) == (21, content)

    def test_a_small_factor_gives_the_least_power(self):
        # (1 + t)(1 + t^3 + t^41): the linear factor gives k = 1 at once
        content = _fp_mul([1, 1], [1, 0, 0, 1] + [0] * 37 + [1], 2)
        assert witness_power(content, 1, 2) == (1, [1, 1])

    def test_only_candidate_powers_are_gcd_tested(self, monkeypatch):
        # below 63, the k dividing some 2^d - 1 with d <= 6 are 1, 3, 5, 7,
        # 9, 15, 21 and 31; the walk tested all 63
        calls = []

        def counted(*args):
            calls.append(args)
            return _fp_gcd(*args)

        monkeypatch.setattr(laurent, "_fp_gcd", counted)
        assert witness_power([1, 1, 0, 0, 0, 0, 1], 1, 2)[0] == 63
        assert len(calls) <= 18

    def test_degree_16_primitive_has_the_full_order(self):
        # x^16 + x^14 + x^13 + x^11 + 1 is primitive over F_2
        content = [1] + [0] * 10 + [1, 0, 1, 1, 0, 1]
        assert witness_power(content, 1, 2) == (65535, content)

    def test_degree_20_primitive_is_within_the_step_budget(self):
        # 1 + t^3 + t^20 is primitive over F_2, so its least power is 2^20 - 1
        content = [1, 0, 0, 1] + [0] * 16 + [1]
        assert witness_power(content, 1, 2) == (2 ** 20 - 1, content)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_agrees_with_the_walk_over_every_power(self, p):
        rng = random.Random(f"witness:{p}")
        for i in range(520):
            content, step = _random_content(rng, p), (1, 2, 3, 4, 6)[i % 5]
            assert witness_power(content, step, p) == _walk_witness_power(content, step, p)

    def test_past_the_step_budget_is_a_resource_limit(self, monkeypatch):
        monkeypatch.setattr(laurent, "MAX_WITNESS_STEPS", 100)
        with pytest.raises(ValidationError) as info:
            witness_power([1, 1, 0, 0, 0, 0, 1], 1, 2)
        assert [issue.code for issue in info.value.issues] == ["resource-limit"]

    @pytest.mark.parametrize("content", [[1], [0, 1], [0, 1, 1]])
    def test_unit_content_or_content_divisible_by_t_is_refused(self, content):
        with pytest.raises(ValueError):
            witness_power(content, 1, 2)


def _walk_witness_power(content, step, p):
    """The plain search over k = 1, 2, ...: one product, one division and
    one gcd per power."""
    _, t = _fp_divmod([0] * step + [1], content, p)
    power = t
    for k in range(1, p ** (len(content) - 1)):
        common = _fp_gcd(content, _fp_sub(power, [1], p), p)
        if len(common) > 1:
            return k, common
        power = _fp_divmod(_fp_mul(power, t, p), content, p)[1]
    raise AssertionError("no witness power below p^deg")


# Largest factor degree per p: with p^deg - 1 <= 1023 the walk stays short.
_FACTOR_DEGREE = {2: 10, 3: 6, 5: 4, 7: 3}


def _random_content(rng, p):
    """Monic product of one to three random factors coprime to t, some of
    them squared, of degree at most 12."""
    content = [1]
    while len(content) == 1:
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, _FACTOR_DEGREE[p])
            factor = [rng.randint(1, p - 1)] + [rng.randrange(p) for _ in range(deg - 1)] + [1]
            if rng.random() < 0.25:
                factor = _fp_mul(factor, factor, p)
            if len(content) + len(factor) - 2 <= 12:
                content = _fp_mul(content, factor, p)
    return _fp_monic(content, p)
