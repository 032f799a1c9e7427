import functools
import itertools
import operator
import random

import pytest

from ergodec import laurent_engine
from ergodec import (LaurentPoly, NotErgodicGroupError,
                     direction_is_ergodic, find_ergodic_direction, group_is_ergodic,
                     laurent_cyclic_action)
from ergodec.encoding import decode_laurent
from ergodec.laurent import directions_in_shell, laurent_divides
from factories import power_minus_one


def lp(p, nvars, terms):
    return LaurentPoly.from_terms(p, nvars, terms)


def ledrappier_action():
    return laurent_cyclic_action(2, 2, lp(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}))


def trinomial_action():
    # p=2, one variable, g = u^2 + u + 1 (irreducible)
    return laurent_cyclic_action(2, 1, lp(2, 1, {(0,): 1, (1,): 1, (2,): 1}))


def witness_of(action, verdict):
    """The class g/h that the common factor h of a not-ergodic
    certificate names."""
    factor = decode_laurent(verdict.data["common_factor"])
    assert not factor.is_unit
    return laurent_divides(factor, action.presenter)


def replay_witness(action, direction, verdict):
    """The identity (u^(k*direction) - 1)*witness = quotient*g, with the
    witness nonzero in the module."""
    witness = witness_of(action, verdict)
    w = power_minus_one(action.p, action.nvars, direction, verdict.data["power"])
    assert laurent_divides(action.presenter, w * witness) is not None
    assert laurent_divides(action.presenter, witness) is None


def closing_power(action, element, direction, cap):
    """Brute force, apart from the content route: the least k <= cap with
    (u^(k*direction) - 1)*element in the ideal (g), or None."""
    g = action.presenter
    for k in range(1, cap + 1):
        w = power_minus_one(action.p, action.nvars, direction, k)
        if laurent_divides(g, w * element) is not None:
            return k
    return None


class TestOneVariable:
    def test_irreducible_trinomial_witness_at_three(self):
        act = trinomial_action()
        v = direction_is_ergodic(act, (1,))
        assert v.kind == "not-ergodic"
        assert v.certificate == "finite-quotient-witness"
        assert v.data["power"] == 3
        replay_witness(act, (1,), v)

    def test_group_matches_single_direction(self):
        act = trinomial_action()
        g = group_is_ergodic(act)
        assert g.kind == "not-ergodic"
        assert g.data["power"] == 3

    def test_witness_power_is_minimal_for_its_witness(self):
        rng = random.Random(103)
        for _ in range(25):
            p = rng.choice([2, 3])
            deg = rng.randint(1, 4)
            coeffs = {(i,): rng.randint(0, p - 1) for i in range(deg)}
            coeffs[(deg,)] = rng.randint(1, p - 1)
            coeffs[(0,)] = rng.randint(1, p - 1)  # keep u invertible mod g
            g = lp(p, 1, coeffs)
            if g.is_unit:
                continue
            act = laurent_cyclic_action(p, 1, g)
            v = direction_is_ergodic(act, (1,))
            assert v.kind == "not-ergodic"
            k = v.data["power"]
            assert k <= p ** g.degree_in(0) - 1
            witness = witness_of(act, v)
            assert closing_power(act, witness, (1,), k + 5) == k

    def test_negative_direction_also_certified(self):
        act = trinomial_action()
        v = direction_is_ergodic(act, (-1,))
        assert v.kind == "not-ergodic"
        replay_witness(act, (-1,), v)

    def test_find_direction_rejects_one_variable(self):
        with pytest.raises(NotErgodicGroupError):
            find_ergodic_direction(trinomial_action())


class TestLedrappier:
    def test_axes_exactly_ergodic(self):
        act = ledrappier_action()
        for n in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            v = direction_is_ergodic(act, n)
            assert v.kind == "ergodic"
            assert v.certificate == "trivial-univariate-content"

    def test_diagonal_is_exactly_ergodic(self):
        act = ledrappier_action()
        v = direction_is_ergodic(act, (1, 1))
        assert v.kind == "ergodic"
        assert v.certificate == "trivial-univariate-content"
        assert v.data == {}
        for shell in (1, 2, 3):
            for n in directions_in_shell(2, shell):
                assert direction_is_ergodic(act, n).kind == "ergodic"
        # so the search returns (1, 1), which leads shell 1
        assert find_ergodic_direction(act) == ((1, 1), v)

    def test_group_exactly_ergodic(self):
        v = group_is_ergodic(ledrappier_action())
        assert v.kind == "ergodic"
        assert v.certificate == "coprime-axis-powers"

    def test_find_direction_returns_first_axis(self):
        # with a factor 1 + u1*u2 planted, (1, 1), which leads shell 1,
        # fails, and the first axis comes next
        g = ledrappier_action().presenter * lp(2, 2, {(0, 0): 1, (1, 1): 1})
        direction, verdict = find_ergodic_direction(laurent_cyclic_action(2, 2, g))
        assert direction == (1, 0)
        assert verdict.kind == "ergodic"
        assert verdict.data == {}

    def test_orbit_probe_of_one_never_closes(self):
        assert closing_power(ledrappier_action(), LaurentPoly.one(2, 2), (1, 0), 64) is None


class TestTwoVariableWitnesses:
    def test_reducible_presenter_caught_at_one(self):
        # (u1-1)(u2+1) over F3: the content in u1 is u1-1
        g = lp(3, 2, {(1, 1): 1, (1, 0): 1, (0, 1): 2, (0, 0): 2})
        act = laurent_cyclic_action(3, 2, g)
        v = direction_is_ergodic(act, (1, 0))
        assert v.kind == "not-ergodic"
        assert v.data["power"] == 1
        replay_witness(act, (1, 0), v)

    def test_group_always_ergodic_in_two_variables(self):
        # (u1-1)(u2-1): both axes fail but the full group is ergodic; a
        # simultaneous witness would be divisible by g after clearing the
        # coprime axis identities, hence zero in the module.
        g = lp(3, 2, {(1, 1): 1, (1, 0): 2, (0, 1): 2, (0, 0): 1})
        act = laurent_cyclic_action(3, 2, g)
        assert direction_is_ergodic(act, (1, 0)).kind == "not-ergodic"
        assert direction_is_ergodic(act, (0, 1)).kind == "not-ergodic"
        v = group_is_ergodic(act)
        assert v.kind == "ergodic"

    def test_group_verdict_backed_by_orbit_probes(self):
        # Oracle support for the simultaneous-coprimality argument: no
        # small class has finite orbit in both axis directions at once.
        g = lp(3, 2, {(1, 1): 1, (1, 0): 2, (0, 1): 2, (0, 0): 1})
        act = laurent_cyclic_action(3, 2, g)
        rng = random.Random(107)
        candidates = [LaurentPoly.one(3, 2),
                      lp(3, 2, {(1, 0): 1, (0, 0): 2}),
                      lp(3, 2, {(0, 1): 1, (0, 0): 2})]
        for _ in range(10):
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 2)
                     for _ in range(rng.randint(1, 3))}
            candidates.append(lp(3, 2, terms))
        for m in candidates:
            if laurent_divides(act.presenter, m) is not None:
                continue
            finite_first = closing_power(act, m, (1, 0), 12) is not None
            finite_second = closing_power(act, m, (0, 1), 12) is not None
            assert not (finite_first and finite_second)

    def test_mixed_direction_witness(self):
        # g = u1*u2 - 1 divides u^(k*(1,1)) - 1 at k = 1
        g = lp(2, 2, {(1, 1): 1, (0, 0): 1})
        act = laurent_cyclic_action(2, 2, g)
        v = direction_is_ergodic(act, (1, 1))
        assert v.kind == "not-ergodic"
        assert v.data["power"] == 1
        replay_witness(act, (1, 1), v)
        # the opposite diagonal never meets it: g has no factor in u1/u2
        v2 = direction_is_ergodic(act, (1, -1))
        assert v2.kind == "ergodic"
        assert v2.data == {}

    def test_planted_factor_caught_in_every_multiple_of_its_line(self):
        # (1 + u1*u2)(1 + u1 + u2) over F2 fails along +-(1, 1) and its
        # multiples, and nowhere else in the box
        g = lp(2, 2, {(0, 0): 1, (1, 1): 1}) * ledrappier_action().presenter
        act = laurent_cyclic_action(2, 2, g)
        for shell in (1, 2, 3):
            for n in directions_in_shell(2, shell):
                v = direction_is_ergodic(act, n)
                assert v.is_ergodic == (n[0] != n[1])
                if not v.is_ergodic:
                    assert v.data["power"] == 1
                    replay_witness(act, n, v)

    def test_scan_continues_past_failing_directions(self):
        # (1+u1)(1+u1*u2)(u1+u2)(1+u1+u2) over F2: the three directions
        # of shell 1 with a u1 power fail, the second axis is ergodic
        g = ledrappier_action().presenter
        for factor in ({(1, 0): 1, (0, 0): 1}, {(1, 1): 1, (0, 0): 1}, {(1, 0): 1, (0, 1): 1}):
            g = g * lp(2, 2, factor)
        act = laurent_cyclic_action(2, 2, g)
        for n in ((1, 1), (1, 0), (1, -1)):
            assert direction_is_ergodic(act, n).kind == "not-ergodic"
        direction, verdict = find_ergodic_direction(act)
        assert direction == (0, 1)
        assert verdict.kind == "ergodic"

    def test_scan_past_failing_axes_stops_at_first_hit(self, monkeypatch):
        # (u1-1)(u2-1) over F3: both axes fail, and (1, 1), the first
        # direction of shell 1, is exactly ergodic
        g = lp(3, 2, {(1, 1): 1, (1, 0): 2, (0, 1): 2, (0, 0): 1})
        act = laurent_cyclic_action(3, 2, g)
        calls = []
        real = laurent_engine.direction_is_ergodic

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(laurent_engine, "direction_is_ergodic", counted)
        direction, verdict = find_ergodic_direction(act)
        assert calls == [(1, 1)]
        assert direction == (1, 1)
        assert verdict.kind == "ergodic"


# the primitive lines of shells 1 and 2, one direction each
SHORT_LINES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2))


def parallel(n, line) -> bool:
    return n[0] * line[1] == n[1] * line[0]


class TestTotalSearch:
    @pytest.mark.parametrize("size", range(1, len(SHORT_LINES) + 1))
    def test_first_direction_off_the_planted_lines(self, size):
        # g = product of 1 + u^n0 over the planted lines n0 over F2: the
        # non-ergodic directions are exactly those parallel to one of them,
        # so the search returns the first other direction in scan order,
        # and that lies within the width bound
        for planted in itertools.combinations(SHORT_LINES, size):
            g = functools.reduce(operator.mul, (lp(2, 2, {(0, 0): 1, n0: 1}) for n0 in planted))
            act = laurent_cyclic_action(2, 2, g)
            expected = next(n for shell in itertools.count(1)
                            for n in directions_in_shell(2, shell)
                            if not any(parallel(n, line) for line in planted))
            direction, verdict = find_ergodic_direction(act)
            assert direction == expected
            assert verdict.kind == "ergodic"
            assert max(map(abs, direction)) <= laurent_engine.search_bound(act)
            if size == len(SHORT_LINES):
                assert direction == (3, 2)


class TestInvariances:
    def test_unit_multiple_of_presenter_same_verdicts(self):
        rng = random.Random(109)
        base = lp(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        for _ in range(10):
            unit = LaurentPoly.monomial(2, 2, (rng.randint(-3, 3), rng.randint(-3, 3)))
            act1 = laurent_cyclic_action(2, 2, base)
            act2 = laurent_cyclic_action(2, 2, base * unit)
            for n in ((1, 0), (0, 1), (1, 1)):
                assert (direction_is_ergodic(act1, n).kind
                        == direction_is_ergodic(act2, n).kind)

    def test_variable_swap_with_swapped_direction(self):
        g = lp(3, 2, {(0, 0): 1, (2, 0): 1, (0, 1): 2})
        swapped = lp(3, 2, {(e[1], e[0]): c for e, c in g.terms})
        act = laurent_cyclic_action(3, 2, g)
        act_swapped = laurent_cyclic_action(3, 2, swapped)
        for n in ((1, 0), (0, 1), (1, 1), (2, -1)):
            v1 = direction_is_ergodic(act, n)
            v2 = direction_is_ergodic(act_swapped, (n[1], n[0]))
            assert v1.kind == v2.kind

    def test_zero_direction_rejected(self):
        # as is a direction of the wrong length: content_along refuses both
        for direction in [(0, 0), (1, 0, 0)]:
            with pytest.raises(ValueError):
                direction_is_ergodic(ledrappier_action(), direction)
