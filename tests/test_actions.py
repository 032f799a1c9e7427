import random
from fractions import Fraction

import pytest

from ergodec import (LaurentPoly, Matrix, ValidationError, build_action,
                     dual_element, element, laurent_cyclic_action,
                     product_counterexample, solenoid_action, toral_action)
from ergodec.actions import MAX_DIMENSION, MAX_PRESENTER_WIDTH
from factories import fibonacci_matrix


def identity_doc(r):
    return {"type": "toral", "r": r,
            "generators": [[[int(i == j) for j in range(r)] for i in range(r)]]}


class TestValidation:
    def test_single_generator_valid(self):
        act = toral_action([[[0, 1], [1, 1]]])
        assert act.dim == 2
        assert act.n_generators == 1

    def test_non_commuting_pair(self):
        with pytest.raises(ValidationError) as err:
            toral_action([[[1, 1], [0, 1]], [[0, 1], [1, 1]]])
        assert [(i.code, i.where) for i in err.value.issues] == [("non-commuting", (1, 2))]

    def test_non_unimodular(self):
        with pytest.raises(ValidationError) as err:
            toral_action([[[2, 0], [0, 1]]])
        assert err.value.issues[0].code == "not-unimodular"
        assert err.value.issues[0].where == (1,)

    def test_all_failures_reported_together(self):
        with pytest.raises(ValidationError) as err:
            toral_action([[[2, 0], [0, 1]], [[3, 0], [0, 1]]])
        assert sorted(i.where for i in err.value.issues) == [(1,), (2,)]

    def test_solenoid_accepts_non_unimodular(self):
        act = solenoid_action([[[2, 0], [0, 1]]])
        assert act.kind == "solenoid"

    def test_solenoid_rejects_singular(self):
        with pytest.raises(ValidationError) as err:
            solenoid_action([[[1, 0], [0, 0]]])
        assert err.value.issues[0].code == "not-invertible"

    def test_bad_modulus(self):
        g = LaurentPoly.from_terms(4, 1, {(0,): 1, (1,): 1})
        with pytest.raises(ValidationError) as err:
            laurent_cyclic_action(4, 1, g)
        assert err.value.issues[0].code == "bad-modulus"

    def test_unit_presentation(self):
        with pytest.raises(ValidationError) as err:
            laurent_cyclic_action(2, 2, LaurentPoly.monomial(2, 2, (3, -1)))
        assert err.value.issues[0].code == "unit-presentation"

    def test_presenter_stored_canonically(self):
        g = LaurentPoly.from_terms(2, 2, {(-1, 0): 1, (0, 1): 1, (-1, 1): 1})
        act = laurent_cyclic_action(2, 2, g)
        assert act.presenter.is_canonical()


class TestElement:
    def test_zero_exponents_identity(self):
        act = toral_action([fibonacci_matrix()])
        assert element(act, (0,)) == Matrix.identity(2)

    def test_square(self):
        act = toral_action([fibonacci_matrix()])
        assert element(act, (2,)) == fibonacci_matrix() * fibonacci_matrix()

    def test_block_pair(self):
        f = fibonacci_matrix()
        i2 = Matrix.identity(2)
        act = toral_action([Matrix.block_diag(f, i2), Matrix.block_diag(i2, f)])
        assert element(act, (1, 1)) == Matrix.block_diag(f, f)

    def test_negative_exponent(self):
        act = toral_action([fibonacci_matrix()])
        assert element(act, (-1,)) == fibonacci_matrix().inverse()

    def test_additivity(self):
        rng = random.Random(61)
        f = fibonacci_matrix()
        neg = Matrix.from_rows([[-1, 0], [0, -1]])
        act = toral_action([f, neg * (f ** 2)])
        for _ in range(15):
            e1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            e2 = (rng.randint(-3, 3), rng.randint(-3, 3))
            total = tuple(a + b for a, b in zip(e1, e2))
            assert element(act, total) == element(act, e1) * element(act, e2)
            assert dual_element(act, total) == dual_element(act, e1) * dual_element(act, e2)


class TestCaches:
    def test_dual_product_formed_once_per_vector(self):
        act = toral_action([fibonacci_matrix(), fibonacci_matrix() ** 2])
        assert dual_element(act, (1, 2)) is dual_element(act, [1, 2])
        assert dual_element(act, (1, 0)) is act.dual_generators[0]

    def test_caches_do_not_change_equality(self):
        gens = [fibonacci_matrix()]
        used = toral_action(gens)
        dual_element(used, (3,))
        assert used.finite_orbit_subspace.is_zero
        assert used == toral_action(gens) and hash(used) == hash(toral_action(gens))


class TestBuildAction:
    def test_toral_document(self):
        act = build_action({"type": "toral", "r": 2,
                            "generators": [[[0, 1], [1, 1]]]})
        assert act.kind == "toral"

    def test_solenoid_document_with_rationals(self):
        for entry in ("3/2", [3, 2]):
            act = build_action({"type": "solenoid", "r": 1, "generators": [[[entry]]]})
            assert act.kind == "solenoid"
            assert act.generators[0].rows == ((Fraction(3, 2),),)

    def test_laurent_document(self):
        act = build_action({"type": "laurent", "p": 2, "d": 2, "g": [
            {"exponents": [0, 0], "coefficient": 1},
            {"exponents": [1, 0], "coefficient": 1},
            {"exponents": [0, 1], "coefficient": 1}]})
        assert act.kind == "laurent"
        assert act.presenter.terms == (((0, 0), 1), ((0, 1), 1), ((1, 0), 1))

    def test_dimension_at_the_limit_is_accepted(self):
        act = build_action(identity_doc(MAX_DIMENSION))
        assert act.dim == MAX_DIMENSION == 64

    @pytest.mark.parametrize("exponents,width", [
        ([[0, 0], [MAX_PRESENTER_WIDTH, 0], [0, 1]], MAX_PRESENTER_WIDTH),
        ([[-3, 2], [MAX_PRESENTER_WIDTH - 3, 0], [0, 0]], MAX_PRESENTER_WIDTH)])
    def test_presenter_width_at_the_limit_is_accepted(self, exponents, width):
        act = build_action({"type": "laurent", "p": 2, "d": 2, "g": [
            {"exponents": e, "coefficient": 1} for e in exponents]})
        assert act.presenter.degree_in(0) == width == 64

    @pytest.mark.parametrize("exponents", [
        [[0], [1], [MAX_PRESENTER_WIDTH + 1]],
        [[0, 0], [1, 0], [0, MAX_PRESENTER_WIDTH + 1]],
        [[0, -40], [1, 0], [0, 25]]])
    def test_presenter_past_the_width_limit_is_a_resource_limit(self, exponents):
        doc = {"type": "laurent", "p": 3, "d": len(exponents[0]), "g": [
            {"exponents": e, "coefficient": 1} for e in exponents]}
        with pytest.raises(ValidationError) as info:
            build_action(doc)
        assert [issue.code for issue in info.value.issues] == ["resource-limit"]
        assert "presenter width 65 is above the limit of 64" in str(info.value)

    @pytest.mark.parametrize("change,code,message", [
        ({"p": 10 ** 5000}, "bad-modulus", "(5001-digit) is not a prime below 2**31"),
        ({"g": [{"exponents": [0], "coefficient": 1},
                {"exponents": [10 ** 5000], "coefficient": 1}]},
         "resource-limit", "presenter width (5001-digit) is above the limit of 64"),
        # a list holding one is named by its type
        ({"type": [10 ** 5000]}, "schema", "unknown action type a list"),
        ({"type": "solenoid", "r": 1, "generators": [[[[1, 2, 10 ** 5000]]]]},
         "schema", "bad generator: not an exact scalar: a list"),
        ({"type": "solenoid", "r": 1, "generators": [[[[10 ** 5000, 0]]]]},
         "schema", "bad generator: zero denominator in a list"),
    ], ids=["modulus", "exponent", "type", "entry", "entry-zero-denominator"])
    def test_huge_int_is_stated_by_its_digit_count(self, change, code, message):
        # str() refuses an int of more than 4300 digits
        doc = dict({"type": "laurent", "p": 2, "d": 1, "g": [
            {"exponents": [0], "coefficient": 1}, {"exponents": [1], "coefficient": 1}]},
            **change)
        with pytest.raises(ValidationError) as info:
            build_action(doc)
        assert [(i.code, i.message) for i in info.value.issues] == [(code, message)]

    def test_library_constructors_are_not_capped(self):
        assert product_counterexample(5).dim == 80 > MAX_DIMENSION

    def test_schema_errors(self):
        for doc in ({}, {"type": "nope"}, {"type": "toral"},
                    {"type": "toral", "r": 3, "generators": [[[1]]]},
                    {"type": "laurent", "p": 2}):
            with pytest.raises(ValidationError):
                build_action(doc)
