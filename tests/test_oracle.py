import random

import pytest

from ergodec import (Matrix, VerdictKind, cross_validate, element, find_ergodic_exponents,
                     finite_orbit_subspace, is_ergodic_element, is_ergodic_group,
                     orbit_bfs, product_counterexample, solenoid_action, toral_action)
from factories import commuting_mixed_family, fibonacci_matrix


class TestOrbitBfs:
    def test_identity_fixes_everything(self):
        act = toral_action([Matrix.identity(2)])
        r = orbit_bfs(act, (1, 0), 100)
        assert r.status == "finite"
        assert r.size == 1

    def test_rotation_orbit_of_four(self):
        act = toral_action([[[0, -1], [1, 0]]])
        r = orbit_bfs(act, (1, 0), 100_000)
        assert r.status == "finite"
        assert r.size == 4

    def test_hyperbolic_orbit_never_closes(self):
        act = toral_action([fibonacci_matrix()])
        r = orbit_bfs(act, (1, 0), 100_000)
        assert r.status == "exceeded-cap"
        assert r.reason in ("visited-cap", "coordinate-guard")

    def test_visited_cap_path(self):
        act = toral_action([[[1, 1], [0, 1]]])
        r = orbit_bfs(act, (1, 0), 50)
        assert r.status == "exceeded-cap"
        assert r.reason == "visited-cap"

    def test_zero_character_rejected(self):
        act = toral_action([Matrix.identity(2)])
        with pytest.raises(ValueError):
            orbit_bfs(act, (0, 0), 10)

    def test_solenoid_rejected(self):
        act = solenoid_action([[[2]]])
        with pytest.raises(ValueError):
            orbit_bfs(act, (1,), 10)

    def test_finite_orbits_are_closed(self):
        rng = random.Random(113)
        act = toral_action([[[0, -1], [1, 0]], [[-1, 0], [0, -1]]])
        maps = []
        for d in act.dual_generators:
            maps.append(d)
            maps.append(d.inverse())
        for _ in range(10):
            chi = (rng.randint(-3, 3), rng.randint(-3, 3))
            if chi == (0, 0):
                continue
            r = orbit_bfs(act, chi, 1000)
            assert r.status == "finite"


class TestCrossValidate:
    def test_fibonacci_box(self):
        act = toral_action([fibonacci_matrix()])
        report = cross_validate(act, 3, 100_000)
        assert report["characters_checked"] == 48
        assert report["finite_orbits"] == 0
        assert report["failures"] == []
        assert report["consistent"]

    def test_identity_box(self):
        act = toral_action([Matrix.identity(2)])
        report = cross_validate(act, 1, 100)
        assert report["characters_checked"] == 8
        assert report["finite_orbits"] == 8
        assert report["failures"] == []

    def test_shear_splits_finite_and_infinite(self):
        act = toral_action([[[1, 1], [0, 1]]])
        report = cross_validate(act, 2, 100_000)
        assert report["characters_checked"] == 24
        # dual fixed line is spanned by (0, 1): four box characters on it
        assert report["finite_orbits"] == 4
        assert report["failures"] == []

    def test_finite_direction_agrees_with_engine_on_fuzzed_actions(self):
        rng = random.Random(127)
        for _ in range(6):
            act = toral_action(commuting_mixed_family(rng, max_dim=4))
            report = cross_validate(act, 2, 50_000)
            assert report["failures"] == []
            assert report["consistent"]
            if finite_orbit_subspace(act).is_zero:
                assert report["finite_orbits"] == 0


class TestProductDemo:
    """The truncated product action through the ordinary engine: an
    ergodic group whose ergodic elements all lie outside the box."""

    @pytest.mark.parametrize("radius,rank", [(1, 8), (2, 16), (3, 32)])
    def test_group_ergodic_and_hit_outside_the_box(self, radius, rank):
        act = product_counterexample(radius)
        assert act.dim == rank
        assert is_ergodic_group(act).certificate.kind == "zero-finite-orbit-subspace"
        exps, verdict = find_ergodic_exponents(act)
        assert exps == (1, radius + 1) and verdict.is_ergodic
        assert sum(exps) <= rank * (act.n_generators - 1) + 2

    @pytest.mark.parametrize("radius", [1, 2])
    def test_box_elements_not_ergodic(self, radius):
        act = product_counterexample(radius)
        box = range(-radius, radius + 1)
        assert all(is_ergodic_element(act, (n, m)).kind == VerdictKind.NOT_ERGODIC
                   for n in box for m in box if (n, m) != (0, 0))

    def test_element_acts_on_each_factor_by_its_exponent(self):
        # the primitive (i, j) of the half-plane in the radius-2 box, in order
        factors = [(0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1)]
        act = product_counterexample(2)
        f = fibonacci_matrix()
        for n, m in [(1, 0), (0, 1), (2, -1), (1, 3), (-3, 2)]:
            assert element(act, (n, m)) == Matrix.block_diag(
                *(f ** (m * i - n * j) for i, j in factors))

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            product_counterexample(0)
