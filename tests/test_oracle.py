import itertools
import json
import random
import time

import pytest

from ergodec import (Matrix, ValidationError, cross_validate, element,
                     find_ergodic_exponents, is_ergodic_element,
                     is_ergodic_group, oracle, product_counterexample,
                     solenoid_action, toral_action)
from ergodec.cli import main
from ergodec.intpoly import max_torsion_order
from ergodec.matrices import Subspace
from ergodec.oracle import walk_orbit
from factories import commuting_mixed_family, fibonacci_matrix

QUARTER_TURN = Matrix.from_rows([[0, -1], [1, 0]])
SHEAR = Matrix.from_rows([[1, 1], [0, 1]])


def reference_orbit(maps, chi, cap, guard):
    """Plain breadth-first walk of one orbit, shared with nothing:
    ("finite", size) or ("exceeded-cap", reason)."""
    seen = {chi}
    frontier = [chi]
    while frontier:
        nxt = []
        for v in frontier:
            for apply_map in maps:
                w = apply_map(v)
                if w in seen:
                    continue
                if max(map(abs, w)) >= guard:
                    return "exceeded-cap", "coordinate-guard"
                seen.add(w)
                if len(seen) > cap:
                    return "exceeded-cap", "visited-cap"
                nxt.append(w)
        frontier = nxt
    return "finite", len(seen)


def reference_cross_validate(action, norm_bound, cap):
    """The counts and failures of cross_validate, walking every box
    character's whole orbit breadth-first on its own."""
    maps = [d.matvec for d in action.dual_generators]
    fixed = action.finite_orbit_subspace
    finite = exceeded = 0
    failures = []
    for chi in itertools.product(range(-norm_bound, norm_bound + 1), repeat=action.dim):
        if not any(chi):
            continue
        status, detail = reference_orbit(maps, chi, cap, 1 << 64)
        inside = fixed.contains(chi)
        if status == "finite":
            finite += 1
            if not inside:
                failures.append({"character": list(chi),
                                 "kind": "finite-orbit-outside-subspace",
                                 "orbit_size": detail})
        else:
            exceeded += 1
            if inside:
                failures.append({"character": list(chi),
                                 "kind": "enumeration-gave-up-inside-subspace",
                                 "reason": detail})
    return finite, exceeded, failures


def count_map_applications(monkeypatch):
    """Count every dual generator application made by the oracle; the
    returned one-element list holds the running total."""
    count = [0]
    compile_map = oracle._compile_map

    def counted(rows):
        apply_map = compile_map(rows)

        def step(v):
            count[0] += 1
            return apply_map(v)
        return step

    monkeypatch.setattr(oracle, "_compile_map", counted)
    return count


def assert_matches_reference(action, norm_bound, cap):
    report = cross_validate(action, norm_bound, cap)
    finite, exceeded, failures = reference_cross_validate(action, norm_bound, cap)
    assert (report["finite_orbits"], report["exceeded"]) == (finite, exceeded)
    assert report["failures"] == failures
    return report


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compiled_map_is_the_matvec(n):
    rng = random.Random(n)
    m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    apply_map = oracle._compile_map(m.rows)
    for _ in range(20):
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        assert apply_map(v) == m.matvec(v)


class TestOrbitBfs:
    """The breadth-first walk cross_validate sizes orbits with:
    oracle.walk_orbit over the action's compiled dual maps, under the
    oracle's coordinate guard."""

    @staticmethod
    def walk(action, chi, cap):
        return walk_orbit(oracle.orbit_maps(action), chi, cap, 1 << oracle.COORD_BITS)

    def test_identity_fixes_everything(self):
        seen, stop, _ = self.walk(toral_action([Matrix.identity(2)]), (1, 0), 100)
        assert (len(seen), stop) == (1, None)

    def test_rotation_orbit_of_four(self):
        seen, stop, _ = self.walk(toral_action([QUARTER_TURN]), (1, 0), 100_000)
        assert (len(seen), stop) == (4, None)

    def test_hyperbolic_orbit_never_closes(self):
        _, stop, _ = self.walk(toral_action([fibonacci_matrix()]), (1, 0), 100_000)
        assert stop in ("visited-cap", "coordinate-guard")

    def test_visited_cap_path(self):
        _, stop, _ = self.walk(toral_action([SHEAR]), (1, 0), 50)
        assert stop == "visited-cap"

    def test_solenoid_rejected(self):
        with pytest.raises(ValueError) as info:
            cross_validate(solenoid_action([[[2]]]), 1, 10)
        assert [issue.code for issue in info.value.issues] == ["schema"]

    def test_finite_orbits_are_closed(self):
        rng = random.Random(113)
        act = toral_action([QUARTER_TURN, [[-1, 0], [0, -1]]])
        maps = oracle.orbit_maps(act)
        for _ in range(10):
            chi = (rng.randint(-3, 3), rng.randint(-3, 3))
            if chi == (0, 0):
                continue
            seen, stop, _ = self.walk(act, chi, 1000)
            assert stop is None
            assert all(apply_map(v) in seen for v in seen for apply_map in maps)


class TestCrossValidate:
    def test_fibonacci_box(self):
        act = toral_action([fibonacci_matrix()])
        report = cross_validate(act, 3, 100_000)
        assert report["characters_checked"] == 48
        assert report["finite_orbits"] == 0
        assert report["failures"] == []

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
            if act.finite_orbit_subspace.is_zero:
                assert report["finite_orbits"] == 0


class TestCycleTest:
    """Finiteness is decided by per-generator cycle walks; the results
    must be those of walking every orbit breadth-first."""

    def test_fuzzed_mixed_families(self):
        rng = random.Random(131)
        for _ in range(8):
            act = toral_action(commuting_mixed_family(rng, max_dim=3))
            assert_matches_reference(act, 2, 200)

    def test_unipotent_generator_listed_before_a_hyperbolic_one(self):
        i2 = Matrix.identity(2)
        act = toral_action([Matrix.block_diag(SHEAR, i2),
                            Matrix.block_diag(i2, fibonacci_matrix())])
        report = assert_matches_reference(act, 1, 200)
        assert report["failures"] == []

    @pytest.mark.parametrize("cap", [3, 4, 8, 16])
    def test_commuting_finite_order_generators(self, cap):
        # Each cycle has length at most 4; orbits of characters with both
        # blocks nonzero have 16 points, so caps 4 and 8 give up on them
        # inside the finite-orbit subspace while every cycle closes.
        i2 = Matrix.identity(2)
        act = toral_action([Matrix.block_diag(QUARTER_TURN, i2),
                            Matrix.block_diag(i2, QUARTER_TURN)])
        report = assert_matches_reference(act, 1, cap)
        assert (report["failures"] == []) == (cap == 16)

    @pytest.mark.parametrize("cap,finite", [(3, 0), (4, 24)])
    def test_single_cycle_of_length_cap(self, cap, finite):
        act = toral_action([QUARTER_TURN])
        report = assert_matches_reference(act, 2, cap)
        assert report["finite_orbits"] == finite

    def test_shear(self):
        act = toral_action([SHEAR])
        report = assert_matches_reference(act, 2, 50)
        assert report["finite_orbits"] == 4

    def test_block_pair_map_applications(self, monkeypatch):
        # Breadth-first search over both generators at once visits the
        # whole cap from every infinite orbit: 1,209,883 map applications.
        # Cycle walks cut that to 62,441, ending each at M(4) = 12 steps
        # to 15,085, one generator at a time, and answering -chi from
        # chi's walk, which halves the walks, to 7,973.
        count = count_map_applications(monkeypatch)
        f = Matrix.from_rows([[2, 1], [1, 1]])
        i2 = Matrix.identity(2)
        act = toral_action([Matrix.block_diag(f, i2), Matrix.block_diag(i2, f)])
        report = cross_validate(act, 3, 100_000)
        assert report["exceeded"] == 2400 and report["failures"] == []
        assert count[0] <= 7_973


class TestPeriodBound:
    """A cycle that has not closed after M(r) steps never will."""

    def test_cycles_of_length_exactly_the_bound_close(self):
        # Phi_3 + Phi_4 blocks: a character nonzero on both has period
        # lcm(3, 4) = 12 = M(4), the longest cycle GL_4(Z) allows.
        c3 = Matrix.from_rows([[0, -1], [1, -1]])
        act = toral_action([Matrix.block_diag(c3, QUARTER_TURN)])
        maps = oracle.orbit_maps(act)
        chi = (1, 0, 1, 0)
        assert max_torsion_order(4) == 12
        assert walk_orbit(maps, chi, 12, 1 << 64)[1] is None
        assert walk_orbit(maps, chi, 11, 1 << 64)[1] == "visited-cap"
        report = cross_validate(act, 1, 100)
        fixed = act.finite_orbit_subspace
        inside = sum(fixed.contains(chi) for chi in
                     itertools.product(range(-1, 2), repeat=4) if any(chi))
        assert (report["finite_orbits"], report["exceeded"]) == (inside, 0) == (80, 0)
        assert report["failures"] == []

    def test_shear_cost_does_not_grow_with_the_cap(self, monkeypatch):
        # The shear never reaches the coordinate guard; before the period
        # bound every walk ran to the cap.  Now each of the 8 box
        # characters costs at most M(2) = 6 steps.
        act = toral_action([SHEAR])
        count = count_map_applications(monkeypatch)
        counts = []
        for cap in (10 ** 3, 10 ** 6):
            count[0] = 0
            report = cross_validate(act, 1, cap)
            assert (report["finite_orbits"], report["failures"]) == (2, [])
            counts.append(count[0])
        assert counts[0] == counts[1] <= 8 * max_torsion_order(2)


class TestGiveUpReasons:
    """With the finite-orbit subspace forced to the whole space, every
    walk that gives up is a failure that records why it gave up."""

    @staticmethod
    def reasons(monkeypatch, action, cap):
        monkeypatch.setitem(vars(action), "finite_orbit_subspace", Subspace.full(action.dim))
        report = cross_validate(action, 1, cap)
        assert len(report["failures"]) == report["exceeded"] > 0
        return {f["reason"] for f in report["failures"]}

    def test_period_bound_below_the_cap(self, monkeypatch):
        # M(2) = 6 < 100: the cycle ends at the period bound
        act = toral_action([fibonacci_matrix()])
        assert self.reasons(monkeypatch, act, 100) == {"period-bound"}

    def test_visited_cap_below_the_period_bound(self, monkeypatch):
        act = toral_action([fibonacci_matrix()])
        assert self.reasons(monkeypatch, act, 5) == {"visited-cap"}

    def test_coordinate_guard(self, monkeypatch):
        # the shear's cycles grow by one per step and reach 4 in four
        # steps, but characters inside the subspace are walked without the
        # guard, and the failure records why that walk gave up
        act = toral_action([SHEAR])
        monkeypatch.setattr(oracle, "COORD_BITS", 2)
        assert self.reasons(monkeypatch, act, 100) == {"period-bound"}
        assert self.reasons(monkeypatch, act, 5) == {"visited-cap"}


# An order-4 automorphism of the 2-torus whose box characters reach
# coordinates near 2^80 within one step: finite orbits past the guard.
ORDER_4_LARGE = [[2 ** 40, -(2 ** 80 + 1)], [1, -2 ** 40]]


class TestGuardOutsideSubspaceOnly:
    """Characters inside the finite-orbit subspace are walked without the
    coordinate guard; outside, the guard holds."""

    def test_large_finite_orbits_close(self):
        act = toral_action([ORDER_4_LARGE])
        assert act.finite_orbit_subspace.is_full
        report = cross_validate(act, 1, 100_000)
        assert report == {"characters_checked": 8, "finite_orbits": 8, "exceeded": 0,
                          "failures": []}

    def test_oracle_check_replays_clean(self, tmp_path, capsys):
        path = tmp_path / "order4.json"
        path.write_text(json.dumps({"type": "toral", "r": 2, "generators": [ORDER_4_LARGE]}),
                        encoding="utf-8")
        assert main(["oracle-check", str(path), "--norm-bound", "1", "--verify-report"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["failures"] == []

    def test_only_inside_characters_walk_without_the_guard(self, monkeypatch):
        # fib + I: the identity block's characters are inside and close at
        # once; the Fibonacci block's leave the subspace and stop at a tiny
        # guard, which no walk without it follows
        unguarded = []
        real = oracle.walk_orbit

        def spy(maps, start, cap, guard=None, known=None):
            if guard is None:
                unguarded.append(start)
            return real(maps, start, cap, guard, known)

        monkeypatch.setattr(oracle, "walk_orbit", spy)
        act = toral_action([Matrix.block_diag(fibonacci_matrix(), Matrix.identity(2))])
        monkeypatch.setattr(oracle, "COORD_BITS", 1)
        report = cross_validate(act, 1, 100)
        assert report["failures"] == [] and report["exceeded"] > 0
        assert unguarded and all(act.finite_orbit_subspace.contains(chi) for chi in unguarded)

    def test_real_guard_stops_a_walk_outside_the_subspace(self, monkeypatch):
        # an entry of 2^40 takes a box character past 2^64 within two
        # steps, long before the visited cap or the period bound; with the
        # guard at 100000 bits every such walk stops at the cap instead
        stops = []
        real = oracle.walk_orbit

        def spy(maps, start, cap, guard=None, known=None):
            seen, stop, last = real(maps, start, cap, guard, known)
            stops.append((guard, stop))
            return seen, stop, last

        monkeypatch.setattr(oracle, "walk_orbit", spy)
        act = toral_action([[[0, 1], [1, 2 ** 40]]])
        assert act.finite_orbit_subspace.is_zero
        report = cross_validate(act, 1, 100)
        assert report["failures"] == [] and report["exceeded"] == 8
        assert (1 << oracle.COORD_BITS, "coordinate-guard") in stops


class TestNegationSharing:
    """-chi takes chi's status without a walk.  The results must be those
    of walking every character on its own, whether -chi lies on chi's
    orbit (the quarter turn, -I, the quarter turn + Fibonacci) or never
    does (Fibonacci, the block pair, Fibonacci + I)."""

    ACTIONS = {
        "quarter-turn": toral_action([QUARTER_TURN]),
        "minus-identity": toral_action([[[-1, 0], [0, -1]]]),
        "quarter-turn-fib": toral_action([Matrix.block_diag(QUARTER_TURN, fibonacci_matrix())]),
        "fib": toral_action([fibonacci_matrix()]),
        "block-pair": toral_action([Matrix.block_diag(fibonacci_matrix(), Matrix.identity(2)),
                                    Matrix.block_diag(Matrix.identity(2), fibonacci_matrix())]),
        "fib-identity": toral_action([Matrix.block_diag(fibonacci_matrix(),
                                                        Matrix.identity(2))]),
    }

    @staticmethod
    def norm_bound(action):
        return 2 if action.dim == 2 else 1

    @pytest.mark.parametrize("name", ACTIONS)
    @pytest.mark.parametrize("below", [1, 3])
    def test_matches_reference_with_a_cap_below_the_period_bound(self, name, below):
        action = self.ACTIONS[name]
        assert_matches_reference(action, self.norm_bound(action),
                                 max_torsion_order(action.dim) - below)

    @pytest.mark.parametrize("name", ACTIONS)
    def test_each_mirrored_character_is_its_own_failure(self, monkeypatch, name):
        # with the subspace forced to the whole space every walk that gives
        # up is a failure, -chi's with its own entry and reason, in box order
        action = self.ACTIONS[name]
        monkeypatch.setitem(vars(action), "finite_orbit_subspace", Subspace.full(action.dim))
        cap = max_torsion_order(action.dim) - 1
        report = assert_matches_reference(action, self.norm_bound(action), cap)
        failed = {tuple(f["character"]) for f in report["failures"]}
        assert len(failed) == report["exceeded"]
        assert failed == {tuple(-x for x in chi) for chi in failed}

    def test_no_walk_starts_at_the_negation_of_an_earlier_start(self, monkeypatch):
        starts = []
        real = oracle.walk_orbit

        def spy(maps, start, cap, guard=None, known=None):
            starts.append(start)
            return real(maps, start, cap, guard, known)

        monkeypatch.setattr(oracle, "walk_orbit", spy)
        report = cross_validate(toral_action([fibonacci_matrix()]), 3, 100)
        assert report["exceeded"] == 48 and report["failures"] == []
        assert starts and not any(tuple(-x for x in chi) in starts[:i]
                                  for i, chi in enumerate(starts))


class TestBoxLimit:
    def test_box_above_the_limit_is_a_resource_limit(self):
        act = toral_action([Matrix.identity(12)])
        with pytest.raises(ValidationError) as info:
            cross_validate(act, 3, 100)
        assert [issue.code for issue in info.value.issues] == ["resource-limit"]

    def test_box_at_the_limit_is_allowed(self):
        act = toral_action([Matrix.identity(2)])
        assert oracle.box_issue(act, 499, 100) is None  # 999^2 - 1 characters
        assert oracle.box_issue(act, 500, 100).code == "resource-limit"

    @pytest.mark.parametrize("norm_bound,cap", [(1, 0), (1, -5), (0, 100), (-1, 100),
                                                (2.5, 100), (1, 2.0), (True, 100)])
    def test_bound_or_cap_that_is_not_a_positive_int_is_refused(self, norm_bound, cap):
        # a cap below one would call every one-point orbit finite, and a
        # norm bound below one would check an empty box
        act = toral_action([Matrix.identity(2)])
        with pytest.raises(ValidationError) as info:
            cross_validate(act, norm_bound, cap)
        assert [(i.code, i.message) for i in info.value.issues] == [
            ("schema", "the norm bound and the cap must be positive integers")]

    def test_huge_norm_bound_is_a_resource_limit(self):
        # str() refuses an int of more than 4300 digits, so the issue gives
        # the bound's digit count instead of the bound and the box's size
        act = toral_action([Matrix.identity(2)])
        start = time.perf_counter()
        issue = oracle.box_issue(act, 10 ** 5000, 100)
        with pytest.raises(ValidationError) as info:
            cross_validate(act, 10 ** 5000, 10)
        assert time.perf_counter() - start < 1
        assert issue.code == "resource-limit" and "5001-digit" in issue.message
        assert [i.code for i in info.value.issues] == ["resource-limit"]


class TestProductDemo:
    """The truncated product action through the ordinary engine: an
    ergodic group whose ergodic elements all lie outside the box."""

    @pytest.mark.parametrize("radius,rank", [(1, 8), (2, 16), (3, 32)])
    def test_group_ergodic_and_hit_outside_the_box(self, radius, rank):
        act = product_counterexample(radius)
        assert act.dim == rank
        assert is_ergodic_group(act).certificate == "zero-finite-orbit-subspace"
        exps, verdict = find_ergodic_exponents(act)
        assert exps == (1, radius + 1) and verdict.is_ergodic
        assert sum(exps) <= rank * (act.n_generators - 1) + 2

    @pytest.mark.parametrize("radius", [1, 2])
    def test_box_elements_not_ergodic(self, radius):
        act = product_counterexample(radius)
        box = range(-radius, radius + 1)
        assert all(is_ergodic_element(act, (n, m)).kind == "not-ergodic"
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
