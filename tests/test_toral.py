import itertools
import random
from fractions import Fraction

import pytest

from ergodec import (Matrix, MatrixAction, NotErgodicGroupError, Subspace, VerdictKind,
                     cyclotomic, dual_element, ergodic_distal_filtration,
                     find_ergodic_exponents, finite_orbit_subspace,
                     is_distal_element, is_distal_group, is_ergodic_element,
                     is_ergodic_group, largest_ergodic_subgroup, mixing_flag,
                     orders_with_totient_at_most, poly_gcd, solenoid_action,
                     toral_action)
from ergodec.actions import positive_vectors
from ergodec.encoding import encode_subspace
from factories import (commuting_mixed_family, commuting_unipotent_family,
                       conjugate, ergodic_distal_pair, fibonacci_matrix,
                       random_unimodular, random_unipotent, root_of_unity_lcm)


def fib_action():
    return toral_action([fibonacci_matrix()])


def block_pair_action():
    f = fibonacci_matrix()
    i2 = Matrix.identity(2)
    return toral_action([Matrix.block_diag(f, i2), Matrix.block_diag(i2, f)])


def shear_action():
    return toral_action([[[1, 1], [0, 1]]])


def rotation_action():
    return toral_action([[[0, -1], [1, 0]]])


class TestErgodicElement:
    def test_fibonacci_ergodic(self):
        v = is_ergodic_element(fib_action(), (1,))
        assert v.kind == VerdictKind.ERGODIC
        assert v.certificate.kind == "no-root-of-unity-eigenvalue"
        assert mixing_flag(v)

    def test_identity_not_ergodic_with_witness(self):
        act = toral_action([Matrix.identity(2)])
        v = is_ergodic_element(act, (1,))
        assert v.kind == VerdictKind.NOT_ERGODIC
        chi = v.certificate.data["character"]
        assert chi == [1, 0]
        assert not mixing_flag(v)

    def test_rotation_not_ergodic(self):
        v = is_ergodic_element(rotation_action(), (1,))
        assert v.kind == VerdictKind.NOT_ERGODIC
        # order four: the witness is fixed by the uniform power
        chi = tuple(v.certificate.data["character"])
        b = dual_element(rotation_action(), (1,))
        assert (b ** v.certificate.data["power"]).matvec(chi) == chi

    def test_witness_replay_for_shear(self):
        v = is_ergodic_element(shear_action(), (1,))
        assert v.kind == VerdictKind.NOT_ERGODIC
        chi = tuple(v.certificate.data["character"])
        b = dual_element(shear_action(), (1,))
        assert (b ** v.certificate.data["power"]).matvec(chi) == chi


class TestDistalElement:
    def test_shear_distal_with_factors(self):
        v = is_distal_element(shear_action(), (1,))
        assert v.kind == VerdictKind.DISTAL
        assert v.certificate.data["factors"] == [[1, 2]]

    def test_fibonacci_not_distal(self):
        v = is_distal_element(fib_action(), (1,))
        assert v.kind == VerdictKind.NOT_DISTAL
        assert v.certificate.data["cyclotomic_part"] == []

    def test_identity_distal(self):
        act = toral_action([Matrix.identity(2)])
        assert is_distal_element(act, (1,)).kind == VerdictKind.DISTAL

    def test_rotation_distal(self):
        v = is_distal_element(rotation_action(), (1,))
        assert v.kind == VerdictKind.DISTAL
        assert v.certificate.data["factors"] == [[4, 1]]


class TestFiniteOrbitSubspace:
    def test_shear_fixed_dual_line(self):
        assert finite_orbit_subspace(shear_action()).basis == ((0, 1),)

    def test_block_pair_trivial(self):
        assert finite_orbit_subspace(block_pair_action()).is_zero

    def test_identity_full(self):
        act = toral_action([Matrix.identity(3)])
        assert finite_orbit_subspace(act) == Subspace.full(3)

    def test_membership_matches_uniform_power_fixing(self):
        rng = random.Random(67)
        for _ in range(10):
            gens = commuting_mixed_family(rng, max_dim=4)
            act = toral_action(gens)
            fixed = finite_orbit_subspace(act)
            m = root_of_unity_lcm(act.dim)
            powered = [d ** m for d in act.dual_generators]
            for v in fixed.basis:
                for pw in powered:
                    assert pw.matvec(v) == tuple(v)


class TestGroupVerdicts:
    def test_block_pair_group_ergodic_without_ergodic_generator(self):
        act = block_pair_action()
        assert is_ergodic_element(act, (1, 0)).kind == VerdictKind.NOT_ERGODIC
        assert is_ergodic_element(act, (0, 1)).kind == VerdictKind.NOT_ERGODIC
        assert is_ergodic_group(act).kind == VerdictKind.ERGODIC

    def test_rotation_group_not_ergodic(self):
        v = is_ergodic_group(rotation_action())
        assert v.kind == VerdictKind.NOT_ERGODIC
        assert v.certificate.data["orbit_size"] <= 4

    def test_identity_group_not_ergodic_with_witness(self):
        act = toral_action([Matrix.identity(2)])
        v = is_ergodic_group(act)
        assert v.kind == VerdictKind.NOT_ERGODIC
        assert v.certificate.data["character"] == [1, 0]
        assert v.certificate.data["orbit_size"] == 1

    def test_commuting_shears_distal(self):
        act = toral_action([[[1, 2], [0, 1]], [[1, 3], [0, 1]]])
        assert is_distal_group(act).kind == VerdictKind.DISTAL

    def test_fibonacci_group_not_distal(self):
        assert is_distal_group(fib_action()).kind == VerdictKind.NOT_DISTAL

    def test_plus_minus_identity_distal(self):
        act = toral_action([Matrix.identity(2), [[-1, 0], [0, -1]]])
        assert is_distal_group(act).kind == VerdictKind.DISTAL


class TestLargestErgodicSubgroup:
    def test_fibonacci_whole_torus(self):
        w, report = largest_ergodic_subgroup(fib_action())
        assert w.is_zero
        assert report["subspace"] == encode_subspace(w)

    def test_shear_trivial_subgroup(self):
        w, report = largest_ergodic_subgroup(shear_action())
        assert w.is_full
        assert report["subspace"] == encode_subspace(w)

    def test_block_with_identity(self):
        act = toral_action([Matrix.block_diag(fibonacci_matrix(), Matrix.identity(2))])
        w, _ = largest_ergodic_subgroup(act)
        assert w == Subspace.span(4, [(0, 0, 1, 0), (0, 0, 0, 1)])

    @pytest.mark.parametrize("action,basis", [
        (toral_action([Matrix.block_diag(fibonacci_matrix(), rotation_action().generators[0])]),
         [(0, 0, 1, 0), (0, 0, 0, 1)]),
        (block_pair_action(), []),
    ], ids=["fibonacci-rotation", "block-pair"])
    def test_common_root_of_unity_kernel(self, action, basis):
        w, report = largest_ergodic_subgroup(action)
        assert w == Subspace.span(4, basis)
        assert report["subspace"] == encode_subspace(w)

    def test_equals_filtration_residual(self):
        rng = random.Random(2024)
        for _ in range(40):
            alpha, beta = ergodic_distal_pair(rng, max_dim=4)
            u = random_unipotent(rng, rng.randint(1, 2))
            families = [
                commuting_mixed_family(rng, max_dim=4),
                commuting_unipotent_family(rng, max_dim=4),
                [alpha, beta],
                [Matrix.block_diag(alpha, u), Matrix.block_diag(beta, Matrix.identity(u.nrows))],
            ]
            for gens in families:
                act = toral_action(gens)
                w, _ = largest_ergodic_subgroup(act)
                assert w == ergodic_distal_filtration(act).residual


class TestFiltration:
    def test_fibonacci_chain(self):
        report = ergodic_distal_filtration(fib_action())
        assert report.dims() == (2, 0)
        assert report.group_ergodic

    def test_block_pair_chain_and_attribution(self):
        report = ergodic_distal_filtration(block_pair_action())
        assert report.dims() == (4, 2, 0)
        assert [a["generator"] for a in report.attributions] == [1, 2]
        assert all(a["ergodic_on_quotient"] for a in report.attributions)
        assert report.group_ergodic

    def test_identity_chain_residual_full(self):
        act = toral_action([Matrix.identity(3)])
        report = ergodic_distal_filtration(act)
        assert report.dims() == (3, 3)
        assert not report.group_ergodic
        assert report.residual.is_full

    def test_chain_members_invariant_and_decreasing(self):
        rng = random.Random(71)
        for _ in range(10):
            act = toral_action(commuting_mixed_family(rng, max_dim=4))
            report = ergodic_distal_filtration(act)
            for prev, cur in zip(report.chain, report.chain[1:]):
                assert prev.contains_subspace(cur)
            for w in report.chain:
                for d in act.dual_generators:
                    assert w.is_invariant(d)


class TestFindErgodicExponents:
    def test_single_generator(self):
        exps, v = find_ergodic_exponents(fib_action())
        assert exps == (1,)
        assert v.kind == VerdictKind.ERGODIC

    def test_block_pair(self):
        exps, v = find_ergodic_exponents(block_pair_action())
        assert exps == (1, 1)
        assert v.kind == VerdictKind.ERGODIC

    def test_identity_rejected(self):
        act = toral_action([Matrix.identity(2)])
        with pytest.raises(NotErgodicGroupError):
            find_ergodic_exponents(act)

    def test_all_positive_and_first_in_order(self):
        exps, _ = find_ergodic_exponents(block_pair_action())
        assert all(e >= 1 for e in exps)

    @pytest.mark.parametrize("d", [2, 3])
    def test_hyperplane_share_of_a_sum_shell(self, d):
        # the lemma behind the search bound: a hyperplane through 0 holds at
        # most a (d - 1)/(S - 1) share of the positive vectors with sum S
        for total in range(d, 11):
            shell = list(positive_vectors(d, total))
            for normal in itertools.product(range(-6, 7), repeat=d):
                on = sum(1 for v in shell if sum(a * x for a, x in zip(normal, v)) == 0)
                assert not any(normal) or on * (total - 1) <= (d - 1) * len(shell)


class TestTwoRouteEquivalence:
    def test_routes_agree_explicitly(self):
        rng = random.Random(73)
        for _ in range(25):
            act = toral_action(commuting_mixed_family(rng, max_dim=4))
            n = act.n_generators
            exps = tuple(rng.randint(-2, 2) for _ in range(n))
            b = dual_element(act, exps)
            rank = act.dim
            cp = b.char_poly()
            gcd_route = any(
                not poly_gcd(cp, cyclotomic(d)).is_one
                for d in orders_with_totient_at_most(rank))
            m = root_of_unity_lcm(rank)
            det_route = ((b ** m) - Matrix.identity(rank)).det() == 0
            assert gcd_route == det_route
            verdict = is_ergodic_element(act, exps)
            assert verdict.is_ergodic == (not gcd_route)


class TestInvariances:
    def test_conjugation_invariance(self):
        rng = random.Random(79)
        for _ in range(10):
            gens = commuting_mixed_family(rng, max_dim=4)
            act = toral_action(gens)
            p = random_unimodular(rng, act.dim)
            conj = toral_action([conjugate(g, p) for g in gens])
            for i in range(act.n_generators):
                exps = tuple(1 if j == i else 0 for j in range(act.n_generators))
                assert (is_ergodic_element(act, exps).kind
                        == is_ergodic_element(conj, exps).kind)
                assert (is_distal_element(act, exps).kind
                        == is_distal_element(conj, exps).kind)
            assert is_ergodic_group(act).kind == is_ergodic_group(conj).kind

    def test_primal_dual_invariance(self):
        rng = random.Random(83)
        for _ in range(10):
            gens = commuting_mixed_family(rng, max_dim=4)
            act = toral_action(gens)
            dual_act = toral_action(act.dual_generators)
            for i in range(act.n_generators):
                exps = tuple(1 if j == i else 0 for j in range(act.n_generators))
                assert (is_ergodic_element(act, exps).kind
                        == is_ergodic_element(dual_act, exps).kind)
                assert (is_distal_element(act, exps).kind
                        == is_distal_element(dual_act, exps).kind)


def inverse_transpose_action(act):
    """The same group with the contragredient duals (A^T)^-1 in place of
    the transposes."""
    return MatrixAction("toral", act.dim, act.generators,
                        tuple(g.transpose().inverse() for g in act.generators))


def transpose_dual_families():
    """Factories families, some with a rotation block of order 3, 4 or 6."""
    rng = random.Random(97)
    rotations = [Matrix.from_rows(rows) for rows in (
        [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[0, -1], [1, 1]])]
    out = []
    for _ in range(8):
        out.append(commuting_mixed_family(rng, max_dim=4))
        out.append(commuting_unipotent_family(rng, max_dim=4))
        alpha, beta = ergodic_distal_pair(rng, max_dim=4)
        rot = rng.choice(rotations)
        p = random_unimodular(rng, alpha.nrows + 2)
        out.append([conjugate(Matrix.block_diag(g, rot), p) for g in (alpha, beta)])
    return out


class TestTransposeDual:
    @pytest.mark.parametrize("gens", transpose_dual_families())
    def test_inverse_transpose_duals_give_the_same_results(self, gens):
        act = toral_action(gens)
        old = inverse_transpose_action(act)
        assert finite_orbit_subspace(act) == finite_orbit_subspace(old)
        assert largest_ergodic_subgroup(act)[0] == largest_ergodic_subgroup(old)[0]
        assert ergodic_distal_filtration(act).chain == ergodic_distal_filtration(old).chain
        group, old_group = is_ergodic_group(act), is_ergodic_group(old)
        assert group.kind == old_group.kind
        if not group.is_ergodic:
            data, old_data = group.certificate.data, old_group.certificate.data
            assert data["character"] == old_data["character"]
            assert set(map(tuple, data["orbit"])) == set(map(tuple, old_data["orbit"]))
        n = act.n_generators
        for exps in [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)] \
                + [(1,) * n, tuple(range(1, n + 1))]:
            assert is_ergodic_element(act, exps).kind == is_ergodic_element(old, exps).kind
            assert is_distal_element(act, exps).kind == is_distal_element(old, exps).kind


class TestKolchinProperty:
    def test_unipotent_families_have_fixed_characters(self):
        rng = random.Random(89)
        for _ in range(15):
            gens = commuting_unipotent_family(rng, max_dim=5)
            act = toral_action(gens)
            assert is_distal_group(act).kind == VerdictKind.DISTAL
            assert not finite_orbit_subspace(act).is_zero


class TestErgodicDistalProducts:
    def test_ergodic_times_distal_powers_stay_ergodic(self):
        rng = random.Random(97)
        for _ in range(5):
            alpha, beta = ergodic_distal_pair(rng, max_dim=4)
            act = toral_action([alpha, beta])
            for i in (-2, -1, 1, 2):
                for j in (-2, 0, 2):
                    assert is_ergodic_element(act, (i, j)).kind == VerdictKind.ERGODIC

    def test_shifted_products_fail_only_finitely_often(self):
        rng = random.Random(101)
        for _ in range(5):
            alpha, delta = ergodic_distal_pair(rng, max_dim=4)
            j0 = rng.randint(1, 5)
            beta = (alpha ** -j0) * delta
            act = toral_action([alpha, beta])
            failures = [i for i in range(1, 21)
                        if not is_ergodic_element(act, (i, 1)).is_ergodic]
            assert failures == [j0]


class TestSolenoid:
    def test_doubling_map_ergodic(self):
        act = solenoid_action([[[2]]])
        assert is_ergodic_element(act, (1,)).kind == VerdictKind.ERGODIC
        assert is_distal_element(act, (1,)).kind == VerdictKind.NOT_DISTAL

    def test_half_map_ergodic(self):
        act = solenoid_action([[[Fraction(1, 2)]]])
        assert is_ergodic_element(act, (1,)).kind == VerdictKind.ERGODIC

    def test_eigenvalue_one_blocks_ergodicity(self):
        act = solenoid_action([[[2, 0], [0, 1]]])
        v = is_ergodic_element(act, (1,))
        assert v.kind == VerdictKind.NOT_ERGODIC

    def test_rational_witness_kept_rational(self):
        act = solenoid_action([[[Fraction(1, 2), 0], [0, 1]]])
        v = is_ergodic_group(act)
        assert v.kind == VerdictKind.NOT_ERGODIC

    def test_filtration_on_solenoid(self):
        act = solenoid_action([[[2, 0], [0, 1]]])
        report = ergodic_distal_filtration(act)
        assert report.dims() == (2, 1)
        assert not report.group_ergodic
