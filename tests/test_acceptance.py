"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing its time budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

from ergodec import (LaurentPoly, Matrix, cross_validate, cyclotomic, dual_element,
                     ergodic_distal_filtration, find_ergodic_direction,
                     find_ergodic_exponents, direction_is_ergodic, group_is_ergodic,
                     is_distal_element, is_distal_group, is_ergodic_element,
                     is_ergodic_group, laurent_cyclic_action, product_counterexample,
                     toral_action)
from ergodec.cli import main
from ergodec.encoding import decode_laurent
from ergodec.intpoly import orders_with_totient_at_most, poly_gcd
from ergodec.laurent import laurent_divides
from ergodec.replay import replay_filtration, replay_report
from factories import (commuting_mixed_family, commuting_unipotent_family,
                       conjugate, counterexample_doc, ergodic_distal_pair, fibonacci_matrix,
                       power_minus_one, random_ergodic_2x2, random_unimodular,
                       root_of_unity_lcm)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.started = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.started
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"
        return elapsed


def block_pair_action():
    f = fibonacci_matrix()
    i2 = Matrix.identity(2)
    return toral_action([Matrix.block_diag(f, i2), Matrix.block_diag(i2, f)])


def both_routes(action, exponents):
    b = dual_element(action, exponents)
    rank = action.dim
    cp = b.char_poly()
    gcd_route = any(not poly_gcd(cp, cyclotomic(d)).is_one
                    for d in orders_with_totient_at_most(rank))
    m = root_of_unity_lcm(rank)
    det_route = ((b ** m) - Matrix.identity(rank)).det() == 0
    return gcd_route, det_route


def test_criterion_01_single_element_verdicts():
    budget = Budget(1.0)
    fib = toral_action([[[0, 1], [1, 1]]])
    assert is_ergodic_element(fib, (1,)).kind == "ergodic"
    shear = toral_action([[[1, 1], [0, 1]]])
    assert is_ergodic_element(shear, (1,)).kind == "not-ergodic"
    assert is_distal_element(shear, (1,)).kind == "distal"
    rot = toral_action([[[0, -1], [1, 0]]])
    assert is_ergodic_element(rot, (1,)).kind == "not-ergodic"
    assert is_distal_element(rot, (1,)).kind == "distal"
    elapsed = budget.check()
    print(f"\nPASS criterion 1: single-element verdicts exact ({elapsed:.2f}s)")


def test_criterion_02_ergodic_element_search_with_oracle():
    budget = Budget(5.0)
    act = block_pair_action()
    assert is_ergodic_element(act, (1, 0)).kind == "not-ergodic"
    assert is_ergodic_element(act, (0, 1)).kind == "not-ergodic"
    assert is_ergodic_group(act).kind == "ergodic"
    exps, verdict = find_ergodic_exponents(act)
    assert all(e >= 1 for e in exps)
    assert verdict.kind == "ergodic"
    gcd_route, det_route = both_routes(act, exps)
    assert not gcd_route and not det_route
    from ergodec.actions import element
    found = element(act, exps)
    cyclic = toral_action([found])
    report = cross_validate(cyclic, norm_bound=3, cap=100_000)
    assert report["failures"] == []
    assert report["finite_orbits"] == 0
    elapsed = budget.check()
    print(f"PASS criterion 2: search found {exps} with oracle spot-check "
          f"({report['characters_checked']} characters, {elapsed:.2f}s)")


def test_criterion_03_two_route_equivalence_fuzz():
    budget = Budget(60.0)
    rng = random.Random(20250808)
    families = 0
    elements = 0
    while families < 200:
        max_dim = rng.choice([2, 2, 3, 3, 4, 4, 4, 6])
        gens = commuting_mixed_family(rng, max_dim=max_dim)
        act = toral_action(gens)
        n = act.n_generators
        exponent_sets = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        exponent_sets += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
        for exps in exponent_sets:
            gcd_route, det_route = both_routes(act, exps)
            assert gcd_route == det_route, f"route disagreement at {exps}"
            verdict = is_ergodic_element(act, exps)  # internal agreement assert
            assert verdict.is_ergodic == (not gcd_route)
            elements += 1
        p = random_unimodular(rng, act.dim)
        conj = toral_action([conjugate(g, p) for g in gens])
        dual_act = toral_action(act.dual_generators)
        for exps in exponent_sets[:n]:
            base = is_ergodic_element(act, exps).kind
            assert is_ergodic_element(conj, exps).kind == base
            assert is_ergodic_element(dual_act, exps).kind == base
        families += 1
    elapsed = budget.check()
    print(f"PASS criterion 3: two-route agreement on {families} families, "
          f"{elements} elements, zero disagreements ({elapsed:.1f}s)")


def test_criterion_04_ergodic_times_distal_products():
    budget = Budget(30.0)
    rng = random.Random(41203)
    violations = 0
    pairs = 0
    checked = 0
    for _ in range(50):
        alpha, beta = ergodic_distal_pair(rng, max_dim=4)
        act = toral_action([alpha, beta])
        for i in range(-5, 6):
            if i == 0:
                continue
            for j in range(-5, 6):
                checked += 1
                if is_ergodic_element(act, (i, j)).kind != "ergodic":
                    violations += 1
        pairs += 1
    assert violations == 0
    elapsed = budget.check()
    print(f"PASS criterion 4: {pairs} pairs, {checked} products ergodic, "
          f"zero violations ({elapsed:.1f}s)")


def test_criterion_05_filtration_soundness():
    budget = Budget(30.0)
    rng = random.Random(555001)
    families = 0
    while families < 60:
        max_dim = rng.choice([2, 3, 3, 4, 4, 6])
        gens = commuting_mixed_family(rng, max_dim=max_dim)
        act = toral_action(gens)
        chain = ergodic_distal_filtration(act)
        group = is_ergodic_group(act)
        assert chain[-1].is_zero == group.is_ergodic
        failures = []
        replay_filtration(act, chain, failures)
        assert failures == [], failures
        families += 1
    elapsed = budget.check()
    print(f"PASS criterion 5: filtration certified on {families} fuzzed "
          f"families, residual matches group verdict ({elapsed:.1f}s)")


def test_criterion_06_commuting_unipotent_distality():
    budget = Budget(30.0)
    rng = random.Random(606)
    for _ in range(100):
        gens = commuting_unipotent_family(rng, max_dim=6)
        act = toral_action(gens)
        assert is_distal_group(act).kind == "distal"
        assert not act.finite_orbit_subspace.is_zero
    elapsed = budget.check()
    print(f"PASS criterion 6: 100 commuting unipotent families distal with "
          f"nonzero finite-orbit subspace ({elapsed:.1f}s)")


def test_criterion_07_oracle_cross_validation():
    budget = Budget(40.0)
    rng = random.Random(707)
    actions = []
    for _ in range(8):
        actions.append(toral_action(commuting_mixed_family(rng, max_dim=2)))
    for _ in range(6):
        actions.append(toral_action(commuting_mixed_family(rng, max_dim=3)))
    e1 = random_ergodic_2x2(rng)
    e2 = random_ergodic_2x2(rng)
    actions.append(toral_action([Matrix.block_diag(e1, Matrix.identity(2)),
                                 Matrix.block_diag(Matrix.identity(2), e2)]))
    neg = Matrix.from_rows([[-1, 0], [0, -1]])
    for _ in range(2):
        seed = random_ergodic_2x2(rng)
        actions.append(toral_action([seed, neg * (seed ** 2)]))
    actions.append(toral_action([Matrix.identity(2)]))
    actions.append(toral_action([[[0, -1], [1, 0]], [[-1, 0], [0, -1]]]))
    actions.append(toral_action([[[1, 1], [0, 1]]]))
    assert len(actions) == 20
    total_checked = 0
    for act in actions:
        report = cross_validate(act, norm_bound=3, cap=100_000)
        assert report["failures"] == [], report["failures"]
        total_checked += report["characters_checked"]
    elapsed = budget.check()
    print(f"PASS criterion 7: 20 actions cross-validated, {total_checked} "
          f"characters, zero hard failures ({elapsed:.1f}s)")


def test_criterion_08_laurent_engine():
    budget = Budget(5.0)
    trinomial = laurent_cyclic_action(
        2, 1, LaurentPoly.from_terms(2, 1, {(0,): 1, (1,): 1, (2,): 1}))
    v = direction_is_ergodic(trinomial, (1,))
    assert v.kind == "not-ergodic"
    assert v.data["power"] == 3
    factor = decode_laurent(v.data["common_factor"])
    assert not factor.is_unit
    witness = laurent_divides(factor, trinomial.presenter)
    w = power_minus_one(2, 1, (1,), 3)
    assert laurent_divides(trinomial.presenter, w * witness) is not None
    assert laurent_divides(trinomial.presenter, witness) is None

    ledrappier = laurent_cyclic_action(
        2, 2, LaurentPoly.from_terms(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}))
    for direction in ((1, 0), (0, 1), (1, 1), (1, -1), (2, -1)):
        verdict = direction_is_ergodic(ledrappier, direction)
        assert verdict.kind == "ergodic"
    group = group_is_ergodic(ledrappier)
    assert group.kind == "ergodic"
    found, verdict = find_ergodic_direction(ledrappier)
    assert found == (1, 1) and verdict.kind == "ergodic"
    planted = laurent_cyclic_action(2, 2, ledrappier.presenter * LaurentPoly.from_terms(
        2, 2, {(0, 0): 1, (1, 1): 1}))
    assert direction_is_ergodic(planted, (1, 1)).kind == "not-ergodic"
    found, verdict = find_ergodic_direction(planted)
    assert found == (1, 0) and verdict.kind == "ergodic"
    elapsed = budget.check()
    print(f"PASS criterion 8: one-variable witness replayed, "
          f"two-variable directions exact ({elapsed:.2f}s)")


def test_criterion_09_product_demo():
    budget = Budget(1.0)
    hits = []
    for radius in (1, 2):
        action = product_counterexample(radius)
        assert is_ergodic_group(action).certificate == "zero-finite-orbit-subspace"
        exps, verdict = find_ergodic_exponents(action)
        assert exps == (1, radius + 1) and verdict.is_ergodic
        assert sum(exps) <= action.dim * (action.n_generators - 1) + 2
        hits.append(exps)
    # the rank-16 box is left to tests/test_oracle.py: 24 route-B spectra
    # do not fit this budget
    action = product_counterexample(1)
    assert not any(is_ergodic_element(action, (n, m)).is_ergodic
                   for n in (-1, 0, 1) for m in (-1, 0, 1) if (n, m) != (0, 0))
    elapsed = budget.check()
    print(f"PASS criterion 9: product action ergodic, box elements not, first "
          f"ergodic elements {hits} step outward ({elapsed:.2f}s)")


GOLDEN_DOCS = {
    "fib.json": {"type": "toral", "r": 2, "generators": [[[0, 1], [1, 1]]]},
    "blockpair.json": {"type": "toral", "r": 4, "generators": [
        [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]]},
    "ledrappier.json": {"type": "laurent", "p": 2, "d": 2, "g": [
        {"exponents": [0, 0], "coefficient": 1},
        {"exponents": [1, 0], "coefficient": 1},
        {"exponents": [0, 1], "coefficient": 1}]},
    "product_r2.json": counterexample_doc(2),
}

GOLDEN_COMMANDS = [
    ("analyze", "fib.json"),
    ("analyze", "ledrappier.json"),
    ("find-ergodic", "blockpair.json"),
    ("find-ergodic", "ledrappier.json"),
    ("filtration", "blockpair.json"),
    ("oracle-check", "fib.json", "--norm-bound", "3", "--cap", "100000"),
    ("find-ergodic", "product_r2.json"),
]

# sha256 of each golden command's stdout, without and with --verify-report.
# A change that keeps every report byte-identical keeps these digests.
GOLDEN_SHA256 = {
    ("analyze", "fib.json"): (
        "a590ddcef9d41b8c20ed631ecdb30272b23a34ce61308af295a7baa86496ce2f",
        "bbf4a43b13f8d0ab90bbafc0a61ec11c533731cf397ca06c5e3ad0ae721f7850"),
    ("analyze", "ledrappier.json"): (
        "81b3f019941c5d45957c3ab9e1e99c5ef1d0167c806e78e5e52212aade891d5f",
        "dfd84d79c3b3d70933b324de3d08e9a1f264ec53ab851716fde0e28fb228e761"),
    ("find-ergodic", "blockpair.json"): (
        "5ec0c8bd049e666747a8b4835e4ce2e719513fb2f6fb894ed920ffbf8cc942bc",
        "2b38997b3e006b14159140d33ea359c2ee34e0650ba2c4e11448bbf89d487d1f"),
    ("find-ergodic", "ledrappier.json"): (
        "4111492cdfc028862bf79245c6df34043a7e2d31d52672d18838c43d2f9655bf",
        "64793be75045a32f812c041a94735f5d15f291697e43155804ad9c228afc0fca"),
    ("filtration", "blockpair.json"): (
        "6f9469907454b6955173c4e5414c7004c6c6147ed8ef345644c755d74f3e610a",
        "1391baa42a3dd5707a822d42d11b14c6235d55d898e968501b32d203e3047168"),
    ("oracle-check", "fib.json"): (
        "e0ec96bd9095075e700ec08d36e75d83f2d4e18d5dde21d05b79fd25cf1a2483",
        "52328c105c3eeed9ff03690b5565b6859aae6c1fe64f9751420938a69409667e"),
    ("find-ergodic", "product_r2.json"): (
        "791e83738f99474ae3892ca537a535160219c0e1c163aef6c52a5cfa79ae895f",
        "b33c5ae2806de96e287f0b8daf37ee4e31cba9458f02e5975dc424a861cdb6e3"),
}


def test_criterion_10_report_determinism_and_replay(tmp_path):
    budget = Budget(60.0)
    for name, doc in GOLDEN_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")

    def run(args):
        return subprocess.run([sys.executable, "-m", "ergodec.cli"] + args,
                              capture_output=True, text=True)

    commands_run = 0
    for command, doc_name, *flags in GOLDEN_COMMANDS:
        args = [command, str(tmp_path / doc_name)] + list(flags)
        first = run(args)
        second = run(args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout, f"non-deterministic output for {args}"
        verified = run(args + ["--verify-report"])
        assert verified.returncode == 0, verified.stderr
        report = json.loads(verified.stdout)
        assert report["verification"]["failures"] == []
        commands_run += 1
    elapsed = budget.check()
    print(f"PASS criterion 10: {commands_run} golden commands byte-identical "
          f"with clean certificate replay ({elapsed:.1f}s)")


def test_in_process_replay_equals_replay_on_a_fresh_action(tmp_path, capsys):
    # --verify-report replays against the engine's action; a saved report
    # replays against one built from its input echo, with the same result
    for name, doc in GOLDEN_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    for command, doc_name, *flags in GOLDEN_COMMANDS:
        args = [command, str(tmp_path / doc_name)] + list(flags) + ["--verify-report"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        verification = report.pop("verification")
        assert verification["failures"] == []
        assert verification == replay_report(report), args


def test_golden_reports_are_pinned(tmp_path, capsys):
    for name, doc in GOLDEN_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    for command, doc_name, *flags in GOLDEN_COMMANDS:
        digests = []
        for verify in ([], ["--verify-report"]):
            assert main([command, str(tmp_path / doc_name), *flags, *verify]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert tuple(digests) == GOLDEN_SHA256[command, doc_name], (command, doc_name)
