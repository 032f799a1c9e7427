import contextlib
import json
import signal

import pytest

from ergodec import (Subspace, build_action, element, is_ergodic_element, laurent, matrices,
                     toral)
from ergodec.cli import main
from ergodec.encoding import encode_matrix, encode_subspace
from ergodec.replay import encoded, replay_report, report_results
from test_acceptance import GOLDEN_COMMANDS, GOLDEN_DOCS

ROTATION = {"type": "toral", "r": 2, "generators": [[[0, -1], [1, 0]]]}
FIB = {"type": "toral", "r": 2, "generators": [[[0, 1], [1, 1]]]}
BLOCK_PAIR = {"type": "toral", "r": 4, "generators": [
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]]}
FIB_IDENTITY = {"type": "toral", "r": 4, "generators": [
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}
FIB_TWICE = {"type": "toral", "r": 2, "generators": [[[0, 1], [1, 1]], [[0, 1], [1, 1]]]}
SHEAR = {"type": "toral", "r": 2, "generators": [[[1, 1], [0, 1]]]}
IDENTITY = {"type": "toral", "r": 2, "generators": [[[1, 0], [0, 1]]]}
LEDRAPPIER = {"type": "laurent", "p": 2, "d": 2, "g": [
    {"exponents": [0, 0], "coefficient": 1},
    {"exponents": [1, 0], "coefficient": 1},
    {"exponents": [0, 1], "coefficient": 1}]}
# (u1 - 1)(u2 + 1) over F_3: the first axis is not ergodic
REDUCIBLE = {"type": "laurent", "p": 3, "d": 2, "g": [
    {"exponents": [1, 1], "coefficient": 1},
    {"exponents": [1, 0], "coefficient": 1},
    {"exponents": [0, 1], "coefficient": 2},
    {"exponents": [0, 0], "coefficient": 2}]}
# (u1 - 1)(u2 - 1) over F_3: both axes fail, (1, 1) is ergodic
AXES_ONLY = {"type": "laurent", "p": 3, "d": 2, "g": [
    {"exponents": [1, 1], "coefficient": 1},
    {"exponents": [1, 0], "coefficient": 2},
    {"exponents": [0, 1], "coefficient": 2},
    {"exponents": [0, 0], "coefficient": 1}]}
# (1 + u1*u2)(1 + u1 + u2) over F_2: (1, 1) fails, (1, 0) is the first ergodic
PLANTED_DIAGONAL = {"type": "laurent", "p": 2, "d": 2, "g": [
    {"exponents": [0, 0], "coefficient": 1}, {"exponents": [1, 0], "coefficient": 1},
    {"exponents": [0, 1], "coefficient": 1}, {"exponents": [1, 1], "coefficient": 1},
    {"exponents": [2, 1], "coefficient": 1}, {"exponents": [1, 2], "coefficient": 1}]}
TRINOMIAL = {"type": "laurent", "p": 2, "d": 1, "g": [
    {"exponents": [0], "coefficient": 1}, {"exponents": [1], "coefficient": 1},
    {"exponents": [2], "coefficient": 1}]}


@contextlib.contextmanager
def within(seconds):
    """Raise TimeoutError in the block once seconds have passed, so that a
    replay that stalls fails its test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"replay took more than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fresh_report(tmp_path, capsys, command, doc, *flags):
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path), *flags]) == 0
    return json.loads(capsys.readouterr().out)


def differs(*pointers):
    """The failures replay records where a report's results differ from
    the engine's, at JSON Pointers below /results."""
    return [f"results differ from the engine's at /results{p}" for p in pointers]


def pointer(*path):
    return "".join(f"/{step}" for step in path)


def test_non_invariant_chain_member_is_a_failure(tmp_path, capsys):
    # stage 1 is <e3, e4>; each entry of the stated basis that is not the
    # engine's is one failure
    report = fresh_report(tmp_path, capsys, "filtration", BLOCK_PAIR)
    assert replay_report(report)["failures"] == []
    report["results"]["chain"][1] = encode_subspace(
        Subspace.span(4, [(1, 0, 0, 0), (0, 0, 1, 0)]))
    assert replay_report(report)["failures"] == differs(
        "/chain/1/basis/0/0", "/chain/1/basis/0/2", "/chain/1/basis/1/2", "/chain/1/basis/1/3")


def _forged_not_distal_rotation(results):
    verdict = results["generators"][0]["distal"]
    verdict["kind"] = "not-distal"
    verdict["certificate"] = {"kind": "non-cyclotomic-factor", "data": {
        "factor": [1, 0, 1], "cyclotomic_part": []}}


def _rotation_witness_power_three(results):
    data = results["generators"][0]["ergodic"]["certificate"]["data"]
    assert data["power"] == 4
    data["power"] = 3


def _group_witness_power_two(results):
    data = results["group"]["ergodic"]["certificate"]["data"]
    assert data["power"] == 4
    data["power"] = 2  # the rotation squared is -I, which moves every character


@pytest.mark.parametrize("doc,tamper", [
    (ROTATION, _forged_not_distal_rotation),
    (ROTATION, _rotation_witness_power_three),
    (ROTATION, _group_witness_power_two),
], ids=["distal-orders-checked", "element-witness-power",
        "group-witness-power"])
def test_tampered_certificate_fails_replay(tmp_path, capsys, doc, tamper):
    report = fresh_report(tmp_path, capsys, "analyze", doc)
    assert replay_report(report)["failures"] == []
    tamper(report["results"])
    assert replay_report(report)["failures"]


@pytest.mark.parametrize("forged", [
    Subspace.zero(4), Subspace.span(4, [(0, 0, 1, 0)]), Subspace.full(4),
], ids=["zero", "span-e3", "full"])
def test_forged_largest_subgroup_fails_replay(tmp_path, capsys, forged):
    # each basis has another length than the engine's two vectors
    report = fresh_report(tmp_path, capsys, "analyze", FIB_IDENTITY)
    results = report["results"]
    assert results["largest_ergodic_subgroup"]["subspace"] == encode_subspace(
        Subspace.span(4, [(0, 0, 1, 0), (0, 0, 0, 1)]))
    assert replay_report(report)["failures"] == []
    results["largest_ergodic_subgroup"]["subspace"] = encode_subspace(forged)
    assert replay_report(report)["failures"] == differs(
        "/largest_ergodic_subgroup/subspace/basis")


def _set(*path_and_value):
    *path, key, value = path_and_value

    def tamper(results):
        target = results
        for step in path:
            target = target[step]
        target[key] = value
    return tamper


def _swap_generator_indices(results):
    # schema 10 numbered the entries; an index is their position, and a
    # report that states one is refused, swapped or not
    first, second = results["generators"]
    first["index"], second["index"] = 2, 1


def _restated_generator_indices(results):
    for i, entry in enumerate(results["generators"]):
        entry["index"] = i + 1


def _drop_second_generator(results):
    del results["generators"][1]


def _forged_distal_group(results):
    verdict = results["group"]["distal"]
    verdict["kind"] = "distal"
    verdict["certificate"]["kind"] = "all-generators-quasi-unipotent"


def _distal_verdict_in_ergodic_slot(results):
    entry = results["generators"][0]
    entry["ergodic"] = entry["distal"]


def _later_ergodic_vector(results):
    # (1, 1) comes first and is ergodic; (2, 1) is ergodic too, with its own
    # verdict, so only the "first" claim is false
    assert results["exponents"] == [1, 1]
    action = build_action(BLOCK_PAIR)
    results["exponents"] = [2, 1]
    results["verdict"] = is_ergodic_element(action, (2, 1)).to_payload()


def _restated_element_matrix(results):
    # schema 10 stated the product the input and the exponents fix
    action = build_action(BLOCK_PAIR)
    results["element_matrix"] = encode_matrix(element(action, tuple(results["exponents"])))


def _one_variable_trivial_content(results):
    results["group"] = {"kind": "ergodic", "certificate": {
        "kind": "trivial-univariate-content", "data": {}}}


def _direction_free_witness_in_group(results):
    # a two-variable group is about no single direction, so its verdict is
    # coprime-axis-powers and a witness there has nothing to be about
    results["group"] = {"kind": "not-ergodic", "certificate": {
        "kind": "finite-quotient-witness", "data": {"power": 1, "common_factor": {
            "p": 2, "vars": 2, "terms": [[[0, 0], 1], [[1, 0], 1]]}}}}


def _coprime_axes_in_a_direction(results):
    # and no other entry holds coprime-axis-powers
    results["directions"][0]["verdict"] = {"kind": "ergodic", "certificate": {
        "kind": "coprime-axis-powers", "data": {}}}


def _swapped_direction_verdicts(results):
    # each entry's direction names what its certificate is about, so
    # swapping two certificates swaps their claims
    first, second = results["directions"]
    first["verdict"], second["verdict"] = second["verdict"], first["verdict"]


def _laurent_factor(*terms):
    def tamper(results):
        data = results["directions"][0]["verdict"]["certificate"]["data"]
        data["common_factor"]["terms"] = [list(t) for t in terms]
    return tamper


def _later_ergodic_direction(results):
    # (1, 0) comes first; (0, 1) is ergodic too, with the same certificate
    assert results["direction"] == [1, 0]
    results["direction"] = [0, 1]


def _found_direction(direction):
    # Ledrappier is ergodic along every direction, in the box or past it
    def tamper(results):
        results["direction"] = direction
    return tamper


def _rotation_shared_orders(orders):
    # schema 9 listed the orders beside their lcm, the power; a report
    # that still states them is refused, whatever they are
    def tamper(results):
        data = results["generators"][0]["ergodic"]["certificate"]["data"]
        assert data == {"character": [1, 0], "power": 4}
        data["shared_orders"] = orders
    return tamper


def _zero_found_direction(results):
    results["direction"] = [0, 0]


ORACLE_FLAGS = ("--norm-bound", "2", "--cap", "200")


@pytest.mark.parametrize("command,doc,flags,tamper", [
    ("analyze", FIB, (), _set("generators", 0, "mixing_of_all_orders", False)),
    # schema 10 stated the mixing flag, which the ergodic verdict fixes
    ("analyze", FIB, (), _set("generators", 0, "mixing_of_all_orders", True)),
    ("analyze", FIB, (), _set("generators", 0, "ergodic", "kind", "not-ergodic")),
    ("analyze", SHEAR, (), _distal_verdict_in_ergodic_slot),
    ("analyze", FIB_TWICE, (), _swap_generator_indices),
    ("analyze", FIB_TWICE, (), _restated_generator_indices),
    ("analyze", FIB_TWICE, (), _drop_second_generator),
    ("analyze", FIB_TWICE, (), _set("group", "distal", "certificate", "data", "generator", 2)),
    ("analyze", FIB, (), _forged_distal_group),
    ("analyze", ROTATION, (), _rotation_shared_orders([8])),
    ("analyze", ROTATION, (), _rotation_shared_orders([1, 4])),
    # each power below fixes the rotation's witness, so only the lcm is wrong
    ("analyze", ROTATION, (),
     _set("generators", 0, "ergodic", "certificate", "data", "power", 8)),
    ("analyze", ROTATION, (), _set("group", "ergodic", "certificate", "data", "power", 12)),
    ("find-ergodic", FIB, (), _set("element_matrix", [[1, 1], [1, 2]])),
    ("find-ergodic", BLOCK_PAIR, (), _restated_element_matrix),
    ("find-ergodic", BLOCK_PAIR, (), _later_ergodic_vector),
    # a field another field or the flags fix is not stated, and a report
    # that states one anyway is refused
    ("filtration", FIB_TWICE, (), _set("dims", [2, 1, 0])),
    ("oracle-check", SHEAR, ORACLE_FLAGS, _set("finite_orbits", 5)),
    ("oracle-check", SHEAR, ORACLE_FLAGS, _set("exceeded", 19)),
    ("oracle-check", SHEAR, ORACLE_FLAGS, _set("characters_checked", 25)),
    ("oracle-check", SHEAR, ORACLE_FLAGS, _set("norm_bound", 3)),
    ("oracle-check", SHEAR, ORACLE_FLAGS, _set("cap", 100)),
    ("analyze", REDUCIBLE, (), _set("directions", 0, "verdict", "kind", "ergodic")),
    ("analyze", LEDRAPPIER, (), _set("directions", 0, "direction", [1, 1])),
    ("analyze", LEDRAPPIER, (),
     _set("directions", 0, "verdict", "certificate", "data", "direction", [0, 1])),
    ("analyze", LEDRAPPIER, (), _set("group", "kind", "not-ergodic")),
    ("find-ergodic", LEDRAPPIER, (), _set("direction", [0, 1])),
    ("find-ergodic", LEDRAPPIER, (), _set("verdict", "kind", "not-ergodic")),
    ("analyze", TRINOMIAL, (), _one_variable_trivial_content),
    ("find-ergodic", LEDRAPPIER, (), _zero_found_direction),
    ("analyze", TRINOMIAL, (), _set("group", "certificate", "data", "power", 0)),
    ("analyze", TRINOMIAL, (), _set("group", "certificate", "data", "power", 2)),
    ("analyze", TRINOMIAL, (), _set("group", "certificate", "data", "power", 1)),
    ("analyze", REDUCIBLE, (), _laurent_factor([[0, 0], 1])),
    ("analyze", REDUCIBLE, (), _laurent_factor([[0, 0], 1], [[1, 0], 1])),
    ("analyze", REDUCIBLE, (), _swapped_direction_verdicts),
    ("find-ergodic", LEDRAPPIER, (), _set("verdict", "certificate", "data", "content", [1, 1])),
    ("find-ergodic", AXES_ONLY, (), _set("verdict", "certificate", "data", "content", [2, 1])),
    ("find-ergodic", LEDRAPPIER, (), _found_direction([4, 1])),
    ("find-ergodic", LEDRAPPIER, ("--search-box", "1"), _found_direction([2, 1])),
    ("find-ergodic", PLANTED_DIAGONAL, (), _later_ergodic_direction),
    ("analyze", LEDRAPPIER, (), _direction_free_witness_in_group),
    ("analyze", REDUCIBLE, (), _coprime_axes_in_a_direction),
    # schema 10 repeated the entry's direction in its certificate
    ("analyze", LEDRAPPIER, (),
     _set("directions", 0, "verdict", "certificate", "data", "direction", [1, 0])),
    ("analyze", TRINOMIAL, (), _set("group", "certificate", "data", "direction", [1])),
    ("find-ergodic", LEDRAPPIER, (), _set("verdict", "certificate", "data", "direction", [1, 1])),
], ids=["mixing-flag", "restated-mixing-flag", "verdict-kind", "verdict-slot",
        "generator-index", "restated-generator-index", "generator-count",
        "not-distal-generator", "distal-group-kind",
        "element-shared-orders-multiple", "element-shared-orders-extra",
        "element-power-multiple", "group-power-multiple",
        "element-matrix", "restated-element-matrix",
        "first-vector",
        "filtration-dims", "finite-orbits", "exceeded",
        "characters-checked", "norm-bound", "cap", "laurent-direction-kind",
        "laurent-direction-slot", "laurent-content-variable", "laurent-group-kind",
        "laurent-found-direction", "laurent-found-kind", "laurent-one-variable-content",
        "laurent-zero-direction", "laurent-witness-power-zero", "laurent-group-power-below",
        "laurent-witness-power-below", "laurent-unit-factor", "laurent-factor-not-dividing",
        "laurent-swapped-direction", "laurent-mixed-content", "laurent-axes-only-content",
        "laurent-scan-past-default", "laurent-scan-past-flag", "laurent-later-direction",
        "laurent-group-witness", "laurent-coprime-axes-in-a-direction",
        "restated-direction-in-entry", "restated-direction-in-group",
        "restated-direction-in-found"])
def test_tampered_derived_field_fails_replay(tmp_path, capsys, command, doc, flags, tamper):
    report = fresh_report(tmp_path, capsys, command, doc, *flags)
    assert replay_report(report)["failures"] == []
    tamper(report["results"])
    assert replay_report(report)["failures"]


def _trinomial_factor_terms(terms):
    def tamper(results):
        factor = results["group"]["certificate"]["data"]["common_factor"]
        assert factor["terms"] == [[[0], 1], [[1], 1], [[2], 1]]
        factor["terms"] = terms
    return tamper


def _chain_start(basis):
    def tamper(results):
        assert results["chain"][0] == {"ambient": 2, "basis": [[1, 0], [0, 1]]}
        results["chain"][0]["basis"] = basis
    return tamper


ELEMENT_WITNESS = ("generators", 0, "ergodic", "certificate", "data")
GROUP_WITNESS = ("group", "ergodic", "certificate", "data")
FLAGS = "flags are not the command's positive integers"


@pytest.mark.parametrize("command,doc,tamper,places", [
    ("analyze", ROTATION, _set(*ELEMENT_WITNESS, "power", 4.0),
     [pointer(*ELEMENT_WITNESS, "power")]),
    ("analyze", ROTATION, _set(*GROUP_WITNESS, "power", 4.0), [pointer(*GROUP_WITNESS, "power")]),
    ("analyze", IDENTITY, _set(*GROUP_WITNESS, "power", True), [pointer(*GROUP_WITNESS, "power")]),
    ("analyze", FIB_TWICE, _set("group", "distal", "certificate", "data", "generator", True),
     ["/group/distal/certificate/data/generator"]),
    ("analyze", FIB_TWICE, _set("group", "distal", "certificate", "data", "generator", 1.0),
     ["/group/distal/certificate/data/generator"]),
    ("analyze", ROTATION, _set(*ELEMENT_WITNESS, "character", ["1", 0]),
     [pointer(*ELEMENT_WITNESS, "character", 0)]),
    ("analyze", ROTATION, _set(*ELEMENT_WITNESS, "character", [[1, 1], 0]),
     [pointer(*ELEMENT_WITNESS, "character", 0)]),
    ("analyze", FIB, _set(*ELEMENT_WITNESS, "char_poly", [-1.0, -1, 1]),
     [pointer(*ELEMENT_WITNESS, "char_poly", 0)]),
    ("analyze", SHEAR, _set("generators", 0, "distal", "certificate", "data", "factors",
                            [[1, 1], [1, 1]]), ["/generators/0/distal/certificate/data/factors"]),
    ("analyze", TRINOMIAL, _trinomial_factor_terms([[[0], 3], [[1], 1], [[2], 1]]),
     ["/group/certificate/data/common_factor/terms/0/1"]),
    # reversing the terms edits the first and the last
    ("analyze", TRINOMIAL, _trinomial_factor_terms([[[2], 1], [[1], 1], [[0], 1]]),
     ["/group/certificate/data/common_factor/terms/0/0/0",
      "/group/certificate/data/common_factor/terms/2/0/0"]),
    ("analyze", IDENTITY, _set("largest_ergodic_subgroup", "subspace", "basis", [[2, 0], [0, 3]]),
     ["/largest_ergodic_subgroup/subspace/basis/0/0",
      "/largest_ergodic_subgroup/subspace/basis/1/1"]),
    ("filtration", FIB, _chain_start([[2, 0], [0, 1]]), ["/chain/0/basis/0/0"]),
    ("analyze", LEDRAPPIER, _set("directions", 0, "direction", [1.0, 0]),
     ["/directions/0/direction/0"]),
    ("analyze", LEDRAPPIER, _set("directions", 1, "direction", [0, True]),
     ["/directions/1/direction/1"]),
    # a certificate of another kind states another kind and other data
    ("analyze", FIB, _set("generators", 0, "ergodic", {"kind": "ergodic", "certificate": {
        "kind": "trivial-univariate-content", "data": {}}}),
     ["/generators/0/ergodic/certificate/kind", "/generators/0/ergodic/certificate/data"]),
], ids=["element-power-float", "group-power-float", "group-power-true", "generator-true",
        "generator-float", "character-string", "character-pair", "char-poly-float",
        "repeated-cyclotomic-order", "coefficient-past-p", "reversed-terms",
        "scaled-largest-subgroup", "scaled-chain-start", "axis-float", "axis-true",
        "laurent-kind-in-toral-slot"])
def test_non_canonical_value_is_one_failure(tmp_path, capsys, command, doc, tamper, places):
    # each value is true but not in the encoding the CLI emits: replay
    # compares the results with the engine's type for type, and each
    # edited place is one failure
    report = fresh_report(tmp_path, capsys, command, doc)
    assert replay_report(report)["failures"] == []
    tamper(report["results"])
    assert replay_report(report)["failures"] == differs(*places)


# a box of (10**5000 * 2 + 1)**2 - 1 characters
HUGE_BOX = ("the engine refuses the input: the norm-bound (5001-digit) box in dimension 2 "
            "holds more than 1000000 characters, above the limit of 1000000")


@pytest.mark.parametrize("command,doc,flags,key,value,failure", [
    ("oracle-check", SHEAR, ORACLE_FLAGS, "norm-bound", 10 ** 5000, HUGE_BOX),
    ("oracle-check", SHEAR, ORACLE_FLAGS, "norm-bound", 2.0, FLAGS),
    ("oracle-check", SHEAR, ORACLE_FLAGS, "cap", True, FLAGS),
    ("oracle-check", SHEAR, ORACLE_FLAGS, "cap", None, FLAGS),
    ("find-ergodic", LEDRAPPIER, (), "search-box", None, FLAGS),
    ("find-ergodic", LEDRAPPIER, (), "search-box", "3", FLAGS),
    ("find-ergodic", LEDRAPPIER, (), "search-box", 2.5, FLAGS),
    ("find-ergodic", LEDRAPPIER, (), "search-box", True, FLAGS),
    ("find-ergodic", LEDRAPPIER, (), "search-box", 0, FLAGS),
    ("find-ergodic", BLOCK_PAIR, (), "search-box", "junk", FLAGS),
    ("analyze", FIB, (), "bogus", 7, FLAGS),
], ids=["norm-bound-5000-digits", "norm-bound-float", "cap-true", "cap-null",
        "search-box-null", "search-box-string", "search-box-float", "search-box-true",
        "search-box-zero", "toral-search-box-string", "analyze-flag"])
def test_malformed_flag_is_one_failure(tmp_path, capsys, command, doc, flags, key, value,
                                       failure):
    # a report states exactly the flags the CLI emits for its command, each
    # a positive int, and the flags drive the derivation: a box too large
    # to enumerate is refused as cross-validation refuses it, by its size
    report = fresh_report(tmp_path, capsys, command, doc, *flags)
    report["flags"][key] = value
    with within(1.0):
        assert replay_report(report)["failures"] == [failure]


def test_oracle_check_on_a_solenoid_fails_replay():
    # the CLI refuses oracle-check on a solenoid, and so does replay, by
    # the check cross-validation runs
    report = {"schema_version": 11, "command": "oracle-check",
              "input": {"type": "solenoid", "r": 1, "generators": [[[2]]]},
              "flags": {"cap": 200, "norm-bound": 1},
              "results": {"characters_checked": 2, "finite_orbits": 0, "exceeded": 2,
                          "failures": []}}
    assert replay_report(report) == {"checked": 1, "failures": [
        "the engine refuses the input: orbits are enumerated on tori only"]}


@pytest.mark.parametrize("key", ["characters_checked", "finite_orbits", "exceeded"],
                         ids=["characters-checked", "finite-orbits", "exceeded"])
def test_float_oracle_count_fails_replay(tmp_path, capsys, key):
    report = fresh_report(tmp_path, capsys, "oracle-check", SHEAR, *ORACLE_FLAGS)
    results = report["results"]
    results[key] = float(results[key])
    assert replay_report(report)["failures"] == differs(f"/{key}")


@pytest.mark.parametrize("factors,places", [
    (None, [""]), ([None], ["/0"]), ([[1000000000, 1]], ["/0/0", "/0/1"]),
    ([[1, 10 ** 30]], ["/0/1"]),
], ids=["null", "null-pair", "huge-order", "huge-count"])
def test_malformed_cyclotomic_factors_is_one_failure(tmp_path, capsys, factors, places):
    # no stated value is used in arithmetic, so a huge order or count
    # does not stall
    report = fresh_report(tmp_path, capsys, "analyze", SHEAR)
    data = report["results"]["generators"][0]["distal"]["certificate"]["data"]
    assert data == {"factors": [[1, 2]]}
    data["factors"] = factors
    with within(1.0):
        assert replay_report(report)["failures"] == differs(
            *("/generators/0/distal/certificate/data/factors" + place for place in places))


@pytest.mark.parametrize("doc", [FIB_IDENTITY, BLOCK_PAIR], ids=["fib-identity", "block-pair"])
def test_oracle_check_replays_standalone(tmp_path, capsys, doc):
    # a saved report re-runs cross-validation on a fresh action
    report = fresh_report(tmp_path, capsys, "oracle-check", doc, "--norm-bound", "3")
    with within(1.0):
        assert replay_report(report) == {"checked": 1, "failures": []}
    report["results"]["finite_orbits"] += 1
    with within(1.0):
        assert replay_report(report)["failures"] == differs("/finite_orbits")


def test_forged_oracle_box_past_the_limit_fails_without_enumerating(tmp_path, capsys):
    report = fresh_report(tmp_path, capsys, "oracle-check", SHEAR, *ORACLE_FLAGS)
    # a box of about 4e12 characters
    report["flags"]["norm-bound"] = 10 ** 6
    failures = replay_report(report)["failures"]
    assert any("above the limit" in failure for failure in failures)


@pytest.mark.parametrize("power", [6, 3 * 10 ** 12])
def test_witness_power_that_is_not_the_least_fails_replay(tmp_path, capsys, power):
    # 1 + u + u^2 divides u^6 - 1 as well as u^3 - 1; replay never
    # expands u^power - 1, so a huge power costs no more
    report = fresh_report(tmp_path, capsys, "analyze", TRINOMIAL)
    data = report["results"]["group"]["certificate"]["data"]
    assert data["power"] == 3
    data["power"] = power
    # the group of u alone is replayed as the translation by u
    assert replay_report(report)["failures"] == differs("/group/certificate/data/power")


def test_one_variable_group_must_be_the_verdict_of_u(tmp_path, capsys):
    # the group's verdict is the engine's verdict about the direction (1,)
    report = fresh_report(tmp_path, capsys, "analyze", TRINOMIAL)
    report["results"]["group"]["certificate"]["data"]["power"] = 6
    assert replay_report(report)["failures"] == differs("/group/certificate/data/power")


def test_common_factor_must_divide_the_power_identity(tmp_path, capsys):
    # (u1 - 1)(u2 + 1) over F_3 divides itself, and its content u1 - 1
    # along (1, 0) has t^1 = 1, but it does not divide u1 - 1: it is not
    # the common factor the engine derives
    report = fresh_report(tmp_path, capsys, "analyze", REDUCIBLE)
    data = report["results"]["directions"][0]["verdict"]["certificate"]["data"]
    assert data["power"] == 1
    data["common_factor"]["terms"] = [[[0, 0], 2], [[0, 1], 2], [[1, 0], 1], [[1, 1], 1]]
    assert replay_report(report)["failures"] == differs(
        "/directions/0/verdict/certificate/data/common_factor/terms")


@pytest.mark.parametrize("exponent", [0.5, "1", None])
def test_malformed_common_factor_is_a_failure(tmp_path, capsys, exponent):
    report = fresh_report(tmp_path, capsys, "analyze", TRINOMIAL)
    report["results"]["group"]["certificate"]["data"]["common_factor"]["terms"][0][0] = [
        exponent]
    assert replay_report(report)["failures"] == differs(
        "/group/certificate/data/common_factor/terms/0/0/0")


@pytest.mark.parametrize("key,value", [
    ("p", 0), ("p", 1), ("p", 2.0), ("p", True), ("terms", [[[0], 1.0]])])
def test_malformed_common_factor_shape_is_refused_before_arithmetic(tmp_path, capsys, key,
                                                                    value):
    # no stated value takes part in any arithmetic: reducing modulo p = 0
    # would divide by zero, and a float is not a coefficient modulo p
    report = fresh_report(tmp_path, capsys, "analyze", TRINOMIAL)
    report["results"]["group"]["certificate"]["data"]["common_factor"][key] = value
    assert replay_report(report)["failures"] == differs(
        f"/group/certificate/data/common_factor/{key}")


@pytest.mark.parametrize("key,value", [
    ("factor", None), ("factor", [1, None]), ("factor", {"x": 1}),
    ("cyclotomic_part", None), ("cyclotomic_part", [[1000000000, 1]]),
    ("cyclotomic_part", [[1, 3]]),
], ids=[f"factor-{v}-residual factor is not a polynomial" for v in ("None", "value1", "value2")]
    + [f"cyclotomic_part-{v}-cyclotomic factors are not [order, count] pairs within the rank"
       for v in ("None", "value4", "value5")])
def test_malformed_non_cyclotomic_factor_is_one_failure(tmp_path, capsys, key, value):
    # Fibonacci's characteristic polynomial has no cyclotomic part; [[1, 3]]
    # has degree 3, past the rank; each value has another shape or length
    # than the engine's
    report = fresh_report(tmp_path, capsys, "analyze", FIB)
    data = report["results"]["generators"][0]["distal"]["certificate"]["data"]
    assert data == {"factor": [-1, -1, 1], "cyclotomic_part": []}
    data[key] = value
    with within(1.0):
        assert replay_report(report)["failures"] == differs(
            f"/generators/0/distal/certificate/data/{key}")


@pytest.mark.parametrize("exponents", [[2.0, 1], ["1", 1], [1, 1, 1], [1], "11", None])
def test_malformed_exponents_are_a_failure(tmp_path, capsys, exponents):
    # a list of the engine's length differs in its first entry, and
    # anything else as a whole
    report = fresh_report(tmp_path, capsys, "find-ergodic", BLOCK_PAIR)
    assert report["results"]["exponents"] == [1, 1]
    report["results"]["exponents"] = exponents
    place = "/exponents/0" if isinstance(exponents, list) and len(exponents) == 2 else "/exponents"
    assert replay_report(report)["failures"] == differs(place)


@pytest.mark.parametrize("exponents", [[10 ** 6, 1], [-10 ** 6, 1], [0, 1]])
def test_exponents_past_the_search_bound_are_one_failure(tmp_path, capsys, exponents):
    # no power is formed from a stated exponent: 10**6 would take minutes
    report = fresh_report(tmp_path, capsys, "find-ergodic", BLOCK_PAIR)
    report["results"]["exponents"] = exponents
    with within(1.0):
        assert replay_report(report)["failures"] == differs("/exponents/0")


@pytest.mark.parametrize("direction", ["x", [1.5, 0], ["1", 0], 5, None])
def test_malformed_direction_is_a_failure(tmp_path, capsys, direction):
    # the engine finds (1, 1), so a two-item list differs in both places
    report = fresh_report(tmp_path, capsys, "find-ergodic", LEDRAPPIER)
    report["results"]["direction"] = direction
    places = ["/direction/0", "/direction/1"] if isinstance(direction, list) else ["/direction"]
    assert replay_report(report)["failures"] == differs(*places)


@pytest.mark.parametrize("direction", [5, None, "x"])
def test_malformed_axis_direction_is_a_failure(tmp_path, capsys, direction):
    report = fresh_report(tmp_path, capsys, "analyze", LEDRAPPIER)
    report["results"]["directions"][0]["direction"] = direction
    assert replay_report(report)["failures"] == differs("/directions/0/direction")


@pytest.mark.parametrize("character", [["a", 1], 5, None, [1, 2, 3]])
def test_malformed_witness_character_is_a_failure(tmp_path, capsys, character):
    # the witness is [1, 0], so ["a", 1] differs in both places, and a
    # value of another shape or length as a whole
    report = fresh_report(tmp_path, capsys, "analyze", ROTATION)
    results = report["results"]
    for verdict in (results["generators"][0]["ergodic"], results["group"]["ergodic"]):
        verdict["certificate"]["data"]["character"] = character
    places = ["/0", "/1"] if isinstance(character, list) and len(character) == 2 else [""]
    assert replay_report(report)["failures"] == differs(
        *(pointer(*witness, "character") + place
          for witness in (ELEMENT_WITNESS, GROUP_WITNESS) for place in places))


def test_witness_search_past_its_budget_is_a_failure(tmp_path, capsys, monkeypatch):
    report = fresh_report(tmp_path, capsys, "analyze", TRINOMIAL)
    monkeypatch.setattr(laurent, "MAX_WITNESS_STEPS", 0)
    failures = replay_report(report)["failures"]
    assert len(failures) == 1
    assert failures[0].startswith("the engine refuses the input: no witness power up to")


def test_witness_outside_the_kernel_of_c_fails_replay(tmp_path, capsys):
    # fib + I fixes e3 and e4; e1 is moved by the Fibonacci block, so
    # c(D) = D - I does not kill it, and it is not the engine's witness
    report = fresh_report(tmp_path, capsys, "analyze", FIB_IDENTITY)
    results = report["results"]
    witnesses = [results["generators"][0]["ergodic"], results["group"]["ergodic"]]
    for verdict in witnesses:
        assert verdict["certificate"]["data"]["character"] == [0, 0, 1, 0]
        verdict["certificate"]["data"]["character"] = [1, 0, 0, 0]
    assert replay_report(report)["failures"] == differs(
        *(pointer(*witness, "character", i)
          for witness in (ELEMENT_WITNESS, GROUP_WITNESS) for i in (0, 2)))


@pytest.mark.parametrize("slot", [ELEMENT_WITNESS, GROUP_WITNESS], ids=["element", "group"])
@pytest.mark.parametrize("character", [[-2, 0], [1000000001, 0], [0, 1]])
def test_witness_other_than_the_first_basis_vector_fails_replay(tmp_path, capsys, slot,
                                                                character):
    # the rotation's c(D) = D^2 + I is zero, so it kills every character;
    # the engine's witness is the first integral basis vector of the kernel
    report = fresh_report(tmp_path, capsys, "analyze", ROTATION)
    assert replay_report(report)["failures"] == []
    _set(*slot, "character", character)(report["results"])
    edited = [i for i, x in enumerate(character) if x != [1, 0][i]]
    assert replay_report(report)["failures"] == differs(
        *(pointer(*slot, "character", i) for i in edited))


def test_witness_orders_must_agree_with_the_minimal_polynomial_route(tmp_path, capsys,
                                                                     monkeypatch):
    # an engine that asserts nothing of its two routes: the witness
    # checks still compare them
    report = fresh_report(tmp_path, capsys, "analyze", ROTATION)
    monkeypatch.setattr(matrices.Spectrum, "minimal_poly_orders", property(lambda s: []))
    monkeypatch.setattr(toral, "_checked_spectrum", lambda b: b.spectrum)
    assert replay_report(report)["failures"] == [
        "cyclotomic division route and minimal-polynomial route disagree"] * 2


@pytest.mark.parametrize("subspace", [5, {"ambient": 2}, {"ambient": 3, "basis": []},
                                      {"ambient": 2.0, "basis": []}])
def test_malformed_largest_subgroup_is_a_failure(tmp_path, capsys, subspace):
    # the rotation's is the whole dual: a subspace with both keys differs
    # in both, and any other value as a whole
    report = fresh_report(tmp_path, capsys, "analyze", ROTATION)
    report["results"]["largest_ergodic_subgroup"]["subspace"] = subspace
    places = (["/ambient", "/basis"] if isinstance(subspace, dict) and "basis" in subspace
              else [""])
    assert replay_report(report)["failures"] == differs(
        *("/largest_ergodic_subgroup/subspace" + place for place in places))


@pytest.mark.parametrize("key,value,places", [
    ("chain", 5, ["/chain"]), ("chain", [5, 5, 5], ["/chain/0", "/chain/1", "/chain/2"]),
    ("residual", 5, [""]),
    ("chain", [{"ambient": 2, "basis": ["a"]}] * 3,
     ["/chain/0/basis", "/chain/1/basis", "/chain/2/basis"]),
    ("residual", {"ambient": 2, "basis": [["a", 1]]}, [""]),
], ids=["chain-scalar", "chain-of-scalars", "residual-scalar", "chain-basis",
        "residual-basis"])
def test_malformed_filtration_subspace_is_a_failure(tmp_path, capsys, key, value, places):
    # the chain is the whole report: a residual, which its last member
    # fixes, is a key the engine's results do not have
    report = fresh_report(tmp_path, capsys, "filtration", FIB_TWICE)
    report["results"][key] = value
    assert replay_report(report)["failures"] == differs(*places)


def test_filtration_in_the_wrong_dimension_is_a_failure(tmp_path, capsys):
    # the whole space and zero of Q^3 pass every check on their own
    # terms, but they are not subspaces of the 2-torus's dual
    report = fresh_report(tmp_path, capsys, "filtration", FIB)
    report["results"]["chain"] = [encode_subspace(Subspace.full(3)),
                                  encode_subspace(Subspace.zero(3))]
    assert replay_report(report)["failures"] == differs(
        "/chain/0/ambient", "/chain/0/basis", "/chain/1/ambient")


@pytest.mark.parametrize("chain", [
    [Subspace.full(4), Subspace.zero(4)], [Subspace.full(4), Subspace.full(4)],
], ids=["stage-quotient", "residual"])
def test_forged_filtration_chain_fails_replay(tmp_path, capsys, chain):
    # fib + I: the tail is <e3, e4>, so a tail of zero or the whole dual
    # differs from it
    report = fresh_report(tmp_path, capsys, "filtration", FIB_IDENTITY)
    results = report["results"]
    assert [len(w["basis"]) for w in results["chain"]] == [4, 2]
    results["chain"] = [encode_subspace(w) for w in chain]
    assert replay_report(report)["failures"] == differs("/chain/1/basis")


def test_filtration_with_an_empty_chain_is_a_failure(tmp_path, capsys):
    report = fresh_report(tmp_path, capsys, "filtration", FIB)
    report["results"]["chain"] = []
    assert replay_report(report)["failures"] == differs("/chain")


# A schema-8 analyze report of the 2-torus identity, as that schema
# emitted it, with the group witness's orbit, orbit size and quotient
# flag forged: schema 9 replay read none of the three and passed it.
SCHEMA_8_FORGED_ORBIT = (
    '{"command":"analyze","flags":{},"input":{"generators":[[[1,0],[0,1]]],"r":2,'
    '"type":"toral"},"results":{"generators":[{"distal":{"certificate":{"data":'
    '{"factors":[[1,2]]},"kind":"cyclotomic-char-poly"},"kind":"distal"},"ergodic":'
    '{"certificate":{"data":{"character":[1,0],"power":1,"shared_orders":[1]},'
    '"kind":"witness-character"},"kind":"not-ergodic"},"index":1,'
    '"mixing_of_all_orders":false}],"group":{"distal":{"certificate":{"data":{},'
    '"kind":"all-generators-quasi-unipotent"},"kind":"distal"},"ergodic":{"certificate":'
    '{"data":{"character":[1,0],"orbit":[[5,5]],"orbit_size":7,"power":1},'
    '"kind":"witness-character"},"kind":"not-ergodic"}},"largest_ergodic_subgroup":'
    '{"generators_quasi_unipotent_on_subspace":true,"quotient_has_no_finite_orbit":false,'
    '"subspace":{"ambient":2,"basis":[[1,0],[0,1]]}}},"schema_version":8}')
# The schema-9 filtration report of the same action.
SCHEMA_9_FILTRATION = (
    '{"command":"filtration","flags":{},"input":{"generators":[[[1,0],[0,1]]],"r":2,'
    '"type":"toral"},"results":{"attributions":[{"dim_from":2,"dim_to":2,"generator":1,'
    '"stage":1}],"chain":[{"ambient":2,"basis":[[1,0],[0,1]]},{"ambient":2,"basis":'
    '[[1,0],[0,1]]}],"dims":[2,2],"group_ergodic":false,"residual":{"ambient":2,'
    '"basis":[[1,0],[0,1]]}},"schema_version":9}')
# The schema-10 find-ergodic report of the Fibonacci torus, which states
# the element matrix the exponents fix.
SCHEMA_10_ELEMENT_MATRIX = (
    '{"command":"find-ergodic","flags":{"search-box":3},"input":{"generators":'
    '[[[0,1],[1,1]]],"r":2,"type":"toral"},"results":{"element_matrix":[[0,1],[1,1]],'
    '"exponents":[1],"verdict":{"certificate":{"data":{"char_poly":[-1,-1,1]},'
    '"kind":"no-root-of-unity-eigenvalue"},"kind":"ergodic"}},"schema_version":10}')


@pytest.mark.parametrize("text,checked,places", [
    (SCHEMA_8_FORGED_ORBIT, 5,
     ["/generators/0", "/group/ergodic/certificate/data", "/largest_ergodic_subgroup"]),
    (SCHEMA_9_FILTRATION, 1, [""]),
    (SCHEMA_10_ELEMENT_MATRIX, 1, [""]),
], ids=["schema-8-forged-orbit", "schema-9-filtration", "schema-10-element-matrix"])
def test_report_of_an_earlier_schema_fails_replay(text, checked, places):
    report = json.loads(text)
    assert replay_report(report) == {"checked": 0, "failures": ["schema version is not 11"]}
    # read as schema 11, each dict with keys the engine's results lack is
    # one failure
    report["schema_version"] = 11
    assert replay_report(report) == {"checked": checked, "failures": differs(*places)}


@pytest.mark.parametrize("version", [11.0, "11", [11]])
def test_schema_version_is_the_int(tmp_path, capsys, version):
    report = fresh_report(tmp_path, capsys, "analyze", FIB)
    report["schema_version"] = version
    assert replay_report(report) == {"checked": 0, "failures": ["schema version is not 11"]}


def _certificates(node, kind, path=()):
    """(path, certificate) for every certificate of the kind in a
    report's results, depth first."""
    if isinstance(node, dict):
        if node.get("kind") == kind and "data" in node:
            yield path, node
        for key, value in node.items():
            yield from _certificates(value, kind, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _certificates(value, kind, path + (i,))


@pytest.mark.parametrize("kind,command,doc", [
    ("no-root-of-unity-eigenvalue", "analyze", FIB),
    ("non-cyclotomic-factor", "analyze", FIB),
    ("zero-finite-orbit-subspace", "analyze", FIB),
    ("non-quasi-unipotent-generator", "analyze", FIB),
    ("witness-character", "analyze", ROTATION),
    ("cyclotomic-char-poly", "analyze", ROTATION),
    ("all-generators-quasi-unipotent", "analyze", ROTATION),
    ("trivial-univariate-content", "analyze", LEDRAPPIER),
    ("coprime-axis-powers", "analyze", LEDRAPPIER),
    ("finite-quotient-witness", "analyze", TRINOMIAL),
    ("no-root-of-unity-eigenvalue", "find-ergodic", BLOCK_PAIR),
    ("trivial-univariate-content", "find-ergodic", LEDRAPPIER),
], ids=lambda v: v if isinstance(v, str) else "")
def test_unknown_certificate_data_key_is_one_failure(tmp_path, capsys, kind, command, doc):
    report = fresh_report(tmp_path, capsys, command, doc)
    path, certificate = next(_certificates(report["results"], kind))
    data = certificate["data"]
    assert replay_report(report)["failures"] == []
    data["unchecked"] = 1
    assert replay_report(report)["failures"] == differs(pointer(*path, "data"))
    del data["unchecked"]
    if data:
        # a missing key is refused as well
        data.pop(sorted(data)[0])
        assert replay_report(report)["failures"] == differs(pointer(*path, "data"))


@pytest.mark.parametrize("strip", ["certificate", "kind"])
@pytest.mark.parametrize("command,doc,path", [
    ("analyze", FIB, ("generators", 0, "ergodic")),
    ("analyze", FIB, ("group", "distal")),
    ("analyze", LEDRAPPIER, ("group",)),
    ("find-ergodic", LEDRAPPIER, ("verdict",)),
], ids=["element", "group", "laurent-group", "found-direction"])
def test_verdict_without_certificate_or_kind_is_one_failure(tmp_path, capsys, command, doc,
                                                            path, strip):
    report = fresh_report(tmp_path, capsys, command, doc)
    verdict = report["results"]
    for step in path:
        verdict = verdict[step]
    del verdict[strip]
    assert replay_report(report)["failures"] == differs(pointer(*path))


@pytest.mark.parametrize("command,doc,flags,path", [
    ("analyze", FIB, (), ()),
    ("analyze", FIB, (), ("generators", 0)),
    ("analyze", FIB, (), ("group",)),
    ("analyze", FIB, (), ("largest_ergodic_subgroup",)),
    ("analyze", LEDRAPPIER, (), ()),
    ("analyze", LEDRAPPIER, (), ("directions", 1)),
    ("find-ergodic", BLOCK_PAIR, (), ()),
    ("find-ergodic", LEDRAPPIER, (), ()),
    ("filtration", BLOCK_PAIR, (), ()),
    ("oracle-check", FIB, ORACLE_FLAGS, ()),
    # encoded values refuse keys of their own
    ("analyze", ROTATION, (), ("largest_ergodic_subgroup", "subspace")),
    ("filtration", FIB_TWICE, (), ("chain", 1)),
    ("analyze", TRINOMIAL, (), ("group", "certificate", "data", "common_factor")),
], ids=["analyze", "generator-entry", "group", "largest-subgroup", "laurent-analyze",
        "direction-entry", "find-ergodic", "laurent-find-ergodic", "filtration",
        "oracle-check", "subspace", "chain-member", "common-factor"])
def test_unknown_results_key_is_one_failure(tmp_path, capsys, command, doc, flags, path):
    report = fresh_report(tmp_path, capsys, command, doc, *flags)
    target = report["results"]
    for step in path:
        target = target[step]
    target["unchecked"] = True
    assert replay_report(report)["failures"] == differs(pointer(*path))


def test_found_element_replaces_the_group_verdict(tmp_path, capsys):
    # find-ergodic states no group verdict: a non-ergodic group exits 3,
    # and the ergodic element found proves the group ergodic
    for doc in (BLOCK_PAIR, LEDRAPPIER):
        report = fresh_report(tmp_path, capsys, "find-ergodic", doc)
        assert "group" not in report["results"]
        assert replay_report(report) == {"checked": 1, "failures": []}


# (F + 1, F + 1) with F the Fibonacci matrix: both generators fix e3
FIB_PLUS_ONE_TWICE = {"type": "toral", "r": 3, "generators": [
    [[0, 1, 0], [1, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 1, 0], [0, 0, 1]]]}


def test_filtration_stage_must_be_the_common_kernel(tmp_path, capsys):
    # stage 1 = Q^3 keeps every stage quotient free of finite-orbit
    # characters and the tail <e3> quasi-unipotent, but it is not the
    # engine's stage 1
    report = fresh_report(tmp_path, capsys, "filtration", FIB_PLUS_ONE_TWICE)
    chain = report["results"]["chain"]
    e3 = encode_subspace(Subspace.span(3, [(0, 0, 1)]))
    assert chain == [encode_subspace(Subspace.full(3)), e3, e3]
    chain[1] = encode_subspace(Subspace.full(3))
    assert replay_report(report)["failures"] == differs("/chain/1/basis")


# (1 + u + u^4)(1 + u^3 + u^4) over F_2: both factors are primitive, so the
# least power is 15 and the common factor is the whole degree-8 presenter
TWO_PRIMITIVE_QUARTICS = {"type": "laurent", "p": 2, "d": 1, "g": [
    {"exponents": [e], "coefficient": 1} for e in (0, 1, 3, 4, 5, 7, 8)]}


def test_common_factor_must_be_the_engines(tmp_path, capsys):
    # 1 + u + u^4 divides the presenter and u^15 - 1 as well, so only the
    # derivation tells it from the engine's
    report = fresh_report(tmp_path, capsys, "analyze", TWO_PRIMITIVE_QUARTICS)
    data = report["results"]["group"]["certificate"]["data"]
    assert data["power"] == 15
    assert [e for (e,), _ in data["common_factor"]["terms"]] == [0, 1, 3, 4, 5, 7, 8]
    data["common_factor"]["terms"] = [[[0], 1], [[1], 1], [[4], 1]]
    assert replay_report(report)["failures"] == differs(
        "/group/certificate/data/common_factor/terms")


@pytest.mark.parametrize("edit,failure", [
    (lambda report: report.pop("input"), "document must declare a type"),
    (lambda report: report.update(input={"type": "toral", "r": 1, "generators": [[[2]]]}),
     "generator 1 has determinant 2"),
    # str() refuses an int of more than 4300 digits
    (lambda report: report.update(input=dict(TRINOMIAL, p=10 ** 5000)),
     "(5001-digit) is not a prime below 2**31"),
    (lambda report: report.update(input=dict(TRINOMIAL, g=[
        {"exponents": [0], "coefficient": 1}, {"exponents": [10 ** 5000], "coefficient": 1}])),
     "presenter width (5001-digit) is above the limit of 64"),
], ids=["missing", "not-unimodular", "modulus-5001-digits", "exponent-5001-digits"])
def test_invalid_input_echo_is_one_failure(tmp_path, capsys, edit, failure):
    report = fresh_report(tmp_path, capsys, "analyze", FIB)
    edit(report)
    assert replay_report(report) == {"checked": 0, "failures": [
        f"input is not a valid action document: {failure}"]}


@pytest.mark.parametrize("report,failure", [
    ([], "report is not a JSON object"),
    ("x", "report is not a JSON object"),
    (None, "report is not a JSON object"),
    ({"schema_version": 11, "command": 10 ** 5000}, "unknown command"),
    ({"schema_version": 11, "command": ["analyze"]}, "unknown command"),
], ids=["list", "string", "null", "command-5000-digits", "command-list"])
def test_malformed_report_is_one_failure(report, failure):
    # no value of the report is formatted: str() refuses an int of 5001
    # digits
    assert replay_report(report) == {"checked": 0, "failures": [failure]}


def _mutations(node):
    """Every single edit of a part of a report, as (path, value): each
    leaf set to null, a string, 10**9*x + 1, -x - 1, 10**5000 and 0, each
    list emptied, with its last item repeated and with its first two items
    swapped, and each dict emptied."""
    if isinstance(node, dict):
        yield (), {}
        for key, value in node.items():
            yield from (((key,) + path, new) for path, new in _mutations(value))
    elif isinstance(node, list):
        yield from (((), []), ((), node + node[-1:]), ((), node[1::-1] + node[2:]))
        for i, value in enumerate(node):
            yield from (((i,) + path, new) for path, new in _mutations(value))
    else:
        yield from (((), new) for new in (None, "x", 0, 10 ** 5000))
        if type(node) is int:
            yield from (((), 10 ** 9 * node + 1), ((), -node - 1))


def _mutant(report, path, value):
    mutant = json.loads(json.dumps(report))
    *steps, last = path
    target = mutant
    for step in steps:
        target = target[step]
    target[last] = value
    return mutant


@pytest.mark.parametrize("golden", GOLDEN_COMMANDS, ids=lambda g: f"{g[0]}-{g[1]}")
def test_every_golden_mutant_fails_replay(tmp_path, capsys, golden):
    # an edited report fails replay, or is the engine's report on its own
    # input echo and flags.  An edit of the results fails: those mutants
    # share one action built from the unedited echo, whose derivation is
    # cached.  An edit of the echo or the flags replays on a fresh action
    command, name, *flags = golden
    report = fresh_report(tmp_path, capsys, command, GOLDEN_DOCS[name], *flags)
    action = build_action(report["input"])
    mutants = clean = 0
    for part in ("results", "input", "flags"):
        for path, value in _mutations(report[part]):
            mutant = _mutant(report, (part,) + path, value)
            if mutant == report:
                continue  # the edit changed nothing, such as 0 set to 0
            mutants += 1
            with within(1.0):
                failures = replay_report(mutant, action if part == "results" else None)[
                    "failures"]
            if failures:
                continue
            assert part != "results", path
            clean += 1
            engine = encoded(report_results(command, build_action(mutant["input"]),
                                            mutant["flags"]))
            assert mutant["results"] == engine, (part, path)
            assert json.dumps(mutant["results"], sort_keys=True) == json.dumps(
                engine, sort_keys=True)
    assert mutants > clean
