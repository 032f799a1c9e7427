import json

import pytest

from ergodec import Subspace
from ergodec.cli import main
from ergodec.encoding import encode_subspace
from ergodec.replay import replay_report

ROTATION = {"type": "toral", "r": 2, "generators": [[[0, -1], [1, 0]]]}
FIB = {"type": "toral", "r": 2, "generators": [[[0, 1], [1, 1]]]}
BLOCK_PAIR = {"type": "toral", "r": 4, "generators": [
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]]}
FIB_IDENTITY = {"type": "toral", "r": 4, "generators": [
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}


def fresh_report(tmp_path, capsys, command, doc):
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_non_invariant_chain_member_is_a_failure(tmp_path, capsys):
    report = fresh_report(tmp_path, capsys, "filtration", BLOCK_PAIR)
    assert replay_report(report)["failures"] == []
    report["results"]["chain"][1] = encode_subspace(
        Subspace.span(4, [(1, 0, 0, 0), (0, 0, 1, 0)]))
    assert "chain member is not invariant" in replay_report(report)["failures"]


def _drop_last_order(results):
    results["generators"][0]["ergodic"]["certificate"]["data"]["orders_checked"].pop()


def _forged_not_distal_rotation(results):
    verdict = results["generators"][0]["distal"]
    verdict["kind"] = "not-distal"
    verdict["certificate"] = {"kind": "non-cyclotomic-factor", "data": {
        "factor": [1, 0, 1], "cyclotomic_part": [], "orders_checked": [1]}}


def _rotation_witness_power_three(results):
    data = results["generators"][0]["ergodic"]["certificate"]["data"]
    assert data["power"] == 4
    data["power"] = 3


def _group_witness_power_two(results):
    data = results["group"]["ergodic"]["certificate"]["data"]
    assert data["power"] == 4
    data["power"] = 2  # the rotation squared is -I, which moves every character


@pytest.mark.parametrize("doc,tamper", [
    (FIB, _drop_last_order),
    (ROTATION, _forged_not_distal_rotation),
    (ROTATION, _rotation_witness_power_three),
    (ROTATION, _group_witness_power_two),
], ids=["ergodic-orders-checked", "distal-orders-checked", "element-witness-power",
        "group-witness-power"])
def test_tampered_certificate_fails_replay(tmp_path, capsys, doc, tamper):
    report = fresh_report(tmp_path, capsys, "analyze", doc)
    assert replay_report(report)["failures"] == []
    tamper(report["results"])
    assert replay_report(report)["failures"]


@pytest.mark.parametrize("forged,failure", [
    (Subspace.zero(4), "quotient has a finite-orbit character"),
    (Subspace.span(4, [(0, 0, 1, 0)]), "quotient has a finite-orbit character"),
    (Subspace.full(4), "a generator is not quasi-unipotent on the subspace"),
], ids=["zero", "span-e3", "full"])
def test_forged_largest_subgroup_fails_replay(tmp_path, capsys, forged, failure):
    report = fresh_report(tmp_path, capsys, "analyze", FIB_IDENTITY)
    results = report["results"]
    assert results["largest_ergodic_subgroup"]["subspace"] == encode_subspace(
        Subspace.span(4, [(0, 0, 1, 0), (0, 0, 0, 1)]))
    assert replay_report(report)["failures"] == []
    results["largest_ergodic_subgroup"]["subspace"] = encode_subspace(forged)
    assert replay_report(report)["failures"] == [failure]
