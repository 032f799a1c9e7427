import argparse
import hashlib
import json
import subprocess
import sys
import time

import pytest

from ergodec import (LaurentPoly, Polynomial, Subspace, Verdict, actions, build_action, cli,
                     laurent, laurent_engine, matrices, oracle, replay, toral)
from ergodec.cli import main
from factories import counterexample_doc, cyclotomic_blocks_doc

CLI = [sys.executable, "-m", "ergodec.cli"]

FIB = {"type": "toral", "r": 2, "generators": [[[0, 1], [1, 1]]]}
IDENTITY = {"type": "toral", "r": 2, "generators": [[[1, 0], [0, 1]]]}
ROTATION = {"type": "toral", "r": 2, "generators": [[[0, -1], [1, 0]]]}
ROTATION_AND_MINUS_I = {"type": "toral", "r": 2,
                        "generators": [[[0, -1], [1, 0]], [[-1, 0], [0, -1]]]}
NONCOMMUTING = {"type": "toral", "r": 2,
                "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 1]]]}
BLOCK_PAIR = {"type": "toral", "r": 4, "generators": [
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]]}
F_CUBED = {"type": "toral", "r": 6, "generators": [
    [[0, 1, 0, 0, 0, 0], [1, 5, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
     [0, 0, 1, 5, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 5]]]}
# companion matrix of x^16 - 3x - 1, which has no root-of-unity root
COMPANION_16 = {"type": "toral", "r": 16, "generators": [
    [[1 if i == j + 1 else 0 for j in range(15)] + [{0: 1, 1: 3}.get(i, 0)]
     for i in range(16)]]}
# the Fibonacci block beside the rotation of order 4
FIB_ROTATION = {"type": "toral", "r": 4, "generators": [
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]]}
# companion matrix of x^64 - (2^64 + 1)x - 1, with entries inside the cap
COMPANION_64_WIDE = {"type": "toral", "r": 64, "generators": [
    [[1 if i == j + 1 else 0 for j in range(63)] + [{0: 1, 1: 2 ** 64 + 1}.get(i, 0)]
     for i in range(64)]]}
# the Fibonacci block beside a 2x2 identity
FIB_IDENTITY = {"type": "toral", "r": 4, "generators": [
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}
# one finite-order generator whose witness orbit has lcm(5, ..., 16) =
# 720720 points, and one of rank 26 with lcm(5, 7, 9, 11) = 3465
FINITE_ORDER_46 = cyclotomic_blocks_doc((5, 7, 9, 11, 13, 16))
FINITE_ORDER_26 = cyclotomic_blocks_doc((5, 7, 9, 11))
LEDRAPPIER = {"type": "laurent", "p": 2, "d": 2, "g": [
    {"exponents": [0, 0], "coefficient": 1},
    {"exponents": [1, 0], "coefficient": 1},
    {"exponents": [0, 1], "coefficient": 1}]}
# (1 + u1)(1 + u2)(1 + u1*u2)(1 + u1/u2) over F_2: every direction of
# shell 1 is parallel to a planted line, and (2, 1) leads shell 2's others
SHELL_ONE_BLOCKED = {"type": "laurent", "p": 2, "d": 2, "g": [
    {"exponents": e, "coefficient": 1}
    for e in ([0, 1], [0, 2], [1, 0], [1, 3], [2, 0], [2, 3], [3, 1], [3, 2])]}
TRINOMIAL = {"type": "laurent", "p": 2, "d": 1, "g": [
    {"exponents": [0], "coefficient": 1}, {"exponents": [1], "coefficient": 1},
    {"exponents": [2], "coefficient": 1}]}
# (F + 1, F + 1) with F the Fibonacci matrix: the chain is [Q^3, <e3>, <e3>]
FIB_PLUS_ONE_TWICE = {"type": "toral", "r": 3, "generators": [
    [[0, 1, 0], [1, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 1, 0], [0, 0, 1]]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


class TestAnalyze:
    def test_fibonacci_report(self, tmp_path):
        res = run("analyze", write(tmp_path, "fib.json", FIB))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        gen = report["results"]["generators"][0]
        assert gen.keys() == {"ergodic", "distal"}
        assert gen["ergodic"]["kind"] == "ergodic"
        assert report["results"]["group"]["ergodic"]["kind"] == "ergodic"

    def test_identity_group_witness(self, tmp_path):
        res = run("analyze", write(tmp_path, "id.json", IDENTITY))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        group = report["results"]["group"]["ergodic"]
        assert group["kind"] == "not-ergodic"
        assert group["certificate"]["data"]["character"] == [1, 0]

    def test_noncommuting_exits_2(self, tmp_path):
        res = run("analyze", write(tmp_path, "nc.json", NONCOMMUTING))
        assert res.returncode == 2
        assert "non-commuting" in res.stderr

    def test_missing_file_exits_1(self):
        res = run("analyze", "/nonexistent/action.json")
        assert res.returncode == 1

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        res = run("analyze", str(path))
        assert res.returncode == 2
        assert "invalid JSON" in res.stderr

    @pytest.mark.parametrize("content", [
        b"[" + b"1" * 5000 + b"]",
        b"[" * 200_000,
        b'{"type": "toral", "r": 1, "generators": [[[\xff]]]}',
    ], ids=["5000-digit-integer", "nested-200000", "not-utf-8"])
    def test_unparseable_file_exits_2(self, tmp_path, content):
        # each error json.loads raises on a readable file is an invalid
        # document: past the int-from-str digit limit, past the recursion
        # limit, or not UTF-8
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        res = run("analyze", str(path))
        assert res.returncode == 2
        assert "invalid JSON" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "entry", [True, "1/0", [1, 0], [True, 1], "1e200000", "0.5", " 1", "1_0"],
        ids=["bool", "string-zero-den", "pair-zero-den", "pair-bool", "exponent", "decimal",
             "space", "underscore"])
    def test_bad_scalar_exits_2(self, tmp_path, entry):
        doc = {"type": "toral", "r": 1, "generators": [[[entry]]]}
        res = run("analyze", write(tmp_path, "bad.json", doc))
        assert res.returncode == 2
        assert "schema" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("p", [10 ** 30 + 57, 7.0, "7", 0],
                             ids=["past-cap", "float", "string", "zero"])
    def test_bad_modulus_exits_2(self, tmp_path, p):
        # with Ledrappier's presenter, so the modulus is checked before
        # any arithmetic mod p
        doc = dict(LEDRAPPIER, p=p)
        res = subprocess.run(CLI + ["analyze", write(tmp_path, "p.json", doc)],
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 2
        assert "bad-modulus" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("change,code", [
        ({"g": [{"exponents": [0], "coefficient": 1.5}]}, "schema"),
        ({"g": [{"exponents": [0.7], "coefficient": 1}]}, "schema"),
        ({"g": [{"exponents": [1.9], "coefficient": 1}]}, "schema"),
        ({"g": [{"exponents": "1", "coefficient": 1}]}, "schema"),
        ({"g": [{"exponents": ["0"], "coefficient": 1}]}, "schema"),
        ({"g": [{"exponents": [True], "coefficient": 1}]}, "schema"),
        ({"g": [{"exponents": [0], "coefficient": True}]}, "schema"),
        ({"d": True}, "bad-variable-count"),
        ({"d": 1.0}, "bad-variable-count"),
    ], ids=["float-coefficient", "exponent-0.7", "exponent-1.9", "string-exponents",
            "string-exponent", "bool-exponent", "bool-coefficient", "bool-d", "float-d"])
    def test_non_integer_laurent_input_exits_2(self, tmp_path, capsys, change, code):
        # the first term of the presenter x^2 + x + 1 over F_2 is replaced
        doc = dict(TRINOMIAL, **change)
        if "g" in change:
            doc["g"] = change["g"] + TRINOMIAL["g"][1:]
        assert main(["analyze", write(tmp_path, "g.json", doc), "--verify-report"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{code}: " in captured.err and "Traceback" not in captured.err

    def test_internal_check_failure_exits_5(self, tmp_path, capsys, monkeypatch):
        # the minimal-polynomial route claims order 1, which the division
        # route rules out
        monkeypatch.setattr(matrices.Spectrum, "minimal_poly_orders",
                            property(lambda spectrum: [1]))
        assert main(["analyze", write(tmp_path, "fib.json", FIB)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: ") and err.count("\n") == 1

    def test_krylov_from_the_first_start_vector_alone_exits_5(self, tmp_path, capsys,
                                                               monkeypatch):
        # e1's Krylov space is the Fibonacci block, so without the later
        # start vectors the minimal polynomial misses the rotation's order 4
        path = write(tmp_path, "fib-rotation.json", FIB_ROTATION)
        assert main(["analyze", path, "--verify-report"]) == 0
        capsys.readouterr()
        krylov = matrices._krylov
        monkeypatch.setattr(matrices, "_krylov", lambda a, v, span: krylov(a, v, span) if v[0]
                            else Polynomial.one())
        assert main(["analyze", path]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal check failed: cyclotomic division route and "
                                "minimal-polynomial route disagree\n")

    @pytest.mark.parametrize("kind", ["toral", "solenoid"])
    @pytest.mark.parametrize("generator", [["21", "11"], {"21": 0, "11": 0}, [[2, 1], "11"]],
                             ids=["strings", "object", "string-row"])
    def test_generator_that_is_not_a_list_of_lists_exits_2(self, tmp_path, kind, generator):
        # read digit by digit, each would be the matrix [[2, 1], [1, 1]]
        doc = {"type": kind, "r": 2, "generators": [generator]}
        res = run("analyze", write(tmp_path, "bad.json", doc))
        assert res.returncode == 2
        assert res.stdout == ""
        assert "schema: generators must be lists of row lists" in res.stderr
        assert "Traceback" not in res.stderr

    def test_no_kind_holding_exits_5(self, tmp_path, capsys, monkeypatch):
        # the rotation has a root-of-unity eigenvalue, so only a witness
        # could hold, and a zero finite-orbit subspace gives none
        monkeypatch.setattr(matrices.Spectrum, "finite_orbit_subspace",
                            property(lambda spectrum: Subspace.zero(spectrum.matrix.nrows)))
        assert main(["analyze", write(tmp_path, "rotation.json", ROTATION)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal check failed: ")
        assert "no-root-of-unity-eigenvalue" in captured.err
        assert "witness-character" in captured.err

    def test_one_char_poly_per_generator(self, tmp_path, capsys, monkeypatch):
        # each dual generator's spectrum is split once, and in-process
        # replay reads the same spectra on the same action.  On a
        # finite-order action the largest ergodic subgroup and the
        # filtration's residual are the whole dual, and the restriction
        # to the whole dual is the generator itself.  On fib + I the
        # engine also splits the restriction to the identity block and,
        # in filtration, the stage quotient; replay checks both through
        # c(D) and splits neither
        calls = []
        char_poly = matrices.Matrix.char_poly
        monkeypatch.setattr(matrices.Matrix, "char_poly",
                            lambda m: calls.append(m) or char_poly(m))
        for doc, counts in [(BLOCK_PAIR, {"analyze": 2}),
                            (ROTATION, {"analyze": 1, "filtration": 1}),
                            (ROTATION_AND_MINUS_I, {"analyze": 2, "filtration": 2}),
                            (FIB_IDENTITY, {"analyze": 2, "filtration": 3})]:
            path = write(tmp_path, "action.json", doc)
            for command, count in counts.items():
                for flags in ([], ["--verify-report"]):
                    calls.clear()
                    assert main([command, path, *flags]) == 0
                    assert len(calls) == count, (doc, command, flags)
        capsys.readouterr()

    def test_verify_report_walks_no_orbit_twice(self, tmp_path, capsys, monkeypatch):
        # in-process replay reads the cross-validation the CLI cached
        calls = []
        walk_orbit = oracle.walk_orbit
        monkeypatch.setattr(oracle, "walk_orbit",
                            lambda *args, **kw: calls.append(args) or walk_orbit(*args, **kw))
        path = write(tmp_path, "fib-identity.json", FIB_IDENTITY)
        counts = []
        for flags in ([], ["--verify-report"]):
            calls.clear()
            assert main(["oracle-check", path, "--norm-bound", "2", *flags]) == 0
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] > 0 and counts[0] == counts[1]

    def test_no_cache_outlives_a_call(self, tmp_path, capsys, monkeypatch):
        # every call builds its own action, so each splits its own spectra
        calls = []
        char_poly = matrices.Matrix.char_poly
        monkeypatch.setattr(matrices.Matrix, "char_poly",
                            lambda m: calls.append(m) or char_poly(m))
        path = write(tmp_path, "pair.json", BLOCK_PAIR)
        for _ in range(2):
            calls.clear()
            assert main(["analyze", path, "--verify-report"]) == 0
            assert len(calls) == 2
        capsys.readouterr()

    def test_engine_certificate_fault_is_caught(self, tmp_path, capsys, monkeypatch):
        # replay shares the engine's action, yet re-checks each claim: a
        # witness the generator does not fix fails it
        monkeypatch.setattr(actions.MatrixAction, "witness_character",
                            lambda action, subspace: (1, 1, 1, 1))
        assert main(["analyze", write(tmp_path, "pair.json", BLOCK_PAIR),
                     "--verify-report"]) == 4
        captured = capsys.readouterr()
        assert ("witness character is not fixed by the stated power"
                in json.loads(captured.out)["verification"]["failures"])
        assert captured.err == "certificate replay failed\n"

    @pytest.mark.parametrize("command,doc,flags,target,name,fake,failure", [
        # fib + I: the largest ergodic subgroup's dual subspace is <e3, e4>
        ("analyze", FIB_IDENTITY, (), toral, "largest_ergodic_subgroup",
         lambda action: Subspace.zero(4), "quotient has a finite-orbit character"),
        ("analyze", FIB_IDENTITY, (), toral, "largest_ergodic_subgroup",
         lambda action: Subspace.full(4), "a generator is not quasi-unipotent on the subspace"),
        ("analyze", FIB_IDENTITY, (), toral, "largest_ergodic_subgroup",
         lambda action: Subspace.span(4, [(1, 0, 0, 0)]), "subspace is not invariant"),
        # fib + I with no finite-orbit character: the group reads ergodic and
        # the subgroup zero, while c(D) still kills e3 and e4
        ("analyze", FIB_IDENTITY, (), actions.MatrixAction, "finite_orbit_subspace",
         property(lambda action: Subspace.zero(action.dim)),
         "quotient has a finite-orbit character"),
        # a stage that is not the common kernel
        ("filtration", FIB_PLUS_ONE_TWICE, (), toral, "ergodic_distal_filtration",
         lambda action: (Subspace.full(3), Subspace.full(3), Subspace.span(3, [(0, 0, 1)])),
         "a generator is not quasi-unipotent on its stage or a later one"),
        ("filtration", FIB_PLUS_ONE_TWICE, (), toral, "ergodic_distal_filtration",
         lambda action: (Subspace.full(3), Subspace.span(3, [(0, 0, 1)])),
         "chain does not have one stage per generator"),
        ("filtration", FIB_PLUS_ONE_TWICE, (), toral, "ergodic_distal_filtration",
         lambda action: (Subspace.span(3, [(0, 0, 1)]),) * 3,
         "chain does not start at the full space"),
        ("filtration", FIB_PLUS_ONE_TWICE, (), toral, "ergodic_distal_filtration",
         lambda action: (Subspace.full(3), Subspace.span(3, [(0, 0, 1)]), Subspace.full(3)),
         "chain is not decreasing"),
        ("filtration", FIB_PLUS_ONE_TWICE, (), toral, "ergodic_distal_filtration",
         lambda action: (Subspace.full(3),) + (Subspace.span(3, [(1, 0, 0)]),) * 2,
         "chain member is not invariant"),
        ("filtration", FIB_PLUS_ONE_TWICE, (), toral, "ergodic_distal_filtration",
         lambda action: (Subspace.full(3),) + (Subspace.zero(3),) * 2,
         "stage quotient has a finite-orbit character"),
        # Fibonacci's residual factor x^2 - x - 1 split as x^2 - x
        ("analyze", FIB, (), matrices, "cyclotomic_split",
         lambda f, orders, split=matrices.cyclotomic_split: (
             split(f, orders)[0], split(f, orders)[1] + Polynomial.one()),
         "cyclotomic factors do not multiply back to the characteristic polynomial"),
        # 1 + u does not divide 1 + u + u^2 over F_2
        ("analyze", TRINOMIAL, (), actions.LaurentCyclicAction, "witness",
         lambda action, direction: (3, LaurentPoly.from_terms(2, 1, {(0,): 1, (1,): 1})),
         "common factor does not divide the presenter"),
        # Ledrappier's widths are 1, so its first ergodic direction lies in
        # shell 1 or 2
        ("find-ergodic", LEDRAPPIER, ("--search-box", "5"), laurent_engine,
         "find_ergodic_direction",
         lambda action: ((3, 1), laurent_engine.direction_is_ergodic(action, (3, 1))),
         "found direction lies past the width bound"),
        # every Fibonacci character taken for one with a finite orbit
        ("oracle-check", FIB, ("--norm-bound", "1", "--cap", "50"), actions.MatrixAction,
         "finite_orbit_subspace", property(lambda action: Subspace.full(action.dim)),
         "cross-validation disagrees with the finite-orbit subspace"),
        # fib + I with no finite-orbit character: those of <e3, e4> are fixed
        ("oracle-check", FIB_IDENTITY, ("--norm-bound", "1"), actions.MatrixAction,
         "finite_orbit_subspace", property(lambda action: Subspace.zero(action.dim)),
         "cross-validation disagrees with the finite-orbit subspace"),
    ], ids=["subgroup-zero", "subgroup-full", "subgroup-not-invariant",
            "group-finite-orbits-zero", "stage-not-kernel",
            "chain-length", "chain-start", "chain-not-decreasing", "chain-not-invariant",
            "stage-quotient", "multiplies-back", "common-factor", "width-bound",
            "orbit-not-closing", "finite-orbit-outside"])
    def test_engine_fault_fails_replay(self, tmp_path, capsys, monkeypatch, command, doc,
                                       flags, target, name, fake, failure):
        # the report's results equal the derivation they were built from,
        # so only the independent checks catch a faulty engine
        monkeypatch.setattr(target, name, fake)
        assert main([command, write(tmp_path, "action.json", doc), *flags,
                     "--verify-report"]) == 4
        captured = capsys.readouterr()
        assert failure in json.loads(captured.out)["verification"]["failures"]
        assert captured.err == "certificate replay failed\n"

    def test_dimension_past_the_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # refused before validation computes any determinant
        calls = []
        monkeypatch.setattr(matrices.Matrix, "det", lambda m: calls.append(m))
        identity_65 = {"type": "toral", "r": 65, "generators": [
            [[int(i == j) for j in range(65)] for i in range(65)]]}
        assert main(["analyze", write(tmp_path, "id65.json", identity_65),
                     "--verify-report"]) == 2
        captured = capsys.readouterr()
        assert "resource-limit: dimension 65 is above the limit of 64" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert calls == []

    @pytest.mark.parametrize("doc", [
        {"type": "toral", "r": 2, "generators": [[[0, 1], [1, 2 ** 128]]]},
        {"type": "solenoid", "r": 1, "generators": [[[f"1/{2 ** 128}"]]]},
    ], ids=["toral-entry", "solenoid-denominator"])
    def test_entry_past_the_bit_limit_exits_2(self, tmp_path, capsys, monkeypatch, doc):
        # refused before validation computes any determinant: route B's
        # cost grows with the entries' size
        calls = []
        monkeypatch.setattr(matrices.Matrix, "det", lambda m: calls.append(m))
        assert main(["find-ergodic", write(tmp_path, "big.json", doc), "--verify-report"]) == 2
        captured = capsys.readouterr()
        assert ("resource-limit: a generator entry of 129 bits is above the limit of 128"
                in captured.err)
        assert "Traceback" not in captured.err and captured.out == ""
        assert calls == []

    @pytest.mark.parametrize("entry", ["1" * 5000, "1/" + "3" * 5000],
                             ids=["numerator", "denominator"])
    def test_digit_run_past_the_bit_limit_exits_2(self, tmp_path, capsys, entry):
        # refused by its length: int() would refuse a string of more than
        # 4300 digits with its own message
        doc = {"type": "solenoid", "r": 1, "generators": [[[entry]]]}
        assert main(["analyze", write(tmp_path, "long.json", doc)]) == 2
        captured = capsys.readouterr()
        assert ("resource-limit: a generator entry with a run of 5000 digits is above "
                "the limit of 128 bits" in captured.err)
        assert "Traceback" not in captured.err and captured.out == ""

    def test_presenter_past_the_width_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # 1 + u + u^1000000 is refused before any content is computed
        calls = []
        monkeypatch.setattr(actions, "content_along", lambda *args: calls.append(args))
        doc = {"type": "laurent", "p": 2, "d": 1, "g": [
            {"exponents": [e], "coefficient": 1} for e in (0, 1, 10 ** 6)]}
        started = time.monotonic()
        assert main(["analyze", write(tmp_path, "wide.json", doc), "--verify-report"]) == 2
        assert time.monotonic() - started < 1
        captured = capsys.readouterr()
        assert ("resource-limit: presenter width 1000000 is above the limit of 64"
                in captured.err)
        assert "Traceback" not in captured.err and captured.out == ""
        assert calls == []

    @pytest.mark.parametrize("command", ["analyze", "find-ergodic"])
    def test_witness_search_past_its_budget_exits_2(self, tmp_path, capsys, monkeypatch,
                                                     command):
        # 1 + u + u^6 is primitive over F_2: its least power is 63
        monkeypatch.setattr(laurent, "MAX_WITNESS_STEPS", 100)
        doc = {"type": "laurent", "p": 2, "d": 1, "g": [
            {"exponents": [e], "coefficient": 1} for e in (0, 1, 6)]}
        assert main([command, write(tmp_path, "sextic.json", doc), "--verify-report"]) == 2
        captured = capsys.readouterr()
        assert "resource-limit: no witness power up to" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_degree_16_primitive_is_decided(self, tmp_path, capsys):
        # x^16 + x^14 + x^13 + x^11 + 1 is primitive over F_2
        doc = {"type": "laurent", "p": 2, "d": 1, "g": [
            {"exponents": [e], "coefficient": 1} for e in (0, 11, 13, 14, 16)]}
        assert main(["analyze", write(tmp_path, "deg16.json", doc), "--verify-report"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["group"]["certificate"]["data"]["power"] == 65535
        assert report["verification"]["failures"] == []

    def test_laurent_analyze(self, tmp_path):
        res = run("analyze", write(tmp_path, "led.json", LEDRAPPIER))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["results"]["group"]["kind"] == "ergodic"
        kinds = {tuple(d["direction"]): d["verdict"]["kind"]
                 for d in report["results"]["directions"]}
        assert kinds == {(1, 0): "ergodic", (0, 1): "ergodic"}

    def test_one_variable_group_reuses_the_axis_verdict(self, tmp_path, capsys,
                                                        monkeypatch):
        # the group of u alone has the verdict of direction (1,), stated
        # once: one witness search, cached on the action, serves the
        # engine and replay
        calls = []
        real = actions.witness_power

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(actions, "witness_power", counted)
        assert main(["analyze", write(tmp_path, "tri.json", TRINOMIAL), "--verify-report"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert len(calls) == 1
        assert results["directions"] == []
        assert results["group"]["certificate"]["data"]["power"] == 3

    def test_json_is_one_compact_line(self, tmp_path):
        res = run("analyze", write(tmp_path, "led.json", LEDRAPPIER))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert res.stdout == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"

    def test_text_format(self, tmp_path):
        res = run("analyze", write(tmp_path, "fib.json", FIB), "--format", "text")
        assert res.returncode == 0
        assert "command: analyze" in res.stdout


class TestFindErgodic:
    def test_block_pair(self, tmp_path):
        res = run("find-ergodic", write(tmp_path, "bp.json", BLOCK_PAIR))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["results"]["exponents"] == [1, 1]

    def test_ledrappier_direction(self, tmp_path):
        res = run("find-ergodic", write(tmp_path, "led.json", LEDRAPPIER))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["results"]["direction"] == [1, 1]  # first in shell 1, exactly
        assert report["results"] == {"direction": [1, 1], "verdict": {
            "kind": "ergodic", "certificate": {
                "kind": "trivial-univariate-content", "data": {}}}}

    def test_identity_exits_3(self, tmp_path):
        res = run("find-ergodic", write(tmp_path, "id.json", IDENTITY))
        assert res.returncode == 3

    def test_exhausted_bound_is_an_internal_failure(self, tmp_path, capsys, monkeypatch):
        # an ergodic group always has an ergodic element within the bound
        never = Verdict("witness-character", {"character": [1, 0, 0, 0], "power": 1})
        monkeypatch.setattr(toral, "is_ergodic_element", lambda action, exps: never)
        assert main(["find-ergodic", write(tmp_path, "bp.json", BLOCK_PAIR)]) == 5
        assert "no ergodic element within coordinate sum 6" in capsys.readouterr().err

    def test_exhausted_width_bound_is_an_internal_failure(self, tmp_path, capsys,
                                                          monkeypatch):
        # an ergodic two-variable group always has an ergodic direction
        # within one shell past the smaller width, 1 for Ledrappier
        never = Verdict("finite-quotient-witness", {
            "power": 1, "common_factor": {"p": 2, "vars": 2, "terms": [[[0, 0], 1]]}})
        monkeypatch.setattr(laurent_engine, "direction_is_ergodic",
                            lambda action, direction: never)
        assert main(["find-ergodic", write(tmp_path, "led.json", LEDRAPPIER)]) == 5
        assert "no ergodic direction within shell 2" in capsys.readouterr().err

    def test_search_past_the_box_replays_clean(self, tmp_path, capsys):
        # the flag bounds no search: with shell 1 blocked, a box of 1 still
        # finds (2, 1), and the saved report replays on a fresh action
        assert main(["find-ergodic", write(tmp_path, "blocked.json", SHELL_ONE_BLOCKED),
                     "--search-box", "1", "--verify-report"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["direction"] == [2, 1]
        assert report["flags"] == {"search-box": 1}
        assert report.pop("verification") == {"checked": 1, "failures": []}
        assert replay.replay_report(report) == {"checked": 1, "failures": []}


def chain_dims(report) -> list:
    """The dimensions of a filtration report's chain, which is all it states."""
    assert list(report["results"]) == ["chain"]
    return [len(w["basis"]) for w in report["results"]["chain"]]


class TestFiltration:
    def test_block_pair_dims(self, tmp_path):
        res = run("filtration", write(tmp_path, "bp.json", BLOCK_PAIR))
        assert res.returncode == 0
        assert chain_dims(json.loads(res.stdout)) == [4, 2, 0]

    def test_identity_residual(self, tmp_path):
        # the residual is the whole dual: the group is not ergodic
        res = run("filtration", write(tmp_path, "id.json", IDENTITY))
        assert chain_dims(json.loads(res.stdout)) == [2, 2]

    def test_fibonacci(self, tmp_path):
        res = run("filtration", write(tmp_path, "fib.json", FIB))
        assert chain_dims(json.loads(res.stdout)) == [2, 0]

    def test_laurent_rejected(self, tmp_path):
        res = run("filtration", write(tmp_path, "led.json", LEDRAPPIER))
        assert res.returncode == 2


class TestOracleCheckAndDemo:
    def test_fibonacci_box(self, tmp_path):
        res = run("oracle-check", write(tmp_path, "fib.json", FIB),
                  "--norm-bound", "3", "--cap", "100000")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["results"]["characters_checked"] == 48
        assert report["results"]["failures"] == []

    @pytest.mark.parametrize("doc", [{"type": "solenoid", "r": 1, "generators": [[[2]]]},
                                     LEDRAPPIER], ids=["solenoid", "laurent"])
    def test_action_that_is_not_toral_exits_2(self, tmp_path, capsys, doc):
        assert main(["oracle-check", write(tmp_path, "action.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema: " in captured.err and "Traceback" not in captured.err

    def test_box_past_the_limit_exits_2(self, tmp_path):
        identity_12 = {"type": "toral", "r": 12, "generators": [
            [[int(i == j) for j in range(12)] for i in range(12)]]}
        res = run("oracle-check", write(tmp_path, "id12.json", identity_12))
        assert res.returncode == 2
        assert "resource-limit" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_product_counterexample_steps_outside_the_box(self, tmp_path):
        res = run("find-ergodic", write(tmp_path, "product_r2.json", counterexample_doc(2)),
                  "--verify-report")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["results"]["exponents"] == [1, 3]
        assert report["verification"]["failures"] == []

    def test_product_counterexample_generators_not_ergodic(self, tmp_path):
        res = run("analyze", write(tmp_path, "product_r1.json", counterexample_doc(1)))
        assert res.returncode == 0
        results = json.loads(res.stdout)["results"]
        assert [g["ergodic"]["kind"] for g in results["generators"]] == ["not-ergodic"] * 2
        assert results["group"]["ergodic"]["kind"] == "ergodic"


def _integer_options():
    """(subcommand, flag) for every option of the parser that takes a
    typed value; all of them are integers."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, sub in subparsers.choices.items()
            for a in sub._actions if a.option_strings and a.type is not None]


class TestParserReuse:
    def test_each_call_parses_afresh(self, tmp_path, capsys):
        # one parser serves every call of main in a process: a rejected
        # flag, then each command with non-default flags and with none
        fib = write(tmp_path, "fib.json", FIB)
        led = write(tmp_path, "led.json", LEDRAPPIER)
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", fib, "--cap", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        calls = [
            (["analyze", fib, "--format", "text", "--verify-report"], None),
            (["analyze", fib], {}),
            (["find-ergodic", led, "--search-box", "5", "--verify-report"], {"search-box": 5}),
            (["find-ergodic", led], {"search-box": 3}),
            (["filtration", fib, "--verify-report"], {}),
            (["filtration", fib], {}),
            (["oracle-check", fib, "--norm-bound", "1", "--cap", "50"],
             {"norm-bound": 1, "cap": 50}),
            (["oracle-check", fib], {"norm-bound": 3, "cap": 100_000}),
        ]
        for argv, flags in calls:
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == run(*argv).stdout
            if flags is not None:
                report = json.loads(out)
                assert report["flags"] == flags
                assert ("verification" in report) == ("--verify-report" in argv)


class TestFlagValidation:
    def test_integer_flags_are_found(self):
        assert {("find-ergodic", "--search-box"), ("oracle-check", "--cap"),
                ("oracle-check", "--norm-bound")} <= set(_integer_options())

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command,flag", _integer_options())
    def test_non_positive_exits_2(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, write(tmp_path, "fib.json", FIB), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: '{value}' is not a positive integer" in err
        assert "Traceback" not in err


SHEAR = {"type": "toral", "r": 2, "generators": [[[1, 1], [0, 1]]]}
HALVES = {"type": "solenoid", "r": 1, "generators": [[["3/2"]]]}
# the block pair conjugated by diag(1/2, 3, 2/5, 1), and by that matrix
# with 1 added at (1, 3) and (3, 2), which mixes the blocks: the second's
# witness characters and filtration chain have rational rows
RATIONAL_PAIR = {"type": "solenoid", "r": 4, "generators": [
    [[0, "1/6", 0, 0], [6, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, "2/5"], [0, 0, "5/2", 1]]]}
MIXED_PAIR = {"type": "solenoid", "r": 4, "generators": [
    [[0, "-2/3", "5/2", 0], [6, 6, -15, 0], [2, "5/3", -4, 0], [0, 0, 0, 1]],
    [[1, "5/6", "-5/2", 1], [0, 1, 0, 0], [0, "1/3", 0, "2/5"], [0, "-5/6", "5/2", 1]]]}
# Phi_3 + Phi_4 blocks: every cycle has length at most lcm(3, 4) = 12 = M(4)
PHI3_PHI4 = {"type": "toral", "r": 4, "generators": [
    [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]]}
# a quarter turn, a hyperbolic block and -1: finite cycles beside infinite ones
TRIPLE = {"type": "toral", "r": 4, "generators": [
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]],
    [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]]}
PINNED_DOCS = {"fib": FIB, "identity": IDENTITY, "block_pair": BLOCK_PAIR, "shear": SHEAR,
               "halves": HALVES, "product_r1": counterexample_doc(1),
               "rational_pair": RATIONAL_PAIR, "mixed_pair": MIXED_PAIR,
               "phi3_phi4": PHI3_PHI4, "triple": TRIPLE}


class TestPinnedReports:
    """Toral, solenoid and oracle reports, with their replay, digested as
    parsed objects without `schema_version`: a schema bump for the Laurent
    certificates or the JSON layout leaves every one of them as it was."""

    @pytest.mark.parametrize("args,digest", [
        (("analyze", "fib"), "1eb4e6980933cebe"),
        (("analyze", "identity"), "32b6004f1e54f8cf"),
        (("analyze", "block_pair"), "87228c2371d57c2b"),
        (("analyze", "shear"), "fe078735e3a58527"),
        (("analyze", "halves"), "b4a269e4d6b29824"),
        (("analyze", "rational_pair"), "b627815ef5d36b17"),
        (("analyze", "mixed_pair"), "de66b21af0d0694f"),
        (("find-ergodic", "fib"), "a96a779ddeda00f5"),
        (("find-ergodic", "block_pair"), "395db0a0adfa191c"),
        (("find-ergodic", "halves"), "94afee40986f4d02"),
        (("find-ergodic", "product_r1"), "0f23078a99566ac7"),
        (("find-ergodic", "rational_pair"), "aba0415e04dd5e2c"),
        (("find-ergodic", "mixed_pair"), "2aeb0358db9a07c3"),
        (("filtration", "block_pair"), "26dfb69f70fad457"),
        (("filtration", "shear"), "168ff693cea71eac"),
        (("filtration", "halves"), "1f802debbb93145a"),
        (("filtration", "rational_pair"), "c8d9db46bfc88c88"),
        (("filtration", "mixed_pair"), "47eaa8d10d5812f3"),
        (("oracle-check", "block_pair", "--norm-bound", "1"), "36d0445bf5b278f7"),
        (("oracle-check", "shear", "--norm-bound", "2", "--cap", "200"), "24c4c877697b4c77"),
        (("oracle-check", "phi3_phi4", "--norm-bound", "1", "--cap", "100"), "0233038031d8560b"),
        (("oracle-check", "triple", "--norm-bound", "1", "--cap", "200"), "0315457964060864"),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else "")
    def test_report_object_is_unchanged(self, tmp_path, capsys, args, digest):
        command, name, *flags = args
        path = write(tmp_path, f"{name}.json", PINNED_DOCS[name])
        assert main([command, path, *flags, "--verify-report"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("schema_version") == cli.SCHEMA_VERSION
        blob = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest


class TestDeterminismAndVerification:
    @pytest.mark.parametrize("args", [
        ("analyze",), ("find-ergodic",), ("filtration",),
        ("oracle-check", "--norm-bound", "2"),
    ])
    def test_byte_identical_reruns(self, tmp_path, args):
        doc = write(tmp_path, "fib.json", FIB)
        first = run(args[0], doc, *args[1:])
        second = run(args[0], doc, *args[1:])
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_product_counterexample_byte_identical(self, tmp_path):
        doc = write(tmp_path, "product_r1.json", counterexample_doc(1))
        first = run("find-ergodic", doc)
        assert first.returncode == 0
        assert json.loads(first.stdout)["results"]["exponents"] == [1, 2]
        assert first.stdout == run("find-ergodic", doc).stdout

    @pytest.mark.parametrize("command,doc", [
        ("analyze", FIB), ("analyze", IDENTITY), ("analyze", LEDRAPPIER),
        ("find-ergodic", BLOCK_PAIR), ("find-ergodic", LEDRAPPIER),
        ("filtration", BLOCK_PAIR),
    ])
    def test_verify_report_replays_cleanly(self, tmp_path, command, doc):
        path = write(tmp_path, "action.json", doc)
        res = run(command, path, "--verify-report")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["verification"]["failures"] == []
        assert report["verification"]["checked"] >= 1


class TestRankWall:
    def test_block_cube_replays(self, tmp_path):
        res = run("analyze", write(tmp_path, "f3.json", F_CUBED), "--verify-report")
        assert res.returncode == 0
        assert json.loads(res.stdout)["verification"]["failures"] == []

    def test_rank_16_companion_analyze(self, tmp_path):
        res = run("analyze", write(tmp_path, "c16.json", COMPANION_16), "--verify-report")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["results"]["generators"][0]["ergodic"]["kind"] == "ergodic"
        assert report["verification"]["failures"] == []

    def test_finite_order_rank_46_replays_without_walking_the_orbit(self, tmp_path, capsys):
        # the witness orbit has 720720 points; replay checks c(D) chi = 0,
        # and still checks the power
        started = time.monotonic()
        assert main(["analyze", write(tmp_path, "r46.json", FINITE_ORDER_46),
                     "--verify-report"]) == 0
        assert time.monotonic() - started < 5
        report = json.loads(capsys.readouterr().out)
        data = report["results"]["group"]["ergodic"]["certificate"]["data"]
        assert data == {"character": [1] + [0] * 45, "power": 720720}
        assert report.pop("verification")["failures"] == []
        action = build_action(FINITE_ORDER_46)
        for power in (360360, 1441440):
            data["power"] = power
            assert replay.replay_report(report, action)["failures"] == [
                "results differ from the engine's at "
                "/results/group/ergodic/certificate/data/power"]

    def test_wide_rank_64_companion_analyze_is_fast(self, tmp_path, capsys):
        # one Krylov chain of length 64; one determinant per candidate
        # order took about 8 s on a 2-CPU host
        started = time.monotonic()
        assert main(["analyze", write(tmp_path, "c64.json", COMPANION_64_WIDE),
                     "--verify-report"]) == 0
        assert time.monotonic() - started < 3
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["generators"][0]["ergodic"]["kind"] == "ergodic"
        assert report["verification"]["failures"] == []

    def test_radius_3_counterexample_find_ergodic_is_fast(self, tmp_path, capsys):
        # rank 32: each element's Krylov chains stay inside its 16 diagonal
        # blocks; one determinant per candidate order took about 1.5 s
        started = time.monotonic()
        assert main(["find-ergodic", write(tmp_path, "ce3.json", counterexample_doc(3)),
                     "--verify-report"]) == 0
        assert time.monotonic() - started < 1
        assert json.loads(capsys.readouterr().out)["verification"]["failures"] == []

    def test_finite_order_rank_26_report_is_small(self, tmp_path, capsys):
        # the witness is one character, not its 3465-point orbit
        assert main(["analyze", write(tmp_path, "r26.json", FINITE_ORDER_26)]) == 0
        assert len(capsys.readouterr().out) < 10_000

    def test_rank_16_companion_filtration(self, tmp_path):
        res = run("filtration", write(tmp_path, "c16.json", COMPANION_16), "--verify-report")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert chain_dims(report) == [16, 0]
        assert report["verification"]["failures"] == []
