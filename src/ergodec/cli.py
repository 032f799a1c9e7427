"""Command-line interface.

One action per input file, one canonical report per run.  Reports are
deterministic byte for byte for a fixed input and flag set: keys are
sorted, orderings are canonical, and timing goes to stderr instead of the
report body.

Exit codes: 0 success, 1 I/O failure, 2 schema or validation failure
(including a resource-limit issue: an oracle-check box too large to
enumerate), 3 hypothesis failure (the group is not ergodic, or no
Laurent direction in --search-box is ergodic), 4 certificate replay
failure under --verify-report, 5 internal check failure (two routes
that must agree did not; this is a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import encoding, laurent_engine, oracle, replay, toral
from .actions import build_action, element
from .errors import (InternalCheckError, NotErgodicGroupError, SearchExhaustedError,
                     ValidationError)
from .laurent import KMAX_CAP, axis_directions

SCHEMA_VERSION = 7


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report))


def _render_text(report: dict) -> str:
    out = []

    def walk(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            out.append(f"{pad}{key}:")
            for k in sorted(value):
                walk(k, value[k], depth + 1)
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                flat = ", ".join(_scalar_text(v) for v in value)
                out.append(f"{pad}{key}: [{flat}]")
            else:
                out.append(f"{pad}{key}:")
                for i, v in enumerate(value):
                    walk(f"[{i}]", v, depth + 1)
        else:
            out.append(f"{pad}{key}: {_scalar_text(value)}")

    for k in sorted(report):
        walk(k, report[k], 0)
    return "\n".join(out) + "\n"


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliExit(1, f"cannot read {path}: {exc.strerror}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliExit(2, f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")


class _CliExit(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _validation_exit(path: str, exc: ValidationError) -> _CliExit:
    details = "; ".join(
        f"{i.code}{list(i.where) if i.where else ''}: {i.message}" for i in exc.issues)
    return _CliExit(2, f"{path}: validation failed: {details}")


def _action_from_file(path: str):
    doc = _load_document(path)
    try:
        return doc, build_action(doc)
    except ValidationError as exc:
        raise _validation_exit(path, exc)


def cmd_analyze(args) -> dict:
    doc, action = _action_from_file(args.file)
    if action.kind in ("toral", "solenoid"):
        generators = []
        for i in range(action.n_generators):
            exps = tuple(1 if j == i else 0 for j in range(action.n_generators))
            ergodic = toral.is_ergodic_element(action, exps)
            generators.append({
                "index": i + 1,
                "ergodic": ergodic.to_payload(),
                "distal": toral.is_distal_element(action, exps).to_payload(),
                "mixing_of_all_orders": toral.mixing_flag(ergodic),
            })
        group_ergodic = toral.is_ergodic_group(action)
        group_distal = toral.is_distal_group(action)
        subspace, sub_report = toral.largest_ergodic_subgroup(action)
        results = {
            "generators": generators,
            "group": {"ergodic": group_ergodic.to_payload(),
                      "distal": group_distal.to_payload()},
            "largest_ergodic_subgroup": sub_report,
        }
    else:
        directions = []
        for direction in axis_directions(action.nvars):
            verdict = laurent_engine.direction_is_ergodic(action, direction, args.kmax)
            directions.append({"direction": list(direction),
                               "verdict": verdict.to_payload()})
        group = laurent_engine.group_is_ergodic(action, args.kmax)
        results = {"directions": directions, "group": group.to_payload()}
    return _report("analyze", doc, args, results)


def cmd_find_ergodic(args) -> dict:
    doc, action = _action_from_file(args.file)
    try:
        if action.kind in ("toral", "solenoid"):
            exps, verdict = toral.find_ergodic_exponents(action)
            results = {
                "exponents": list(exps),
                "verdict": verdict.to_payload(),
                "element_matrix": encoding.encode_matrix(element(action, exps)),
                "group": toral.is_ergodic_group(action).to_payload(),
            }
        else:
            direction, verdict = laurent_engine.find_ergodic_direction(
                action, args.search_box, args.kmax)
            results = {
                "direction": list(direction),
                "verdict": verdict.to_payload(),
                "group": laurent_engine.group_is_ergodic(action, args.kmax).to_payload(),
            }
    except NotErgodicGroupError as exc:
        raise _CliExit(3, "the group action is not ergodic: witness "
                          f"{json.dumps(exc.witness_payload, sort_keys=True)}")
    except SearchExhaustedError as exc:
        raise _CliExit(3, f"search exhausted within bound {exc.bound}")
    return _report("find-ergodic", doc, args, results)


def cmd_filtration(args) -> dict:
    doc, action = _action_from_file(args.file)
    if action.kind == "laurent":
        raise _CliExit(2, "filtration is defined for toral and solenoid actions")
    results = toral.ergodic_distal_filtration(action).to_payload()
    return _report("filtration", doc, args, results)


def cmd_oracle_check(args) -> dict:
    doc, action = _action_from_file(args.file)
    if action.kind != "toral":
        raise _CliExit(2, "oracle enumeration runs on toral actions only")
    try:
        results = oracle.cross_validate(action, args.norm_bound, args.cap)
    except ValidationError as exc:
        raise _validation_exit(args.file, exc)
    return _report("oracle-check", doc, args, results)


def _flags_payload(args) -> dict:
    skip = {"func", "file", "format", "verify_report", "command"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key.replace("_", "-")] = value
    return out


def _report(command: str, input_echo: dict, args, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": input_echo,
        "flags": _flags_payload(args),
        "results": results,
    }


def _positive_int(text: str, cap: int | None = None) -> int:
    """The type of every integer flag: anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1 or (cap is not None and value > cap):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer" + (f" up to {cap}" if cap else ""))
    return value


def _kmax(text: str) -> int:
    return _positive_int(text, KMAX_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodec",
        description="Exact ergodicity and distality decisions for commuting "
                    "automorphism groups of compact abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="action document (JSON, one action per file)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--verify-report", action="store_true",
                       help="re-parse the report and replay every certificate")
        p.set_defaults(func=func)
        return p

    p = command("analyze", cmd_analyze, "validate and run all verdicts")
    p.add_argument("--kmax", type=_kmax, default=None)
    p = command("find-ergodic", cmd_find_ergodic, "search for an ergodic element")
    p.add_argument("--kmax", type=_kmax, default=None)
    p.add_argument("--search-box", type=_positive_int, default=3)
    command("filtration", cmd_filtration, "build the ergodic-distal chain")
    p = command("oracle-check", cmd_oracle_check, "cross-validate against orbit enumeration")
    p.add_argument("--norm-bound", type=_positive_int, default=3)
    p.add_argument("--cap", type=_positive_int, default=100_000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report = args.func(args)
    except _CliExit as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 5
    if args.verify_report:
        round_tripped = json.loads(json.dumps(report, sort_keys=True))
        verification = replay.replay_report(round_tripped)
        report["verification"] = verification
        if verification["failures"]:
            _emit(report, args.format)
            sys.stderr.write("certificate replay failed\n")
            return 4
    _emit(report, args.format)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    sys.stderr.write(f"wall_time_ms={elapsed_ms}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
