"""Command-line interface.

One action per input file, built once per run and shared by the command
and the replay of its report; one canonical report per run.  Reports are
deterministic byte for byte for a fixed input and flag set: keys are
sorted, orderings are canonical, and timing goes to stderr instead of the
report body.

Exit codes: 0 success, 1 I/O failure, 2 schema or validation failure
(including a resource-limit issue: a torus or presenter too large, an
oracle-check box too large to enumerate, or a Laurent witness power
past the search budget), 3 hypothesis failure (the group is not
ergodic, or no Laurent direction in --search-box is ergodic), 4
certificate replay failure under --verify-report, 5 internal check
failure (two routes that must agree did not; this is a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import encoding, laurent_engine, oracle, replay, toral
from .actions import build_action, element
from .errors import (InternalCheckError, NotErgodicGroupError, SearchExhaustedError,
                     ValidationError)
from .laurent import axis_directions

SCHEMA_VERSION = 9


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
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


def cmd_analyze(args, doc: dict, action) -> dict:
    if action.kind in ("toral", "solenoid"):
        generators = []
        for i in range(action.n_generators):
            exps = tuple(1 if j == i else 0 for j in range(action.n_generators))
            ergodic = toral.is_ergodic_element(action, exps)
            generators.append({
                "index": i + 1,
                "ergodic": ergodic.to_payload(),
                "distal": toral.is_distal_element(action, exps).to_payload(),
                # a single ergodic automorphism is mixing of all orders
                "mixing_of_all_orders": ergodic.is_ergodic,
            })
        group_ergodic = toral.is_ergodic_group(action)
        group_distal = toral.is_distal_group(action)
        results = {
            "generators": generators,
            "group": {"ergodic": group_ergodic.to_payload(),
                      "distal": group_distal.to_payload()},
            "largest_ergodic_subgroup": {
                "subspace": encoding.encode_subspace(toral.largest_ergodic_subgroup(action))},
        }
    else:
        verdicts = [(direction, laurent_engine.direction_is_ergodic(action, direction))
                    for direction in axis_directions(action.nvars)]
        # a one-variable group is generated by u alone: its verdict is the axis's
        group = verdicts[0][1] if action.nvars == 1 else laurent_engine.group_is_ergodic(action)
        results = {"directions": [{"direction": list(direction), "verdict": verdict.to_payload()}
                                  for direction, verdict in verdicts],
                   "group": group.to_payload()}
    return _report("analyze", doc, args, results)


def cmd_find_ergodic(args, doc: dict, action) -> dict:
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
            direction, verdict = laurent_engine.find_ergodic_direction(action, args.search_box)
            results = {
                "direction": list(direction),
                "verdict": verdict.to_payload(),
                "group": laurent_engine.group_is_ergodic(action).to_payload(),
            }
    except NotErgodicGroupError as exc:
        raise _CliExit(3, "the group action is not ergodic: witness "
                          f"{json.dumps(exc.witness_payload, sort_keys=True)}")
    except SearchExhaustedError as exc:
        raise _CliExit(3, f"search exhausted within bound {exc.bound}")
    return _report("find-ergodic", doc, args, results)


def cmd_filtration(args, doc: dict, action) -> dict:
    if action.kind == "laurent":
        raise _CliExit(2, "filtration is defined for toral and solenoid actions")
    results = toral.ergodic_distal_filtration(action).to_payload()
    return _report("filtration", doc, args, results)


def cmd_oracle_check(args, doc: dict, action) -> dict:
    if action.kind != "toral":
        raise _CliExit(2, "oracle enumeration runs on toral actions only")
    results = oracle.cross_validate(action, args.norm_bound, args.cap)
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


def _positive_int(text: str) -> int:
    """The type of every integer flag: anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: parsing
    returns a fresh namespace each time, so no flag carries over."""
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

    command("analyze", cmd_analyze, "validate and run all verdicts")
    p = command("find-ergodic", cmd_find_ergodic, "search for an ergodic element")
    p.add_argument("--search-box", type=_positive_int, default=3)
    command("filtration", cmd_filtration, "build the ergodic-distal chain")
    p = command("oracle-check", cmd_oracle_check, "cross-validate against orbit enumeration")
    p.add_argument("--norm-bound", type=_positive_int, default=3)
    p.add_argument("--cap", type=_positive_int, default=100_000)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        # one action per call: the command and the replay of its report
        # share it, and with it every value it caches
        doc = _load_document(args.file)
        action = build_action(doc)
        report = args.func(args, doc, action)
    except _CliExit as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code
    except ValidationError as exc:
        # an invalid document, or a resource limit a command ran into
        details = "; ".join(
            f"{i.code}{list(i.where) if i.where else ''}: {i.message}" for i in exc.issues)
        sys.stderr.write(f"{args.file}: validation failed: {details}\n")
        return 2
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 5
    if args.verify_report:
        round_tripped = json.loads(json.dumps(report, sort_keys=True))
        verification = replay.replay_report(round_tripped, action)
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
