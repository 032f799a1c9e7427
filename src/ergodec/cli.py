"""Command-line interface.

The command table lives in replay: one subparser per row of
replay.COMMANDS, with the row's flags.  One action per input file, built
once per run; the command's results come from replay.report_results,
which caches them on the action, so the replay of the report reads the
same derivation.  One canonical report per run, and this module maps
each outcome to its exit code.  Reports are deterministic byte for byte
for a fixed input and flag set: keys are sorted, orderings are
canonical, and timing goes to stderr instead of the report body.

Exit codes: 0 success, 1 I/O failure, 2 schema or validation failure
(including a file that is not UTF-8 JSON, a command on an action kind
it does not take, and a resource-limit issue: a torus, generator entry
or presenter too large, a cross-validation box too large to enumerate,
or a Laurent witness power past the search budget), 3 hypothesis
failure (the group is not ergodic; find-ergodic's search is total on
every kind, so it has no other failure), 4 certificate replay failure under
--verify-report, 5 internal check failure (two routes that must agree
did not, or a total search passed its bound; this is a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import replay
from .actions import build_action
from .errors import InternalCheckError, NotErgodicGroupError, ValidationError
from .replay import SCHEMA_VERSION


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
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _CliExit(1, f"cannot read {path}: {exc.strerror}")
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise _CliExit(2, f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise _CliExit(2, f"{path}: invalid JSON: {exc}")


class _CliExit(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _flags_payload(args) -> dict:
    return {flag: getattr(args, flag.replace("-", "_"))
            for flag in replay.COMMANDS[args.command].flags}


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
    for name, command in replay.COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("file", help="action document (JSON, one action per file)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--verify-report", action="store_true",
                       help="re-parse the report and replay every certificate")
        for flag, default in command.flags.items():
            p.add_argument(f"--{flag}", type=_positive_int, default=default)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    flags = _flags_payload(args)
    try:
        # one action per call: the command and the replay of its report
        # share it, and with it every value it caches, its results too
        doc = _load_document(args.file)
        action = build_action(doc)
        results = replay.report_results(args.command, action, flags)
    except _CliExit as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code
    except NotErgodicGroupError as exc:
        sys.stderr.write("the group action is not ergodic: witness "
                         f"{json.dumps(exc.witness_payload, sort_keys=True)}\n")
        return 3
    except ValidationError as exc:
        # an invalid document, or a resource limit a command ran into
        details = "; ".join(
            f"{i.code}{list(i.where) if i.where else ''}: {i.message}" for i in exc.issues)
        sys.stderr.write(f"{args.file}: validation failed: {details}\n")
        return 2
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 5
    report = {"schema_version": SCHEMA_VERSION, "command": args.command, "input": doc,
              "flags": flags, "results": replay.encoded(results)}
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
