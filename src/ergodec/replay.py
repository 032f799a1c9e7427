"""The command table, each command's results derived once, and the
replay of a report.

COMMANDS has one row per command: its help line, its flags in order
with their defaults, each a positive int, the derivation of its results
from the action and flags, and its checks on the derived results.  The
CLI builds its parser from the rows, and replay reads the same rows.
find-ergodic's search-box flag is parsed and stated but read by no
derivation: both of its searches are total.
report_results derives a command's results by its row, as dicts and
lists of Verdict and Subspace values that `encoded` turns into the
report's JSON, and the action caches them per command and flags.  The
CLI builds its report from them, and replay reads a report through the
same derivation: a report replays clean only when its results equal the
engine's on its own input echo and flags, type for type, and the
independent checks pass on the derived values.  Each place where the
results differ records one failure, named by a JSON Pointer built from
the engine's keys and indices, so no report value is ever formatted or
used in arithmetic: only the input echo and the flags drive computation.

The checks are each verdict's certificate check (certificates.py), the
three properties that fix the largest ergodic subgroup, those of the
ergodic-distal chain, the width bound on a found Laurent direction, and
cross-validation's own agreement with the finite-orbit subspace.
A saved report replays against a fresh action built from its input
echo, and the CLI against the action it computed the report from, whose
caches (dual products and spectra, finite-orbit subspace, Laurent
contents and witness powers, and the results themselves) are pure
functions of the input: there the checks catch an engine fault.

On a quotient of invariant subspaces the map c(D) induces has the same
kernel as the quotient map's own cyclotomic part, since the other
factors of c have no root there.  So replay walks no orbit for the
subgroup and chain claims and splits no characteristic polynomial
beyond the generators' own, while the engine checks the same claims
through the subquotients' spectra.  oracle-check's results are
oracle.cross_validate's: a saved report re-runs it on a fresh action,
and --verify-report reads the results the CLI cached, so no orbit is
walked twice in one call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import encoding, laurent_engine, oracle, toral
from .actions import build_action
from .certificates import Verdict, check, kills
from .errors import Issue, NotErgodicGroupError, ValidationError
from .laurent import stated_axes
from .matrices import Subspace, common_kernel, induced, kernel

SCHEMA_VERSION = 11


def report_results(command: str, action, flags: dict) -> dict:
    """The command's results on the action under the flags, as the
    engines derive them, computed once per command and flags and cached
    on the action.  Raises NotErgodicGroupError or ValidationError where
    the engine refuses the input."""
    key = (command, tuple(sorted(flags.items())))
    if key not in action.results:
        action.results[key] = COMMANDS[command].derive(action, flags)
    return action.results[key]


def encoded(value):
    """Derived results as a report states them."""
    if isinstance(value, Verdict):
        return value.to_payload()
    if isinstance(value, Subspace):
        return encoding.encode_subspace(value)
    if isinstance(value, dict):
        return {key: encoded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [encoded(item) for item in value]
    return value


def _verdicts(value):
    """Every Verdict in derived results, depth first."""
    if isinstance(value, Verdict):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _verdicts(item)


def _differences(value, canonical, pointer: str):
    """The JSON Pointers, from pointer down, of the places where value
    is not canonical type for type, as JSON spells it (== takes 4.0 and
    true for 4): the deepest dict or list whose keys or length differ,
    and each differing scalar.  Only canonical's keys and indices make a
    pointer, and the root's is the empty string."""
    if type(canonical) is dict and type(value) is dict and value.keys() == canonical.keys():
        for key, item in canonical.items():
            yield from _differences(value[key], item, f"{pointer}/{key}")
    elif type(canonical) is list and type(value) is list and len(value) == len(canonical):
        for i, pair in enumerate(zip(value, canonical)):
            yield from _differences(*pair, f"{pointer}/{i}")
    elif type(value) is not type(canonical) or value != canonical:
        yield pointer


def _all_quasi_unipotent(duals, sub: Subspace) -> bool:
    """Every D is quasi-unipotent on the D-invariant sub: c(D)**r kills
    it, so it lies in D's generalized eigenspaces for roots of unity."""
    return sub.is_zero or all(kills(d.spectrum.unipotent_power, sub.basis) for d in duals)


def replay_largest_subgroup(action, derived: dict, failures: list) -> None:
    """On a torus or solenoid, the three properties that fix the largest
    ergodic subgroup's dual subspace W: (a) W is invariant, (b) every
    generator is quasi-unipotent on W, so W lies in the common kernel of
    the c(D)**n, and (c) the quotient by W has no finite-orbit character,
    as it would if W were strictly inside that kernel: the maps the c(D)
    induce on it have no common kernel."""
    if action.kind == "laurent":
        return  # a Laurent analyze states no subgroup
    sub = derived["largest_ergodic_subgroup"]["subspace"]
    duals = action.dual_generators
    invariant = all(sub.is_invariant(d) for d in duals)
    check(invariant, failures, "subspace is not invariant")
    if not invariant:
        return  # the restrictions and the quotient need it
    check(_all_quasi_unipotent(duals, sub), failures,
          "a generator is not quasi-unipotent on the subspace")
    if sub.is_full:
        return  # the quotient is zero
    full = Subspace.full(action.dim)
    common = common_kernel([induced(d.spectrum.cyclotomic_at, full, sub) for d in duals])
    check(common.is_zero, failures, "quotient has a finite-orbit character")


def replay_filtration(action, chain, failures: list) -> None:
    """The chain is the whole claim: generator i has no finite-orbit
    character on stage quotient i, and generators 1..i are quasi-unipotent
    on stage i.  By induction on i, stage i is then the common kernel of
    the c(D_j)**r for j <= i, the one the engine builds: it lies in that
    kernel, and the kernel modulo stage i would be a nonzero quotient
    inside stage quotient i on which generator i is quasi-unipotent, so
    it would hold a finite-orbit character.  The tail is the largest
    ergodic subgroup's dual subspace, zero exactly when the group is
    ergodic."""
    duals = action.dual_generators
    if len(chain) != len(duals) + 1:
        failures.append("chain does not have one stage per generator")
        return  # stage i pairs with generator i
    check(chain[0].is_full, failures, "chain does not start at the full space")
    nested = all(prev.contains_subspace(cur) for prev, cur in zip(chain, chain[1:]))
    check(nested, failures, "chain is not decreasing")
    invariant = all(w.is_invariant(d) for w in chain for d in duals)
    check(invariant, failures, "chain member is not invariant")
    if not (nested and invariant):
        return  # the stage quotients and the restriction to the tail need both
    check(all(kernel(induced(d.spectrum.cyclotomic_at, prev, cur)).is_zero
              for d, (prev, cur) in zip(duals, zip(chain, chain[1:])) if prev.dim != cur.dim),
          failures, "stage quotient has a finite-orbit character")
    check(all(_all_quasi_unipotent(duals[:i], w) for i, w in enumerate(chain)), failures,
          "a generator is not quasi-unipotent on its stage or a later one")


def _analyze(action, flags: dict) -> dict:
    if action.kind == "laurent":
        return {"directions": [
            {"direction": list(axis),
             "verdict": laurent_engine.direction_is_ergodic(action, axis)}
            for axis in stated_axes(action.nvars)],
            "group": laurent_engine.group_is_ergodic(action)}
    n = action.n_generators
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return {
        "generators": [{"ergodic": toral.is_ergodic_element(action, exps),
                        "distal": toral.is_distal_element(action, exps)} for exps in units],
        "group": {"ergodic": toral.is_ergodic_group(action),
                  "distal": toral.is_distal_group(action)},
        "largest_ergodic_subgroup": {"subspace": toral.largest_ergodic_subgroup(action)}}


def _find_ergodic(action, flags: dict) -> dict:
    if action.kind == "laurent":
        direction, verdict = laurent_engine.find_ergodic_direction(action)
        return {"direction": list(direction), "verdict": verdict}
    exps, verdict = toral.find_ergodic_exponents(action)
    return {"exponents": list(exps), "verdict": verdict}


def _replay_width_bound(action, derived: dict, failures: list) -> None:
    """A found Laurent direction lies within laurent_engine.search_bound."""
    if action.kind == "laurent":
        check(max(map(abs, derived["direction"])) <= laurent_engine.search_bound(action),
              failures, "found direction lies past the width bound")


def _filtration(action, flags: dict) -> dict:
    if action.kind == "laurent":
        raise ValidationError([Issue("schema", (),
                                     "filtration is defined for toral and solenoid actions")])
    return {"chain": list(toral.ergodic_distal_filtration(action))}


class Command(NamedTuple):
    help: str
    flags: dict  # name: default, in the order the parser adds them
    derive: Callable  # (action, flags) -> the results report_results caches
    check: Callable  # (action, derived results, failures) -> None


COMMANDS = {
    "analyze": Command("validate and run all verdicts", {}, _analyze, replay_largest_subgroup),
    "find-ergodic": Command("search for an ergodic element", {"search-box": 3},
                            _find_ergodic, _replay_width_bound),
    "filtration": Command(
        "build the ergodic-distal chain", {}, _filtration,
        lambda action, derived, failures: replay_filtration(action, derived["chain"],
                                                            failures)),
    "oracle-check": Command(
        "cross-validate against orbit enumeration", {"norm-bound": 3, "cap": 100_000},
        lambda action, flags: oracle.cross_validate(action, flags["norm-bound"], flags["cap"]),
        lambda action, derived, failures: check(
            not derived["failures"], failures,
            "cross-validation disagrees with the finite-orbit subspace")),
}


def replay_report(report, action=None) -> dict:
    """Re-check a serialized report, against the action the report was
    computed from when it is given, and otherwise against one built
    afresh from the report's input echo.  A value that is not a JSON
    object, a report of another schema version or command, flags other
    than the command's positive integers, an input echo that is not a
    valid action document, and an input the engine refuses each record
    one failure, and the report is read no further.

    Returns {"checked": n, "failures": [...]}, n the number of verdicts,
    plus one for analyze's largest ergodic subgroup, and at least one.
    """
    if not isinstance(report, dict):
        return {"checked": 0, "failures": ["report is not a JSON object"]}
    command, flags, results = (report.get(k) for k in ("command", "flags", "results"))
    if list(_differences(report.get("schema_version"), SCHEMA_VERSION, "")):
        return {"checked": 0, "failures": [f"schema version is not {SCHEMA_VERSION}"]}
    row = COMMANDS.get(command) if isinstance(command, str) else None
    if row is None:
        return {"checked": 0, "failures": ["unknown command"]}
    if not (isinstance(flags, dict) and flags.keys() == row.flags.keys()
            and all(type(v) is int and v >= 1 for v in flags.values())):
        return {"checked": 0, "failures": ["flags are not the command's positive integers"]}
    if action is None:
        try:
            action = build_action(report.get("input"))
        except ValidationError as exc:
            return {"checked": 0, "failures": [f"input is not a valid action document: {exc}"]}
    try:
        derived = report_results(command, action, flags)
    except (NotErgodicGroupError, ValidationError) as exc:
        return {"checked": 1, "failures": [f"the engine refuses the input: {exc}"]}
    failures = [f"results differ from the engine's at /results{pointer}"
                for pointer in _differences(results, encoded(derived), "")]
    verdicts = list(_verdicts(derived))
    for verdict in verdicts:
        verdict.check(action, failures)
    row.check(action, derived, failures)
    return {"checked": max(1, len(verdicts) + ("largest_ergodic_subgroup" in derived)),
            "failures": failures}
