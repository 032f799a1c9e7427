"""Certificate replay: re-check every claim in a report using only the
exact-arithmetic core.  A report that round-trips through JSON carries
everything needed to re-derive its own verdicts, and each check records
a failure entry or nothing.  Each kind's certificate data is derived in
one place, here, for the engines and replay alike.

CERTIFICATES has one row per certificate kind, which Verdict and
replay_verdict read: the verdict it proves, the slots that may hold it
(element-ergodic, element-distal, group-ergodic, group-distal, found,
direction, found-direction, laurent-group), its data keys, its
derivation of the data from the action and the slot's subject, which the
engines build each verdict with (Verdict.of), and its check of what the
derivation does not fix: route A against route B, c(D) against the
witness, the factors against the characteristic polynomial, the common
factor against the presenter.  The report's data must equal the
derivation key by key, type for type, so 4.0 and true are no power and a
hostile value costs one structural compare.  A subspace or flag is read
only in its canonical encoding: encoding it again must give it back.

A saved report replays against a fresh action built from its input
echo, and the CLI against the action it computed the report from, whose
caches (dual products and spectra, finite-orbit subspace, Laurent
contents and witness powers) are pure functions of the input: there the
derivations are the engine's own, and the checks catch an engine fault.

Every finite-orbit and quasi-unipotence claim about a toral or solenoid
report is checked with a generator's own c(D) and c(D)**r, c the
product of D's distinct cyclotomic factors, which the spectrum caches:
a character has a finite D-orbit exactly when c(D) kills it, and D is
quasi-unipotent on an invariant subspace exactly when c(D)**r kills it.
On a quotient of invariant subspaces the map c(D) induces has the same
kernel as the quotient map's own cyclotomic part, since the other
factors of c have no root there.  So replay walks no orbit for these
claims and splits no characteristic polynomial beyond the generators'
own, while the engine checks the same claims through the subquotients'
spectra.  Only the oracle-check counts take a walk: each box character
in the finite-orbit subspace must close its orbit within the cap, under
oracle.walk_orbit over oracle.orbit_maps, the compiled maps
cross-validation walks, and without the coordinate guard.

A report states each claim once.  Replay reads schema version
SCHEMA_VERSION only, and records a failure for any key of the results,
their entries, certificate data, subspaces or Laurent polynomials that
the CLI does not emit: a key replay does not read would be taken on trust.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import encoding
from .actions import build_action, dual_element, ergodic_search_bound, positive_vectors
from .errors import InternalCheckError, ValidationError
from .intpoly import cyclotomic_product
from .laurent import directions_in_shell, laurent_divides, stated_axes
from .matrices import Matrix, Subspace, induced, kernel
from .oracle import box_characters, box_issue, orbit_maps, walk_orbit

SCHEMA_VERSION = 11

# The results the CLI emits, by command and whether the action is a
# Laurent one: a dict fixes its keys, a one-item list each entry's, and
# None admits any value (a verdict's shape is its certificate kind's).
_RESULTS = {
    ("analyze", False): {
        "generators": [dict.fromkeys(("ergodic", "distal"))],
        "group": dict.fromkeys(("ergodic", "distal")),
        "largest_ergodic_subgroup": {"subspace": None}},
    ("analyze", True): {"directions": [dict.fromkeys(("direction", "verdict"))], "group": None},
    ("find-ergodic", False): dict.fromkeys(("exponents", "verdict")),
    ("find-ergodic", True): dict.fromkeys(("direction", "verdict")),
    ("filtration", False): {"chain": None},
    ("oracle-check", False): dict.fromkeys(
        ("characters_checked", "finite_orbits", "exceeded", "failures")),
}
# The flags the CLI emits, by command: each is a positive int.
_FLAGS = {"analyze": (), "find-ergodic": ("search-box",), "filtration": (),
          "oracle-check": ("norm-bound", "cap")}


def _fits(value, template) -> bool:
    if isinstance(template, dict):
        return (isinstance(value, dict) and value.keys() == template.keys()
                and all(_fits(value[k], t) for k, t in template.items()))
    if isinstance(template, list):
        return isinstance(value, list) and all(_fits(v, template[0]) for v in value)
    return True


def _check(condition: bool, failures: list, what: str) -> None:
    if not condition:
        failures.append(what)


def _same(value, canonical) -> bool:
    """value is canonical type for type, as JSON spells it: == takes 4.0 and true for 4."""
    if type(canonical) is list:
        return (type(value) is list and len(value) == len(canonical)
                and all(map(_same, value, canonical)))
    if type(canonical) is dict:
        return (type(value) is dict and value.keys() == canonical.keys()
                and all(_same(value[k], canonical[k]) for k in canonical))
    return type(value) is type(canonical) and value == canonical


def _decoded(raw, decode, encode, action):
    """raw decoded against the action, or None unless encode gives it back."""
    try:
        value = decode(raw, action)
        return value if _same(raw, encode(value)) else None
    except (TypeError, ValueError, KeyError):
        return None


def _positive(raw, action) -> int:
    if type(raw) is not int or raw < 1:
        raise ValueError("not a positive integer")
    return int(str(raw))  # str() raises past the digit limit within which the CLI reads flags


def _subspace(raw, action) -> Subspace:
    """In the dual's dimension, checked before any row is reduced."""
    if not _same(raw["ambient"], action.dim):
        raise ValueError("not a subspace of the dual")
    return Subspace.span(action.dim, [encoding.decode_vector(v) for v in raw["basis"]])


def _kills(m: Matrix, vectors) -> bool:
    """m sends every one of the vectors to zero."""
    return all(not any(m.matvec(v)) for v in vectors)


def _all_quasi_unipotent(duals, sub: Subspace) -> bool:
    """Every D is quasi-unipotent on the D-invariant sub: c(D)**r kills
    it, so it lies in D's generalized eigenspaces for roots of unity."""
    return sub.is_zero or all(_kills(d.spectrum.unipotent_power, sub.basis) for d in duals)


def _no_root_of_unity(action, about):
    spectrum = about[0].spectrum
    return None if spectrum.orders else {"char_poly": encoding.encode_poly(spectrum.char_poly)}


def _routes_agree(action, duals, failures) -> None:
    _check(all(d.spectrum.singular_orders == d.spectrum.orders for d in duals), failures,
           "cyclotomic division route and determinant route disagree")


def _fixed(action, duals) -> Subspace:
    """The characters with a finite orbit under the duals: an element's
    spectrum caches its own, and the action caches the group's."""
    return (duals[0].spectrum.finite_orbit_subspace if len(duals) == 1
            else action.finite_orbit_subspace)


def _witness(action, duals):
    """The witness character of the group the duals generate,
    MatrixAction.witness_character of their finite-orbit subspace, and
    the lcm of their root-of-unity orders as the power that fixes it."""
    fixed = _fixed(action, duals)
    return None if fixed.is_zero else {
        "character": encoding.encode_vector(action.witness_character(fixed)),
        "power": math.lcm(*(o for d in duals for o in d.spectrum.orders))}


def _witness_fixed(action, duals, failures) -> None:
    """c(D) kills the witness for each D.  Then each D**power fixes it, as
    c divides x**power - 1 and its cofactor is invertible at D."""
    _routes_agree(action, duals, failures)
    chi = action.witness_character(_fixed(action, duals))
    _check(all(_kills(d.spectrum.cyclotomic_at, [chi]) for d in duals), failures,
           "witness character is not fixed by the stated power")


def _cyclotomic_char_poly(action, about):
    spectrum = about[0].spectrum
    return {"factors": encoding.encode_factors(spectrum.factors)} if spectrum.rest.is_one else None


def _non_cyclotomic_factor(action, about):
    spectrum = about[0].spectrum
    return None if spectrum.rest.is_one else {
        "factor": encoding.encode_poly(spectrum.rest),
        "cyclotomic_part": encoding.encode_factors(spectrum.factors)}


def _multiplies_back(action, about, failures) -> None:
    spectrum = about[0].spectrum
    _check(cyclotomic_product(spectrum.factors) * spectrum.rest == spectrum.char_poly,
           failures, "cyclotomic factors do not multiply back to the characteristic polynomial")


def _first_non_distal(action, duals):
    distal = [d.spectrum.rest.is_one for d in duals]
    return None if all(distal) else {"generator": distal.index(False) + 1}


def _finite_quotient(action, direction):
    """The least power k with a common factor of g and u^(k*direction) - 1,
    and that factor, from g's content along the direction."""
    if len(action.content(direction)[2]) == 1:
        return None
    k, common = action.witness(direction)
    return {"power": k, "common_factor": encoding.encode_laurent(common)}


def _divides_presenter(action, direction, failures) -> None:
    # h | g and h | u^(k*direction) - 1 with h not a unit: then
    # (u^(k*direction) - 1)*(g/h) lies in (g), and g/h does not
    _check(laurent_divides(action.witness(direction)[1], action.presenter) is not None,
           failures, "common factor does not divide the presenter")


# One row per certificate kind: the verdict it proves, the slots that may
# hold it, its data keys, its derivation and its independent check (None
# when the derivation is the whole claim).  A derivation returns the
# kind's JSON-ready data about the slot's subject, or None when the kind
# does not hold of it.
CERTIFICATES = {
    "no-root-of-unity-eigenvalue": (
        "ergodic", ("element-ergodic", "found"), ("char_poly",), _no_root_of_unity,
        _routes_agree),
    "zero-finite-orbit-subspace": (
        "ergodic", ("group-ergodic",), (),
        lambda action, duals: {} if action.finite_orbit_subspace.is_zero else None, None),
    "witness-character": (
        "not-ergodic", ("element-ergodic", "group-ergodic"), ("character", "power"), _witness,
        _witness_fixed),
    "cyclotomic-char-poly": (
        "distal", ("element-distal",), ("factors",), _cyclotomic_char_poly, _multiplies_back),
    "all-generators-quasi-unipotent": (
        "distal", ("group-distal",), (),
        lambda action, duals: {} if all(d.spectrum.rest.is_one for d in duals) else None,
        None),
    "non-cyclotomic-factor": (
        "not-distal", ("element-distal",), ("factor", "cyclotomic_part"), _non_cyclotomic_factor,
        _multiplies_back),
    "non-quasi-unipotent-generator": (
        "not-distal", ("group-distal",), ("generator",), _first_non_distal, None),
    "finite-quotient-witness": (
        "not-ergodic", ("direction",), ("power", "common_factor"), _finite_quotient,
        _divides_presenter),
    "trivial-univariate-content": (
        "ergodic", ("direction", "found-direction"), (),
        lambda action, direction: {} if len(action.content(direction)[2]) == 1 else None,
        None),
    "coprime-axis-powers": (
        "ergodic", ("laurent-group",), (), lambda action, about: (
            None if action.presenter.is_zero or action.presenter.is_unit else {}), None),
}


@dataclass(frozen=True)
class Verdict:
    """A certificate kind and its JSON-ready data; the kind fixes the verdict."""

    certificate: str
    data: dict

    def __post_init__(self):
        row = CERTIFICATES.get(self.certificate)
        if row is None or self.data.keys() != set(row[2]):
            raise InternalCheckError(
                f"not a certificate: {self.certificate!r} with data keys {sorted(self.data)}")

    @classmethod
    def of(cls, certificate: str, action, about) -> "Verdict":
        """The kind's verdict with its row's data about the subject, as
        replay_verdict takes it; InternalCheckError if the kind fails it."""
        data = CERTIFICATES[certificate][3](action, about)
        if data is None:
            raise InternalCheckError(f"a {certificate} certificate does not hold of its subject")
        return cls(certificate, data)

    @property
    def kind(self) -> str:
        return CERTIFICATES[self.certificate][0]

    @property
    def is_ergodic(self) -> bool:
        return self.kind == "ergodic"

    @property
    def is_distal(self) -> bool:
        return self.kind == "distal"

    def to_payload(self) -> dict:
        return {"kind": self.kind, "certificate": {"kind": self.certificate, "data": self.data}}


def replay_verdict(action, slot: str, about, payload, failures: list) -> None:
    """Replay the verdict in the named slot through its kind's row, about
    the element's dual matrix in a one-item list, the dual generators, a
    direction, or nothing (None) for the two-variable group."""
    cert = payload.get("certificate") if isinstance(payload, dict) else None
    kind = cert.get("kind") if isinstance(cert, dict) else None
    row = CERTIFICATES.get(kind) if isinstance(kind, str) else None
    if not (row and payload.keys() == {"kind", "certificate"}
            and cert.keys() == {"kind", "data"}
            and isinstance(cert["data"], dict) and cert["data"].keys() == set(row[2])):
        failures.append("verdict is not shaped {kind, certificate: {kind, data}} "
                        "with its certificate kind's data keys")
        return
    proves, slots, keys, derive, check = row
    if slot not in slots:
        failures.append(f"a {kind} certificate does not belong in the {slot} slot")
        return  # its derivation would read the slot's subject as another kind of thing
    _check(payload["kind"] == proves, failures,
           "verdict kind is not the one its certificate proves")
    try:
        data = derive(action, about)
    except ValidationError as exc:
        failures.append(f"certificate data not re-derived: {exc}")
        return
    if data is None:
        failures.append(f"a {kind} certificate does not hold of its subject")
        return
    failures += [f"stored {key} differs" for key in keys if not _same(cert["data"][key], data[key])]
    if check is not None:
        check(action, about, failures)


def _replay_first_ergodic(action, exponents: tuple, failures: list) -> None:
    """Every all-positive vector before exponents, by coordinate sum then
    lexicographic order, has a dual element with a root-of-unity
    eigenvalue, so its element is not ergodic."""
    n = action.n_generators
    earlier = itertools.takewhile(lambda v: v != exponents, itertools.chain.from_iterable(
        positive_vectors(n, total) for total in range(n, sum(exponents) + 1)))
    _check(all(dual_element(action, v).spectrum.orders for v in earlier), failures,
           "an earlier all-positive vector has an ergodic element")


def replay_largest_subgroup(action, payload: dict, failures: list) -> None:
    """The three properties that fix the largest ergodic subgroup's dual
    subspace W: (a) W is invariant, (b) every generator is quasi-unipotent
    on W, so W lies in the common kernel of the c(D)**n, and (c) the
    quotient by W has no finite-orbit character, as it would if W were
    strictly inside that kernel: the maps the c(D) induce on it have no
    common kernel."""
    sub = _decoded(payload["subspace"], _subspace, encoding.encode_subspace, action)
    if sub is None:
        failures.append("subspace is not a subspace of the dual")
        return
    duals = action.dual_generators
    invariant = all(sub.is_invariant(d) for d in duals)
    _check(invariant, failures, "subspace is not invariant")
    if not invariant:
        return  # the restrictions and the quotient need it
    _check(_all_quasi_unipotent(duals, sub), failures,
           "a generator is not quasi-unipotent on the subspace")
    if sub.is_full:
        return  # the quotient is zero
    # the quotient by W = 0 is the space itself, and the action holds the
    # common kernel of the c(D) there
    common = action.finite_orbit_subspace if sub.is_zero else kernel(Matrix.from_rows(
        [row for d in duals
         for row in induced(d.spectrum.cyclotomic_at, Subspace.full(action.dim), sub).rows]))
    _check(common.is_zero, failures, "quotient has a finite-orbit character")


def replay_filtration(action, payload: dict, failures: list) -> None:
    """The chain is the whole claim: generator i has no finite-orbit
    character on stage quotient i, and generators 1..i are quasi-unipotent
    on stage i.  By induction on i, stage i is then the common kernel of
    the c(D_j)**r for j <= i, the one the engine builds: it lies in that
    kernel, and the kernel modulo stage i would be a nonzero quotient
    inside stage quotient i on which generator i is quasi-unipotent, so
    it would hold a finite-orbit character.  The tail is the largest
    ergodic subgroup's dual subspace, zero exactly when the group is
    ergodic."""
    encoded = payload["chain"]
    chain = ([_decoded(w, _subspace, encoding.encode_subspace, action) for w in encoded]
             if isinstance(encoded, list) else None)
    if chain is None or None in chain:
        failures.append("chain is not made of subspaces of the dual")
        return  # every check below reads it
    duals = action.dual_generators
    if len(chain) != len(duals) + 1:
        failures.append("chain does not have one stage per generator")
        return  # stage i pairs with generator i
    _check(chain[0].is_full, failures, "chain does not start at the full space")
    nested = all(prev.contains_subspace(cur) for prev, cur in zip(chain, chain[1:]))
    _check(nested, failures, "chain is not decreasing")
    invariant = all(w.is_invariant(d) for w in chain for d in duals)
    _check(invariant, failures, "chain member is not invariant")
    if not (nested and invariant):
        return  # the stage quotients and the restriction to the tail need both
    _check(all(kernel(induced(d.spectrum.cyclotomic_at, prev, cur)).is_zero
               for d, (prev, cur) in zip(duals, zip(chain, chain[1:])) if prev.dim != cur.dim),
           failures, "stage quotient has a finite-orbit character")
    _check(all(_all_quasi_unipotent(duals[:i], w) for i, w in enumerate(chain)), failures,
           "a generator is not quasi-unipotent on its stage or a later one")


def replay_oracle_check(action, flags: dict, results: dict, failures: list) -> None:
    """Re-derive the cross-validation counts for the box and cap the
    flags state, on a torus only, as cross-validation runs.  Every box
    character in the finite-orbit subspace must close its orbit within
    the cap, and every other one counts as exceeded without a walk: the
    analytic side already proves its orbit infinite."""
    bound, cap = flags["norm-bound"], flags["cap"]
    issue = box_issue(action, bound, cap)
    if issue is not None:
        failures.append(issue.message)
        return
    fixed = action.finite_orbit_subspace
    maps = orbit_maps(action)
    box = list(box_characters(action.dim, bound))
    inside = [chi for chi in box if fixed.contains(chi)]
    closed: set = set()
    for chi in inside:
        if chi in closed:
            continue
        seen, stop, _ = walk_orbit(maps, chi, cap)
        if stop is not None:
            failures.append("a finite-orbit character's orbit does not close within the cap")
            break
        closed |= seen
    _check(_same(results["characters_checked"], len(box)), failures,
           "characters checked is not the size of the box")
    _check(_same([results["finite_orbits"], results["exceeded"]],
                 [len(inside), len(box) - len(inside)]), failures,
           "finite and exceeded counts differ from the finite-orbit subspace")
    _check(results["failures"] == [], failures, "cross-validation recorded failures")


def _replay_first_direction(action, direction: tuple, flags: dict, failures: list) -> None:
    """Every direction before the found one, in the search's shell order,
    has a non-unit content along it, so it is not ergodic.  The found
    direction lies in the search box, and its shell is at most one more
    than g's smaller width: a non-ergodic line n0 = (a, b) puts a factor
    of g in u^n0 alone, whose Newton segment is a Minkowski summand of
    g's, so shells 1..s without an ergodic line make both widths at least
    s.  That also keeps a forged direction from stalling the scan."""
    g = action.presenter
    shell = max((abs(x) for x in direction), default=0)
    widths = [g.canonical().degree_in(v) for v in range(action.nvars)]
    if shell > flags["search-box"] or shell > min(widths) + 1:
        failures.append("direction lies outside the search box or past the width bound")
        return
    earlier = itertools.takewhile(lambda d: d != direction, itertools.chain.from_iterable(
        directions_in_shell(action.nvars, s) for s in range(1, shell + 1)))
    _check(all(len(action.content(d)[2]) > 1 for d in earlier), failures,
           "an earlier direction in the box is ergodic")


def replay_report(report: dict, action=None) -> dict:
    """Re-check every certificate in a serialized report, against the
    action the report was computed from when it is given, and otherwise
    against one built afresh from the report's input echo.  A report of
    another schema version, with an input echo that is not a valid action
    document, or whose flags or results are not the ones the CLI emits,
    records one failure and is read no further.

    Returns {"checked": n, "failures": [...]}.
    """
    failures: list = []
    checked = 1  # find-ergodic, filtration and oracle-check make one claim
    command, flags, results = (report.get(k) for k in ("command", "flags", "results"))
    if not _same(report.get("schema_version"), SCHEMA_VERSION):
        return {"checked": 0, "failures": [f"schema version is not {SCHEMA_VERSION}"]}
    if not (isinstance(command, str) and command in _FLAGS):
        return {"checked": 0, "failures": [f"unknown command {command!r}"]}
    if action is None:
        try:
            action = build_action(report.get("input"))
        except ValueError as exc:  # a ValidationError, or an int str() refuses
            return {"checked": 0, "failures": [f"input is not a valid action document: {exc}"]}
    laurent = action.kind == "laurent"
    template = _RESULTS.get((command, laurent))
    if template is None or not (
            isinstance(flags, dict) and flags.keys() == set(_FLAGS[command])
            and all(_decoded(v, _positive, int, action) for v in flags.values())
            and _fits(results, template)):
        return {"checked": 0, "failures": [
            "flags or results are not shaped as the CLI emits them for this command"]}
    if command == "analyze":
        if not laurent:
            n = action.n_generators
            entries = results["generators"]
            _check(len(entries) == n, failures, "generator entries are not one per generator")
            for i, entry in zip(range(n), entries):
                about = [dual_element(action, tuple(int(j == i) for j in range(n)))]
                for key in ("ergodic", "distal"):
                    replay_verdict(action, f"element-{key}", about, entry[key], failures)
            for key in ("ergodic", "distal"):
                replay_verdict(action, f"group-{key}", action.dual_generators,
                               results["group"][key], failures)
            replay_largest_subgroup(action, results["largest_ergodic_subgroup"], failures)
            checked = 2 * n + 3
        else:
            entries = results["directions"]
            axes = stated_axes(action.nvars)
            _check(_same([e["direction"] for e in entries], [list(a) for a in axes]),
                   failures, "directions are not the coordinate axes in order")
            for axis, entry in zip(axes, entries):
                replay_verdict(action, "direction", axis, entry["verdict"], failures)
            # u alone generates a one-variable group
            slot, about = ("direction", (1,)) if action.nvars == 1 else ("laurent-group", None)
            replay_verdict(action, slot, about, results["group"], failures)
            checked = len(axes) + 1
    elif command == "find-ergodic":
        # the ergodic element or direction found proves the group ergodic
        if not laurent:
            exps = results["exponents"]
            if not (isinstance(exps, list) and len(exps) == action.n_generators
                    and all(type(x) is int for x in exps)):
                failures.append("exponents are not one integer per generator")
            elif min(exps) < 1 or sum(exps) > ergodic_search_bound(action):
                # checked before any power is formed: a huge exponent
                # would make the element's entries huge
                failures.append("exponents are not positive within the search bound")
            else:
                exps = tuple(exps)
                replay_verdict(action, "found", [dual_element(action, exps)],
                               results["verdict"], failures)
                _replay_first_ergodic(action, exps, failures)
        else:
            direction = results["direction"]
            if not (isinstance(direction, list) and len(direction) == action.nvars
                    and all(type(x) is int for x in direction)):
                failures.append("direction is not one integer per variable")
            elif not any(direction):
                failures.append("direction is zero")
            else:
                direction = tuple(direction)
                replay_verdict(action, "found-direction", direction, results["verdict"],
                               failures)
                _replay_first_direction(action, direction, flags, failures)
    elif command == "filtration":
        replay_filtration(action, results, failures)
    else:
        replay_oracle_check(action, flags, results, failures)
    return {"checked": checked, "failures": failures}
