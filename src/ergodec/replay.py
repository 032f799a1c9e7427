"""Certificate replay: re-check every claim in a report using only the
exact-arithmetic core.  A report that round-trips through JSON carries
everything needed to re-derive its own verdicts, and each check records
a failure entry or nothing, with no engine verdict logic beyond shared
exact primitives.

CERTIFICATES has one row per certificate kind, which Verdict and
replay_verdict read: the verdict it proves, the slots that may hold it
(element-ergodic, element-distal, group-ergodic, group-distal, found,
direction, found-direction, laurent-group), its data keys and its check.
Each data key has one decoder, which bounds the arithmetic before any is
done, and one encoder.  A value, subspace or flag is read only in its
canonical encoding: encoding it again must give the report's JSON back,
type for type, so 4.0 and true are no power.  Anything else records the
key's one failure and skips the kind's check.

A saved report replays against a fresh action built from its input
echo, and the CLI against the action it computed the report from, whose
cached dual products and spectra, finite-orbit subspace, and Laurent
contents and witness powers are pure functions of the input that the
same code would recompute bit for bit: every check still runs on the
report's claims.

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
from .intpoly import Polynomial, cyclotomic_product, euler_phi
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


def _character(raw, action) -> tuple:
    chi = encoding.decode_vector(raw)
    if len(chi) != action.dim or not any(chi):
        raise ValueError("not a nonzero character of the dual")
    return chi


def _cyclotomic(raw, action) -> dict:
    """{order: count} from [order, count] pairs whose degrees sum to at
    most the rank, checked before any cyclotomic polynomial is formed."""
    if not (all(isinstance(f, list) and len(f) == 2 and all(type(x) is int for x in f)
                and 1 <= f[0] <= 2 * action.dim ** 2 + 1 and f[1] >= 1 for f in raw)
            and sum(c * euler_phi(d) for d, c in raw) <= action.dim):
        raise ValueError("not [order, count] pairs within the rank")
    return dict(raw)  # a repeated order re-encodes as one pair


def _poly(raw, action) -> Polynomial:
    return Polynomial.from_coeffs(encoding.decode_vector(raw))


def _laurent(raw, action):
    """Over the action's field and variables, checked before any term."""
    if not _same([raw["p"], raw["vars"]], [action.p, action.nvars]):
        raise ValueError("not a Laurent polynomial over the action's ring")
    return encoding.decode_laurent(raw)


def _subspace(raw, action) -> Subspace:
    """In the dual's dimension, checked before any row is reduced."""
    if not _same(raw["ambient"], action.dim):
        raise ValueError("not a subspace of the dual")
    return Subspace.span(action.dim, [encoding.decode_vector(v) for v in raw["basis"]])


MALFORMED_CYCLOTOMIC = "cyclotomic factors are not [order, count] pairs within the rank"

# Each certificate data key's decoder and encoder, and the one failure a
# value records that does not decode or is not in its canonical encoding.
_DATA = {
    "char_poly": (_poly, encoding.encode_poly, "characteristic polynomial is not a polynomial"),
    "factor": (_poly, encoding.encode_poly, "residual factor is not a polynomial"),
    "factors": (_cyclotomic, encoding.encode_factors, MALFORMED_CYCLOTOMIC),
    "cyclotomic_part": (_cyclotomic, encoding.encode_factors, MALFORMED_CYCLOTOMIC),
    "character": (_character, encoding.encode_vector,
                  "witness character is not a nonzero character of the dual"),
    "power": (_positive, int, "power is not a positive integer"),
    "generator": (_positive, int, "generator is not a positive integer"),
    "common_factor": (_laurent, encoding.encode_laurent,
                      "common factor is not a Laurent polynomial"),
}


def _kills(m: Matrix, vectors) -> bool:
    """m sends every one of the vectors to zero."""
    return all(not any(m.matvec(v)) for v in vectors)


def _all_quasi_unipotent(duals, sub: Subspace) -> bool:
    """Every D is quasi-unipotent on the D-invariant sub: c(D)**r kills
    it, so it lies in D's generalized eigenspaces for roots of unity."""
    return sub.is_zero or all(_kills(d.spectrum.unipotent_power, sub.basis) for d in duals)


def _no_root_of_unity(action, about, data, failures) -> None:
    spectrum = about[0].spectrum
    _check(data["char_poly"] == spectrum.char_poly, failures,
           "stored characteristic polynomial differs")
    _check(not spectrum.orders, failures,
           "a cyclotomic polynomial divides the characteristic polynomial")
    _check(not spectrum.singular_orders, failures,
           "a cyclotomic polynomial is singular at the matrix")


def _witness(action, duals, data, failures) -> None:
    """A witness character of the group the duals generate: power is the
    lcm of their root-of-unity orders, which the determinant route finds
    as well, and c(D) kills the character for each D.  Then each D**power
    fixes it, as c divides x**power - 1 and its cofactor is invertible at D.
    Of the characters c(D) kills, it must be the one the engine reports,
    MatrixAction.witness_character of their common kernel: the element's
    spectrum caches it, and the action caches the group's."""
    _check(data["power"] == math.lcm(*(o for d in duals for o in d.spectrum.orders)),
           failures, "stated power is not the lcm of the root-of-unity orders")
    _check(all(d.spectrum.singular_orders == d.spectrum.orders for d in duals), failures,
           "cyclotomic division route and determinant route disagree")
    if not all(_kills(d.spectrum.cyclotomic_at, [data["character"]]) for d in duals):
        failures.append("witness character is not fixed by the stated power")
        return  # the kernel may be zero and have no first vector
    fixed = (duals[0].spectrum.finite_orbit_subspace if len(duals) == 1
             else action.finite_orbit_subspace)
    _check(data["character"] == action.witness_character(fixed), failures,
           "witness character is not the first basis vector of the finite-orbit subspace")


def _non_cyclotomic_factor(action, about, data, failures) -> None:
    spectrum, rest = about[0].spectrum, data["factor"]
    _check(cyclotomic_product(data["cyclotomic_part"].items()) * rest == spectrum.char_poly,
           failures, "factorization does not multiply back")
    _check(rest.degree >= 1, failures, "residual factor is constant")
    _check(rest == spectrum.rest, failures, "residual factor has a cyclotomic factor")


def _first_non_distal(action, duals, data, failures) -> None:
    distal = [d.spectrum.rest.is_one for d in duals]
    first = distal.index(False) + 1 if not all(distal) else None
    _check(data["generator"] == first, failures,
           "stated generator is not the first non-distal one")


def _finite_quotient(action, direction, data, failures) -> None:
    """The stated power k is the least with a common factor of g and
    u^(k*direction) - 1, and the stated common factor is one."""
    factor = data["common_factor"]
    if factor.is_zero or factor.is_unit:
        failures.append("common factor is trivial")
        return
    try:
        least, common = (action.witness(direction) if len(action.content(direction)[2]) > 1
                         else (None, None))
    except ValidationError as exc:
        failures.append(f"least witness power not re-derived: {exc}")
        return
    if least != data["power"]:
        failures.append("witness power is not the least one")
        return
    # h | g and h | u^(k*direction) - 1 with h not a unit: then
    # (u^(k*direction) - 1)*(g/h) lies in (g), and g/h does not.  The
    # common factors of g and u^(k*direction) - 1 = t^(k*m) - 1 are
    # those of gcd(content, t^(k*m) - 1), mapped back through t -> u^n0.
    _check(laurent_divides(factor, action.presenter) is not None, failures,
           "common factor does not divide the presenter")
    _check(laurent_divides(factor, common) is not None, failures,
           "common factor does not divide the power identity")


# One row per certificate kind: the verdict it proves, the slots that may
# hold it, its data keys, and its check.
CERTIFICATES = {
    "no-root-of-unity-eigenvalue": (
        "ergodic", ("element-ergodic", "found"), ("char_poly",), _no_root_of_unity),
    "zero-finite-orbit-subspace": (
        "ergodic", ("group-ergodic",), (), lambda action, duals, data, failures: _check(
            action.finite_orbit_subspace.is_zero, failures, "finite-orbit subspace is not zero")),
    "witness-character": (
        "not-ergodic", ("element-ergodic", "group-ergodic"), ("character", "power"), _witness),
    "cyclotomic-char-poly": (
        "distal", ("element-distal",), ("factors",), lambda action, about, data, failures: _check(
            cyclotomic_product(data["factors"].items()) == about[0].spectrum.char_poly, failures,
            "cyclotomic factors do not multiply to the characteristic polynomial")),
    "all-generators-quasi-unipotent": (
        "distal", ("group-distal",), (), lambda action, duals, data, failures: _check(
            all(d.spectrum.rest.is_one for d in duals), failures, "a generator is not distal")),
    "non-cyclotomic-factor": (
        "not-distal", ("element-distal",), ("factor", "cyclotomic_part"), _non_cyclotomic_factor),
    "non-quasi-unipotent-generator": (
        "not-distal", ("group-distal",), ("generator",), _first_non_distal),
    "finite-quotient-witness": (
        "not-ergodic", ("direction",), ("power", "common_factor"), _finite_quotient),
    "trivial-univariate-content": (
        "ergodic", ("direction", "found-direction"), (), lambda action, direction, data, failures:
        _check(action.content(direction)[2] == [1], failures, "content is not constant")),
    "coprime-axis-powers": (
        "ergodic", ("laurent-group",), (), lambda action, about, data, failures: _check(
            not action.presenter.is_zero and not action.presenter.is_unit, failures,
            "presenter must be a nonzero non-unit")),
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
    proves, slots, keys, check = row
    if slot not in slots:
        failures.append(f"a {kind} certificate does not belong in the {slot} slot")
        return  # its check would read the slot's subject as another kind of thing
    _check(payload["kind"] == proves, failures,
           "verdict kind is not the one its certificate proves")
    data = {key: _decoded(cert["data"][key], *_DATA[key][:2], action) for key in keys}
    failures += [_DATA[key][2] for key in keys if data[key] is None]
    if None not in data.values():
        check(action, about, data, failures)


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
    character on stage quotient i, and every generator is quasi-unipotent
    on the tail.  Then a character with a finite group orbit modulo the
    tail lies in every stage in turn, so the tail is the largest ergodic
    subgroup's dual subspace, zero exactly when the group is ergodic."""
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
    _check(_all_quasi_unipotent(duals, chain[-1]), failures,
           "a generator is not quasi-unipotent on the residual")


def replay_oracle_check(action, flags: dict, results: dict, failures: list) -> None:
    """Re-derive the cross-validation counts for the box and cap the
    flags state, on a torus only, as cross-validation runs.  Every box
    character in the finite-orbit subspace must close its orbit within
    the cap, and every other one counts as exceeded without a walk: the
    analytic side already proves its orbit infinite."""
    # a flag is a positive int the CLI's type can read, as a power is
    bound, cap = (_decoded(flags.get(k), _positive, int, action) for k in ("norm-bound", "cap"))
    if bound is None or cap is None:
        failures.append("norm bound or cap flag is not a positive integer")
        return
    issue = box_issue(action, bound)
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
    search_box = _decoded(flags.get("search-box"), _positive, int, action)
    if search_box is None:
        failures.append("search box flag is not a positive integer")
        return
    g = action.presenter
    shell = max((abs(x) for x in direction), default=0)
    widths = [g.canonical().degree_in(v) for v in range(action.nvars)]
    if shell > search_box or shell > min(widths) + 1:
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
    another schema version, or whose results have keys the CLI does not
    emit, records one failure and is read no further.

    Returns {"checked": n, "failures": [...]}.
    """
    failures: list = []
    checked = 1  # find-ergodic, filtration and oracle-check make one claim
    command, flags, results = (report.get(k) for k in ("command", "flags", "results"))
    if not _same(report.get("schema_version"), SCHEMA_VERSION):
        return {"checked": 0, "failures": [f"schema version is not {SCHEMA_VERSION}"]}
    if command not in ("analyze", "find-ergodic", "filtration", "oracle-check"):
        return {"checked": 0, "failures": [f"unknown command {command!r}"]}
    if action is None:
        action = build_action(report["input"])
    laurent = action.kind == "laurent"
    template = _RESULTS.get((command, laurent))
    if template is None or not (isinstance(flags, dict) and _fits(results, template)):
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
