"""Certificate replay: re-check every claim in a report using only the
exact-arithmetic core.

Replay works on the serialized report, so a report that round-trips
through JSON carries everything needed to re-derive its own verdicts.
Each check returns silently or records a failure entry; nothing here
consults the engines' verdict logic beyond shared exact primitives.

A saved report replays against a fresh action built from its input
echo.  The CLI replays against the action it computed the report from,
and so shares the values that action caches: dual products and their
spectra, the finite-orbit subspace, and Laurent contents and witness
powers.  Each is a pure function of the input that the same code would
recompute bit for bit, so every check still runs on the report's claims.

Every finite-orbit and quasi-unipotence claim about a toral or solenoid
report is checked with a generator's own c(D) and c(D)**r, c the
product of D's distinct cyclotomic factors, which the spectrum caches:
a character has a finite D-orbit exactly when c(D) kills it, and D is
quasi-unipotent on an invariant subspace exactly when c(D)**r kills it.
On a quotient of invariant subspaces the map c(D) induces has the same
kernel as the quotient map's own cyclotomic part, since the other
factors of c have no root there.  So replay walks no orbit and splits
no characteristic polynomial beyond the generators' own, while the
engine checks the same claims through the subquotients' spectra.

A report states each claim once.  Replay reads schema version
SCHEMA_VERSION only, and it records a failure for any results key,
generator or direction entry key, certificate data key, or key of an
encoded subspace or Laurent polynomial that the CLI does not emit: a key
replay does not read would be taken on trust.
"""

from __future__ import annotations

import itertools
import math

from . import encoding
from .actions import build_action, dual_element, ergodic_search_bound, positive_vectors
from .errors import ValidationError
from .intpoly import cyclotomic_product, euler_phi
from .laurent import directions_in_shell, laurent_divides, stated_axes
from .matrices import Matrix, Subspace, induced, kernel, walk_orbit
from .oracle import box_characters, box_limit_issue

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


MALFORMED_CYCLOTOMIC = "cyclotomic factors are not [order, count] pairs within the rank"

# The verdict kinds each report slot may hold.
_ERGODIC_SLOT = ("ergodic", "not-ergodic")
_DISTAL_SLOT = ("distal", "not-distal")


def _check_kind(payload, slot: tuple, failures: list):
    """The verdict's certificate kind and data, or None with one failure
    recorded unless the verdict is shaped {kind, certificate: {kind,
    data}} and the data has exactly its certificate kind's keys."""
    cert = payload.get("certificate") if isinstance(payload, dict) else None
    kind = cert.get("kind") if isinstance(cert, dict) else None
    proves, keys = (encoding.CERTIFICATES.get(kind, (None, None)) if isinstance(kind, str)
                    else (None, None))
    if not (proves and payload.keys() == {"kind", "certificate"}
            and cert.keys() == {"kind", "data"}
            and isinstance(cert["data"], dict) and cert["data"].keys() == keys):
        failures.append("verdict is not shaped {kind, certificate: {kind, data}} "
                        "with its certificate kind's data keys")
        return None
    _check(payload["kind"] in slot, failures, "verdict kind does not belong in its slot")
    _check(payload["kind"] == proves, failures,
           "verdict kind is not the one its certificate proves")
    return kind, cert["data"]


def _kills(m: Matrix, vectors) -> bool:
    """m sends every one of the vectors to zero."""
    return all(not any(m.matvec(v)) for v in vectors)


def _all_quasi_unipotent(duals, sub: Subspace) -> bool:
    """Every D is quasi-unipotent on the D-invariant sub: c(D)**r kills
    it, so it lies in D's generalized eigenspaces for roots of unity."""
    return sub.is_zero or all(_kills(d.spectrum.unipotent_power, sub.basis) for d in duals)


def _replay_witness(action, duals, data: dict, failures: list) -> None:
    """A witness character of the group the duals generate: power is the
    lcm of their root-of-unity orders, which the determinant route finds
    as well, and c(D) kills the character for each D.  Then each D**power
    fixes it, as c divides x**power - 1 and every other factor of
    x**power - 1 is invertible at D."""
    _check(data["power"] == math.lcm(*(o for d in duals for o in d.spectrum.orders)),
           failures, "stated power is not the lcm of the root-of-unity orders")
    _check(all(d.spectrum.singular_orders == d.spectrum.orders for d in duals), failures,
           "cyclotomic division route and determinant route disagree")
    try:
        chi = encoding.decode_vector(data["character"])
    except (TypeError, ValueError):
        chi = ()
    if not (isinstance(data["character"], list) and len(chi) == action.dim and any(chi)):
        failures.append("witness character is not a nonzero character of the dual")
        return
    _check(all(_kills(d.spectrum.cyclotomic_at, [chi]) for d in duals), failures,
           "witness character is not fixed by the stated power")


def _dual_subspace(action, encoded):
    """The encoded subspace, or None unless it decodes to a subspace of
    the dual: its ambient dimension is checked before any matrix acts on
    it."""
    try:
        sub = encoding.decode_subspace(encoded)
    except (TypeError, ValueError, KeyError):
        return None
    return sub if type(sub.ambient) is int and sub.ambient == action.dim else None


def _checked_cyclotomic_product(pairs, rank: int):
    """The product of the [d, count] pairs' cyclotomic powers, or None
    unless every pair is two positive ints and their degrees
    count*phi(d) sum to at most rank: checked before any cyclotomic
    polynomial is formed, so a huge order or count costs nothing.  An
    order above 2*rank*rank + 1 has phi(d) > rank, so the bound on d
    only keeps euler_phi cheap; the sum decides."""
    bound = 2 * rank * rank + 1
    if not (isinstance(pairs, list)
            and all(isinstance(f, list) and len(f) == 2
                    and all(type(x) is int for x in f) and 1 <= f[0] <= bound and f[1] >= 1
                    for f in pairs)
            and sum(c * euler_phi(d) for d, c in pairs) <= rank):
        return None
    return cyclotomic_product(pairs)


def replay_element_verdict(action, exponents, payload: dict, slot: tuple,
                           failures: list) -> None:
    """Replay the verdict on the element with the given exponents."""
    shaped = _check_kind(payload, slot, failures)
    if shaped is None:
        return
    kind, data = shaped
    b = dual_element(action, exponents)
    spectrum = b.spectrum
    if kind == "no-root-of-unity-eigenvalue":
        _check(encoding.encode_poly(spectrum.char_poly) == data["char_poly"], failures,
               "stored characteristic polynomial differs")
        _check(not spectrum.orders, failures,
               "a cyclotomic polynomial divides the characteristic polynomial")
        _check(not spectrum.singular_orders, failures,
               "a cyclotomic polynomial is singular at the matrix")
    elif kind == "witness-character":
        _replay_witness(action, [b], data, failures)
    elif kind == "cyclotomic-char-poly":
        product = _checked_cyclotomic_product(data["factors"], action.dim)
        if product is None:
            failures.append(MALFORMED_CYCLOTOMIC)
        else:
            _check(product == spectrum.char_poly, failures,
                   "cyclotomic factors do not multiply to the characteristic polynomial")
    elif kind == "non-cyclotomic-factor":
        part = _checked_cyclotomic_product(data["cyclotomic_part"], action.dim)
        try:
            rest = encoding.decode_poly(data["factor"])
        except (TypeError, ValueError):
            rest = None
        if part is None:
            failures.append(MALFORMED_CYCLOTOMIC)
        if rest is None:
            failures.append("residual factor is not a polynomial")
        if part is None or rest is None:
            return
        _check(part * rest == spectrum.char_poly, failures,
               "factorization does not multiply back")
        _check(rest.degree >= 1, failures, "residual factor is constant")
        _check(rest == spectrum.rest, failures, "residual factor has a cyclotomic factor")
    else:
        failures.append(f"unknown element certificate kind {kind!r}")


def _replay_first_ergodic(action, exponents: tuple, failures: list) -> None:
    """Every all-positive vector before exponents, by coordinate sum then
    lexicographic order, has a dual element with a root-of-unity
    eigenvalue, so its element is not ergodic."""
    n = action.n_generators
    earlier = itertools.takewhile(lambda v: v != exponents, itertools.chain.from_iterable(
        positive_vectors(n, total) for total in range(n, sum(exponents) + 1)))
    _check(all(dual_element(action, v).spectrum.orders for v in earlier), failures,
           "an earlier all-positive vector has an ergodic element")


def replay_group_verdict(action, payload: dict, slot: tuple, failures: list) -> None:
    shaped = _check_kind(payload, slot, failures)
    if shaped is None:
        return
    kind, data = shaped
    duals = action.dual_generators
    if kind == "zero-finite-orbit-subspace":
        _check(action.finite_orbit_subspace.is_zero, failures,
               "finite-orbit subspace is not zero")
    elif kind == "witness-character":
        _replay_witness(action, duals, data, failures)
    elif kind in ("all-generators-quasi-unipotent", "non-quasi-unipotent-generator"):
        distal = [d.spectrum.rest.is_one for d in duals]
        if kind == "all-generators-quasi-unipotent":
            _check(all(distal), failures, "a generator is not distal")
        else:
            first = distal.index(False) + 1 if not all(distal) else None
            _check(data["generator"] == first, failures,
                   "stated generator is not the first non-distal one")
    else:
        failures.append(f"unknown group certificate kind {kind!r}")


def replay_largest_subgroup(action, payload: dict, failures: list) -> None:
    """The three properties that fix the largest ergodic subgroup's dual
    subspace W: (a) W is invariant, (b) every generator is quasi-unipotent
    on W, so W lies in the common kernel of the c(D)**n, and (c) the
    quotient by W has no finite-orbit character, as it would if W were
    strictly inside that kernel: the maps the c(D) induce on it have no
    common kernel."""
    sub = _dual_subspace(action, payload["subspace"])
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
    chain = [_dual_subspace(action, w) for w in encoded] if isinstance(encoded, list) else None
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
    flags state.  Every box character in the finite-orbit subspace must
    close its orbit within the cap, and every other one counts as
    exceeded without a walk: the analytic side already proves its orbit
    infinite."""
    bound, cap = flags.get("norm-bound"), flags.get("cap")
    if not all(type(x) is int and x >= 1 for x in (bound, cap)):
        failures.append("norm bound or cap flag is not a positive integer")
        return
    issue = box_limit_issue(action.dim, bound)
    if issue is not None:
        failures.append(issue.message)
        return
    fixed = action.finite_orbit_subspace
    maps = [d.matvec for d in action.dual_generators]
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
    _check(results["characters_checked"] == len(box), failures,
           "characters checked is not the size of the box")
    _check(results["finite_orbits"] == len(inside)
           and results["exceeded"] == len(box) - len(inside), failures,
           "finite and exceeded counts differ from the finite-orbit subspace")
    _check(results["failures"] == [], failures, "cross-validation recorded failures")


def replay_laurent_verdict(action, direction, payload: dict, slot: tuple,
                           failures: list) -> None:
    """Replay a Laurent verdict in a slot about the translation by
    u^direction, a nonzero direction the slot fixes; direction is None
    for a two-variable group slot, which holds coprime-axis-powers and
    which no other slot may hold."""
    shaped = _check_kind(payload, slot, failures)
    if shaped is None:
        return
    kind, data = shaped
    g = action.presenter
    if (direction is None) != (kind == "coprime-axis-powers"):
        failures.append("coprime-axis-powers is not the verdict of a two-variable group slot")
        return  # every identity below is about the slot's direction
    if kind == "finite-quotient-witness":
        try:
            factor = encoding.decode_laurent(data["common_factor"])
        except (ValueError, TypeError, KeyError):
            failures.append("common factor is not a Laurent polynomial")
            return
        k = data["power"]
        if (type(k) is not int or k < 1 or factor.is_zero or factor.is_unit
                or (factor.p, factor.nvars) != (action.p, action.nvars)):
            failures.append("witness power is not positive or common factor is trivial")
            return
        try:
            least, common = (action.witness(direction) if len(action.content(direction)[2]) > 1
                             else (None, None))
        except ValidationError as exc:
            failures.append(f"least witness power not re-derived: {exc}")
            return
        if least != k:
            failures.append("witness power is not the least one")
            return
        # h | g and h | u^(k*direction) - 1 with h not a unit: then
        # (u^(k*direction) - 1)*(g/h) lies in (g), and g/h does not.  The
        # common factors of g and u^(k*direction) - 1 = t^(k*m) - 1 are
        # those of gcd(content, t^(k*m) - 1), mapped back through t -> u^n0.
        _check(laurent_divides(factor, g) is not None, failures,
               "common factor does not divide the presenter")
        _check(laurent_divides(factor, common) is not None, failures,
               "common factor does not divide the power identity")
    elif kind == "trivial-univariate-content":
        _check(action.content(direction)[2] == [1], failures, "content is not constant")
    elif kind == "coprime-axis-powers":
        _check(not g.is_zero and not g.is_unit, failures,
               "presenter must be a nonzero non-unit")
    else:
        failures.append(f"unknown Laurent certificate kind {kind!r}")


def _replay_first_direction(action, direction: tuple, search_box: int,
                            failures: list) -> None:
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
    if report.get("schema_version") != SCHEMA_VERSION:
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
                exps = tuple(int(j == i) for j in range(n))
                replay_element_verdict(action, exps, entry["ergodic"], _ERGODIC_SLOT, failures)
                replay_element_verdict(action, exps, entry["distal"], _DISTAL_SLOT, failures)
            replay_group_verdict(action, results["group"]["ergodic"], _ERGODIC_SLOT, failures)
            replay_group_verdict(action, results["group"]["distal"], _DISTAL_SLOT, failures)
            replay_largest_subgroup(action, results["largest_ergodic_subgroup"], failures)
            checked = 2 * n + 3
        else:
            entries = results["directions"]
            axes = stated_axes(action.nvars)
            _check([e["direction"] for e in entries] == [list(a) for a in axes],
                   failures, "directions are not the coordinate axes in order")
            for axis, entry in zip(axes, entries):
                replay_laurent_verdict(action, axis, entry["verdict"], _ERGODIC_SLOT, failures)
            replay_laurent_verdict(action, (1,) if action.nvars == 1 else None,
                                   results["group"], _ERGODIC_SLOT, failures)
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
                replay_element_verdict(action, exps, results["verdict"], ("ergodic",),
                                       failures)
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
                replay_laurent_verdict(action, direction, results["verdict"], ("ergodic",),
                                       failures)
                _replay_first_direction(action, direction, flags.get("search-box", 0),
                                        failures)
    elif command == "filtration":
        replay_filtration(action, results, failures)
    else:
        replay_oracle_check(action, flags, results, failures)
    return {"checked": checked, "failures": failures}
