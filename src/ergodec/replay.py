"""Certificate replay: re-check every claim in a report using only the
exact-arithmetic core.

Replay works on the serialized report, so a report that round-trips
through JSON carries everything needed to re-derive its own verdicts.
Each check returns silently or records a failure entry; nothing here
consults the engines' verdict logic beyond shared exact primitives.
"""

from __future__ import annotations

import itertools
import math

from . import encoding
from .actions import build_action, dual_element, element, positive_vectors
from .intpoly import cyclotomic_product
from .laurent import (axis_directions, content_along, direction_power_minus_one,
                      directions_in_shell, laurent_divides)
from .matrices import (Matrix, fixed_by_power, quasi_unipotent_on, quotient_matrix,
                       stage_quotient, walk_orbit)
from .oracle import box_characters, box_limit_issue


# The verdict each certificate kind proves.
_PROVES = {
    "no-root-of-unity-eigenvalue": "ergodic",
    "zero-finite-orbit-subspace": "ergodic",
    "witness-character": "not-ergodic",
    "cyclotomic-char-poly": "distal",
    "all-generators-quasi-unipotent": "distal",
    "non-cyclotomic-factor": "not-distal",
    "non-quasi-unipotent-generator": "not-distal",
    "finite-quotient-witness": "not-ergodic",
    "trivial-univariate-content": "ergodic",
    "coprime-axis-powers": "ergodic",
}


def _check(condition: bool, failures: list, what: str) -> None:
    if not condition:
        failures.append(what)


# The verdict kinds each report slot may hold.
_ERGODIC_SLOT = ("ergodic", "not-ergodic")
_DISTAL_SLOT = ("distal", "not-distal")


def _check_kind(payload: dict, slot: tuple, failures: list) -> None:
    _check(payload["kind"] in slot, failures, "verdict kind does not belong in its slot")
    _check(payload["kind"] == _PROVES.get(payload["certificate"]["kind"]), failures,
           "verdict kind is not the one its certificate proves")


def _power_fixes(vector, matrix: Matrix, power: int) -> bool:
    """matrix**power fixes vector: its cyclic orbit closes within the lcm
    of the matrix's root-of-unity orders, and its length divides power."""
    cap = math.lcm(*matrix.spectrum.orders)
    seen, stop, _ = walk_orbit([matrix.matvec], tuple(vector), cap)
    return power > 0 and stop is None and power % len(seen) == 0


def replay_element_verdict(action, exponents, payload: dict, slot: tuple,
                           failures: list) -> None:
    _check_kind(payload, slot, failures)
    cert = payload["certificate"]
    kind = cert["kind"]
    data = cert["data"]
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
        chi = encoding.decode_vector(data["character"])
        _check(any(x != 0 for x in chi), failures, "witness character is zero")
        _check(data["power"] == math.lcm(*data["shared_orders"]), failures,
               "stated power is not the lcm of the shared orders")
        _check(_power_fixes(chi, b, data["power"]), failures,
               "witness character is not fixed by the stated power")
    elif kind == "cyclotomic-char-poly":
        _check(cyclotomic_product(data["factors"]) == spectrum.char_poly, failures,
               "cyclotomic factors do not multiply to the characteristic polynomial")
    elif kind == "non-cyclotomic-factor":
        rest = encoding.decode_poly(data["factor"])
        prod = cyclotomic_product(data["cyclotomic_part"]) * rest
        _check(prod == spectrum.char_poly, failures,
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
    _check(min(exponents) > 0, failures, "exponents are not all positive")
    earlier = itertools.takewhile(lambda v: v != exponents, itertools.chain.from_iterable(
        positive_vectors(n, total) for total in range(n, sum(exponents) + 1)))
    _check(all(dual_element(action, v).spectrum.orders for v in earlier), failures,
           "an earlier all-positive vector has an ergodic element")


def replay_group_verdict(action, payload: dict, slot: tuple, failures: list) -> None:
    _check_kind(payload, slot, failures)
    cert = payload["certificate"]
    kind = cert["kind"]
    data = cert["data"]
    duals = action.dual_generators
    if kind == "zero-finite-orbit-subspace":
        _check(fixed_by_power(duals).is_zero, failures,
               "finite-orbit subspace is not zero")
    elif kind == "witness-character":
        chi = encoding.decode_vector(data["character"])
        _check(any(x != 0 for x in chi), failures, "witness character is zero")
        for d in duals:
            _check(_power_fixes(chi, d, data["power"]), failures,
                   "witness character is not fixed by a generator power")
        orbit = {encoding.decode_vector(v) for v in data["orbit"]}
        _check(len(orbit) == data["orbit_size"], failures, "orbit size mismatch")
        seen, stop, _ = walk_orbit([d.matvec for d in duals], chi, len(orbit))
        _check(stop is None and seen == orbit, failures,
               "orbit is not the witness's orbit under the generators")
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
    strictly inside that kernel."""
    sub = encoding.decode_subspace(payload["subspace"])
    duals = action.dual_generators
    invariant = sub.ambient == action.dim and all(sub.is_invariant(d) for d in duals)
    _check(invariant, failures, "subspace is not invariant")
    if not invariant:
        return  # the restrictions and the quotient need it
    _check(payload["generators_quasi_unipotent_on_subspace"] is True
           and all(quasi_unipotent_on(d, sub) for d in duals), failures,
           "a generator is not quasi-unipotent on the subspace")
    # the quotient by W = 0 is the space itself, whose spectra are cached
    _check(payload["quotient_has_no_finite_orbit"] is True
           and (sub.is_full or fixed_by_power(
               duals if sub.is_zero else [quotient_matrix(d, sub) for d in duals]).is_zero),
           failures, "quotient has a finite-orbit character")


def replay_filtration(action, payload: dict, failures: list) -> None:
    chain = [encoding.decode_subspace(w) for w in payload["chain"]]
    duals = action.dual_generators
    _check(len(chain) == len(duals) + 1, failures, "chain does not have one stage per generator")
    _check(payload["dims"] == [w.dim for w in chain], failures,
           "dims differ from the chain's dimensions")
    _check(payload["attributions"] == [
        {"stage": i, "generator": i, "dim_from": prev.dim, "dim_to": cur.dim,
         "ergodic_on_quotient": True}
        for i, (prev, cur) in enumerate(zip(chain, chain[1:]), start=1)], failures,
        "attributions do not match the chain stage by stage")
    _check(chain[0].is_full, failures, "chain does not start at the full space")
    nested = all(prev.contains_subspace(cur) for prev, cur in zip(chain, chain[1:]))
    _check(nested, failures, "chain is not decreasing")
    invariant = all(w.is_invariant(d) for w in chain for d in duals)
    _check(invariant, failures, "chain member is not invariant")
    residual = encoding.decode_subspace(payload["residual"])
    _check(residual == chain[-1], failures, "residual differs from the chain tail")
    _check(payload["group_ergodic"] == residual.is_zero, failures,
           "group flag disagrees with the residual")
    if not (nested and invariant):
        return  # the stage quotients and the restriction to the tail need both
    for d, (prev, cur) in zip(duals, zip(chain, chain[1:])):
        if prev.dim == cur.dim:
            continue
        _check(fixed_by_power([stage_quotient(d, prev, cur)]).is_zero, failures,
               "stage quotient has a finite-orbit character")
    _check(all(quasi_unipotent_on(d, chain[-1]) for d in duals), failures,
           "a generator is not quasi-unipotent on the residual")


def replay_oracle_check(action, flags: dict, results: dict, failures: list) -> None:
    """Re-derive the cross-validation counts.  Every box character in the
    finite-orbit subspace must close its orbit within the cap, and every
    other one counts as exceeded without a walk: the analytic side
    already proves its orbit infinite."""
    bound, cap = results["norm_bound"], results["cap"]
    _check(bound == flags.get("norm-bound") and cap == flags.get("cap"), failures,
           "norm bound or cap differs from the flags")
    issue = box_limit_issue(action.dim, bound)
    if issue is not None:
        failures.append(issue.message)
        return
    fixed = fixed_by_power(action.dual_generators)
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
    _check(results["consistent"] is True and not results["failures"], failures,
           "cross-validation recorded failures")


def replay_laurent_verdict(action, direction, payload: dict, slot: tuple,
                           failures: list) -> None:
    """Replay a Laurent verdict in a slot about the translation by
    u^direction; direction is None for a two-variable group slot, the one
    slot whose certificate names no direction."""
    _check_kind(payload, slot, failures)
    cert = payload["certificate"]
    kind = cert["kind"]
    data = cert["data"]
    g = action.presenter
    stated = data.get("direction")
    if ((direction is None) != (kind == "coprime-axis-powers")
            or stated != (None if direction is None else list(direction))
            or (stated is not None and (len(stated) != action.nvars or not any(stated)))):
        failures.append("certificate direction is not its slot's nonzero direction")
        return  # every identity below is about that direction
    if kind == "finite-quotient-witness":
        factor = encoding.decode_laurent(data["common_factor"])
        if data["power"] < 1 or factor.is_zero or factor.is_unit:
            failures.append("witness power is not positive or common factor is trivial")
            return
        # h | g and h | u^(k*direction) - 1 with h not a unit: then
        # (u^(k*direction) - 1)*(g/h) lies in (g), and g/h does not
        w = direction_power_minus_one(action.p, action.nvars, direction, data["power"])
        _check(laurent_divides(factor, g) is not None, failures,
               "common factor does not divide the presenter")
        _check(laurent_divides(factor, w) is not None, failures,
               "common factor does not divide the power identity")
    elif kind == "trivial-univariate-content":
        _check(content_along(g, direction)[2] == data["content"], failures,
               "stored content differs")
        _check(data["content"] == [1], failures, "content is not constant")
    elif kind == "coprime-axis-powers":
        _check(action.nvars == 2, failures, "closure argument needs two variables")
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
    _check(all(len(content_along(g, d)[2]) > 1 for d in earlier), failures,
           "an earlier direction in the box is ergodic")


def _group_direction(action):
    """A one-variable group is generated by u alone; a two-variable group
    verdict is about no single direction."""
    return (1,) if action.nvars == 1 else None


def replay_report(report: dict) -> dict:
    """Re-check every certificate in a serialized report.

    Returns {"checked": n, "failures": [...]}.
    """
    failures: list = []
    checked = 0
    command = report["command"]
    flags = report["flags"]
    results = report["results"]
    action = None
    if command in ("analyze", "find-ergodic", "filtration", "oracle-check"):
        action = build_action(report["input"])
    if command == "analyze":
        if action.kind in ("toral", "solenoid"):
            entries = results["generators"]
            _check([e["index"] for e in entries] == list(range(1, action.n_generators + 1)),
                   failures, "generator entries are not one per generator in order")
            for entry in entries:
                _check(entry["mixing_of_all_orders"] == (entry["ergodic"]["kind"] == "ergodic"),
                       failures, "mixing flag differs from the ergodic verdict")
                exps = tuple(1 if j == entry["index"] - 1 else 0
                             for j in range(action.n_generators))
                replay_element_verdict(action, exps, entry["ergodic"], _ERGODIC_SLOT, failures)
                checked += 1
                replay_element_verdict(action, exps, entry["distal"], _DISTAL_SLOT, failures)
                checked += 1
            replay_group_verdict(action, results["group"]["ergodic"], _ERGODIC_SLOT, failures)
            checked += 1
            replay_group_verdict(action, results["group"]["distal"], _DISTAL_SLOT, failures)
            checked += 1
            replay_largest_subgroup(action, results["largest_ergodic_subgroup"], failures)
            checked += 1
        else:
            entries = results["directions"]
            _check([tuple(e["direction"]) for e in entries] == axis_directions(action.nvars),
                   failures, "directions are not the coordinate axes in order")
            for entry in entries:
                replay_laurent_verdict(action, tuple(entry["direction"]), entry["verdict"],
                                       _ERGODIC_SLOT, failures)
                checked += 1
            replay_laurent_verdict(action, _group_direction(action), results["group"],
                                   _ERGODIC_SLOT, failures)
            checked += 1
    elif command == "find-ergodic":
        if action.kind in ("toral", "solenoid"):
            replay_group_verdict(action, results["group"], _ERGODIC_SLOT, failures)
            checked += 1
            exps = tuple(results["exponents"])
            _check(results["element_matrix"] == encoding.encode_matrix(element(action, exps)),
                   failures, "element matrix is not the product of generator powers")
            replay_element_verdict(action, exps, results["verdict"], ("ergodic",), failures)
            _replay_first_ergodic(action, exps, failures)
            checked += 1
        else:
            replay_laurent_verdict(action, _group_direction(action), results["group"],
                                   _ERGODIC_SLOT, failures)
            checked += 1
            direction = tuple(results["direction"])
            replay_laurent_verdict(action, direction, results["verdict"], ("ergodic",),
                                   failures)
            _replay_first_direction(action, direction, flags.get("search-box", 0), failures)
            checked += 1
    elif command == "filtration":
        replay_filtration(action, results, failures)
        checked += 1
    elif command == "oracle-check":
        replay_oracle_check(action, flags, results, failures)
        checked += 1
    else:
        failures.append(f"unknown command {command!r}")
    return {"checked": checked, "failures": failures}
