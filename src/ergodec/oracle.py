"""Brute-force verification of the dual orbit semantics.

Orbits are walked character by character over the dual generators
alone, and finiteness means the walk closed: a generator permutes any
finite set it maps into itself, so a finite closure under the
generators is the group orbit.  The oracle decides finiteness only by
walking: it never consults the analytic finite-orbit subspace, except
to compare against it.  A walk that gives up (too many characters
visited, or coordinates past the size guard) certifies nothing; only
the analytic side can assert an orbit is infinite.

Cross-validation first walks each generator's cycle through a
character, one generator at a time, with matrices.walk_orbit over that
generator alone: a one-map walk is exactly its forward cycle.  The
generators commute, so an orbit is finite if and only if every cyclic
orbit closes: if each generator g_i returns chi after n_i steps, then
g_i^n_i fixes every point g_1^m_1 ... g_d^m_d chi of the orbit, so the
orbit holds only the points with 0 <= m_i < n_i.  A cycle that passes
the visited cap or the coordinate guard ends the check at once, and
only the orbits whose cycles all close are walked breadth-first over
all the generators to measure their size against the cap.
Cross-validation covers a whole box of characters, shares work between
characters that turn out to lie on the same orbit, and flags any
disagreement with the engine as a hard failure.

A cycle also ends once it has taken M(r) = intpoly.max_torsion_order(r)
steps without coming back ("period-bound"), for no finite cycle is
longer: if a dual generator D returns chi after n steps, D^n is the
identity on W = span{D^i chi}, so D has finite order on W, which is n
because chi is a cyclic vector.  Its minimal polynomial on W is then a
product of distinct cyclotomic Phi_d of total degree dim W <= r, and n,
the lcm of those d, is at most M(r).  An infinite orbit thus costs at
most M(r) steps per generator whatever the cap, and every character is
classified finite or exceeded exactly as a walk to the cap would
classify it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .errors import Issue, ValidationError
from .intpoly import max_torsion_order
from .matrices import walk_orbit
from .toral import finite_orbit_subspace

DEFAULT_COORD_BITS = 64
# Most nonzero characters a cross-validation box may hold: (2b+1)^r - 1
# grows past any run time long before r or b look large.
MAX_BOX_CHARACTERS = 10 ** 6


@dataclass(frozen=True)
class OrbitResult:
    status: str  # "finite" | "exceeded-cap"
    size: int | None
    visited: int
    max_coordinate: int
    reason: str | None  # "visited-cap" | "coordinate-guard" for exceeded-cap

    def to_payload(self) -> dict:
        return {"status": self.status, "size": self.size, "visited": self.visited,
                "max_coordinate": self.max_coordinate, "reason": self.reason}


def _compile_map(rows):
    """Unrolled matrix-vector closure; the orbit walk is the hot path."""
    n = len(rows)
    if n == 1:
        (a,), = rows
        return lambda v: (a * v[0],)
    if n == 2:
        (a, b), (c, d) = rows
        return lambda v: (a * v[0] + b * v[1], c * v[0] + d * v[1])
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return lambda v: (a * v[0] + b * v[1] + c * v[2],
                          d * v[0] + e * v[1] + f * v[2],
                          g * v[0] + h * v[1] + i * v[2])
    return lambda v: tuple([sum(map(mul, row, v)) for row in rows])


def _orbit_maps(action):
    return [_compile_map(d.rows) for d in action.dual_generators]


def _require_toral(action):
    if action.kind != "toral":
        raise ValueError("orbit enumeration runs on integer characters only")


def orbit_bfs(action, chi, cap: int,
              max_coord_bits: int = DEFAULT_COORD_BITS) -> OrbitResult:
    """Breadth-first walk of the group orbit of an integer character.

    Finite status is re-verified on output: the enumerated set must be
    closed under every dual generator.  The walk gives up
    once more than cap characters are visited or a coordinate outgrows
    the bit guard; both outcomes are reported as exceeded-cap with the
    reason recorded, and certify nothing.
    """
    _require_toral(action)
    chi = tuple(int(x) for x in chi)
    if all(x == 0 for x in chi):
        raise ValueError("the zero character is fixed by everything")
    maps = _orbit_maps(action)
    guard = 1 << max_coord_bits
    big = max(map(abs, chi))
    if big >= guard:
        return OrbitResult("exceeded-cap", None, 1, big, "coordinate-guard")
    seen, stop, last = walk_orbit(maps, chi, cap, guard)
    max_abs = max(max(map(abs, v)) for v in seen)
    if stop is not None:
        max_abs = max(max_abs, max(map(abs, last)))
        return OrbitResult("exceeded-cap", None, len(seen), max_abs, stop)
    for v in seen:
        for apply_map in maps:
            if apply_map(v) not in seen:
                raise AssertionError("finite orbit is not closed; enumeration bug")
    return OrbitResult("finite", len(seen), len(seen), max_abs, None)


def box_characters(dim: int, norm_bound: int):
    """The nonzero integer characters with every coordinate in
    [-norm_bound, norm_bound], in lexicographic order."""
    side = range(-norm_bound, norm_bound + 1)
    return (chi for chi in itertools.product(side, repeat=dim) if any(chi))


def box_limit_issue(dim: int, norm_bound: int) -> Issue | None:
    """The resource-limit issue of a box with more than
    MAX_BOX_CHARACTERS nonzero characters, or None."""
    count = (2 * norm_bound + 1) ** dim - 1
    if count <= MAX_BOX_CHARACTERS:
        return None
    return Issue("resource-limit", (),
                 f"the norm-bound {norm_bound} box in dimension {dim} holds {count} "
                 f"characters, above the limit of {MAX_BOX_CHARACTERS}")


def cross_validate(action, norm_bound: int, cap: int,
                   max_coord_bits: int = DEFAULT_COORD_BITS) -> dict:
    """Differential test of the finite-orbit subspace against orbit
    enumeration, over every nonzero integer character in the box.

    Hard failures: a finite enumerated orbit whose character lies outside
    the engine's finite-orbit subspace, or a character inside it whose
    enumeration did not close.  Exceeded-cap outside the subspace is
    consistent by construction.  A box of more than MAX_BOX_CHARACTERS
    characters raises ValidationError with a resource-limit issue.
    """
    _require_toral(action)
    issue = box_limit_issue(action.dim, norm_bound)
    if issue is not None:
        raise ValidationError([issue])
    fixed = finite_orbit_subspace(action)
    maps = _orbit_maps(action)
    guard = 1 << max_coord_bits
    period_bound = max_torsion_order(action.dim)
    cycle_cap = min(cap, period_bound)
    class_of: dict = {}
    class_status: list = []

    def classify(start):
        if start in class_of:
            return class_of[start]
        seen = set()
        for apply_map in maps:
            cycle, stop, last = walk_orbit([apply_map], start, cycle_cap, guard, class_of)
            seen |= cycle
            if stop is not None:
                break
        if stop == "visited-cap" and period_bound < cap:
            stop = "period-bound"
        elif stop is None and len(maps) > 1:
            # Every cycle closed, so the orbit is finite; size it.
            seen, stop, last = walk_orbit(maps, start, cap, guard, class_of)
        if stop is None:
            status = ("finite", len(seen))
        elif stop == "known":
            # Same orbit as an already-walked class; inherit.
            status = class_status[class_of[last]]
        else:
            status = ("exceeded-cap", stop)
        cid = len(class_status)
        class_status.append(status)
        for v in seen:
            class_of.setdefault(v, cid)
        return cid

    checked = 0
    finite_count = 0
    exceeded_count = 0
    failures = []
    for chi in box_characters(action.dim, norm_bound):
        checked += 1
        cid = classify(chi)
        status = class_status[cid]
        inside = fixed.contains(chi)
        if status[0] == "finite":
            finite_count += 1
            if not inside:
                failures.append({
                    "character": list(chi),
                    "kind": "finite-orbit-outside-subspace",
                    "orbit_size": status[1],
                })
        else:
            exceeded_count += 1
            if inside:
                failures.append({
                    "character": list(chi),
                    "kind": "enumeration-gave-up-inside-subspace",
                    "reason": status[1],
                })
    return {
        "norm_bound": norm_bound,
        "cap": cap,
        "characters_checked": checked,
        "finite_orbits": finite_count,
        "exceeded": exceeded_count,
        "failures": failures,
        "consistent": not failures,
    }

