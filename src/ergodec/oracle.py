"""Brute-force verification of the dual orbit semantics.

Orbits are walked character by character over the dual generators
alone, and finiteness means the walk closed: a generator permutes any
finite set it maps into itself, so a finite closure under the
generators is the group orbit.  The oracle decides finiteness only by
walking: it consults the analytic finite-orbit subspace, the action's
MatrixAction.finite_orbit_subspace, only to compare against it and to
choose which disagreements to walk again.  A walk that gives up (too
many characters visited, or coordinates past the size guard) certifies
nothing; only the analytic side can assert an orbit is infinite.

Every walk is walk_orbit over orbit_maps(action), the dual generators
compiled to closures, and replay takes none of its own: it reads or
re-runs cross_validate.  Matrix.matvec is only the reference the tests
check those maps against.
Cross-validation first walks each generator's cycle through a
character, one generator at a time, with walk_orbit over that generator
alone: a one-map walk is exactly its forward cycle.  The generators
commute, so an orbit is finite if and only if every cyclic orbit
closes: if each generator g_i returns chi after n_i steps, then g_i^n_i
fixes every point g_1^m_1 ... g_d^m_d chi of the orbit, so the orbit
holds only the points with 0 <= m_i < n_i.  A cycle that passes
the visited cap or the coordinate guard ends the check at once, and
only the orbits whose cycles all close are walked breadth-first over
all the generators to measure their size against the cap.
Cross-validation covers a whole box of characters, shares work between
characters that turn out to lie on the same orbit, and flags any
disagreement with the engine as a hard failure.  It also answers -chi
from chi's walk: the maps are linear, so the walk from -chi is the walk
from chi negated point by point, and since the coordinate guard tests
|coordinate| it closes with the same orbit size or gives up at the same
step for the same reason.  The box is symmetric under chi -> -chi, so
about half its walks are saved this way; only the start is mirrored,
not every point a walk visits.

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

The coordinate guard, 2**COORD_BITS, only saves time on orbits whose
coordinates grow without bound.  A finite orbit can have large
points too, so a character inside the finite-orbit subspace is walked
without it, each cycle still bounded by M(r) steps and the orbit by the
cap.  Characters outside the subspace keep the guard.  The subspace is
invariant, so no orbit crosses its boundary and the two kinds of walk
never meet.
"""

from __future__ import annotations

import itertools
from operator import mul

from .errors import SHORT, Issue, ValidationError, shown
from .intpoly import max_torsion_order

COORD_BITS = 64
# Most nonzero characters a cross-validation box may hold: (2b+1)^r - 1
# grows past any run time long before r or b look large.
MAX_BOX_CHARACTERS = 10 ** 6


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
    if n == 4:
        (a, b, c, d), (e, f, g, h), (i, j, k, m), (o, p, q, r) = rows
        return lambda v: (a * v[0] + b * v[1] + c * v[2] + d * v[3],
                          e * v[0] + f * v[1] + g * v[2] + h * v[3],
                          i * v[0] + j * v[1] + k * v[2] + m * v[3],
                          o * v[0] + p * v[1] + q * v[2] + r * v[3])
    return lambda v: tuple([sum(map(mul, row, v)) for row in rows])


def orbit_maps(action):
    """The dual generators of a toral action as compiled maps."""
    return [_compile_map(d.rows) for d in action.dual_generators]


def walk_orbit(maps, start, cap: int, guard=None, known=None):
    """Breadth-first walk of the orbit of start under the given maps.

    The walk gives up when it reaches a point of the container known,
    when a new point has a coordinate of absolute value at least guard,
    or once more than cap points are seen.  Returns (seen, stop, last):
    seen is the set of points reached, stop is None when the orbit closed
    and otherwise "known", "coordinate-guard" or "visited-cap", and last
    is the point that stopped the walk.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for apply_map in maps:
                w = apply_map(v)
                if w in seen:
                    continue
                if known is not None and w in known:
                    return seen, "known", w
                if guard is not None and max(map(abs, w)) >= guard:
                    return seen, "coordinate-guard", w
                seen.add(w)
                nxt.append(w)
                if len(seen) > cap:
                    return seen, "visited-cap", w
        frontier = nxt
    return seen, None, None


def box_characters(dim: int, norm_bound: int):
    """The nonzero integer characters with every coordinate in
    [-norm_bound, norm_bound], in lexicographic order."""
    side = range(-norm_bound, norm_bound + 1)
    return (chi for chi in itertools.product(side, repeat=dim) if any(chi))


def box_issue(action, norm_bound: int, cap: int) -> Issue | None:
    """The issue that stops a cross-validation box, or None: a schema
    issue for an action that is not toral or a norm bound or cap that is
    not a positive int, and a resource-limit issue for a box of more than
    MAX_BOX_CHARACTERS nonzero characters."""
    if action.kind != "toral":
        return Issue("schema", (), "orbits are enumerated on tori only")
    if not all(type(x) is int and x >= 1 for x in (norm_bound, cap)):
        return Issue("schema", (), "the norm bound and the cap must be positive integers")
    # a norm bound of SHORT or more puts the box past the limit in any dimension
    count = (2 * min(norm_bound, SHORT) + 1) ** action.dim - 1
    if count <= MAX_BOX_CHARACTERS:
        return None
    held = count if count < SHORT else f"more than {MAX_BOX_CHARACTERS}"
    return Issue("resource-limit", (),
                 f"the norm-bound {shown(norm_bound)} box in dimension {action.dim} holds "
                 f"{held} characters, above the limit of {MAX_BOX_CHARACTERS}")


def cross_validate(action, norm_bound: int, cap: int) -> dict:
    """Differential test of the finite-orbit subspace against orbit
    enumeration, over every nonzero integer character in the box.  Work
    is shared between characters that turn out to lie on the same orbit,
    and -chi takes chi's status without a walk: the maps are linear and
    the guard tests |coordinate|, so -chi's walk would be chi's negated.
    Whether a character lies in the subspace is decided for each one, so
    a failure is recorded for -chi as for chi, in box order.

    Hard failures: a finite enumerated orbit whose character lies outside
    the engine's finite-orbit subspace, or a character inside it whose
    enumeration did not close.  Exceeded-cap outside the subspace is
    consistent by construction.  The box_issue of the action, box and
    cap, if any, raises ValidationError.
    """
    issue = box_issue(action, norm_bound, cap)
    if issue is not None:
        raise ValidationError([issue])
    fixed = action.finite_orbit_subspace
    maps = orbit_maps(action)
    guard = 1 << COORD_BITS
    period_bound = max_torsion_order(action.dim)
    cycle_cap = min(cap, period_bound)
    status_of: dict = {}

    def classify(start, guard):
        """("finite", size) or ("exceeded-cap", reason) for start's orbit,
        from its cycles, one generator at a time, and then, when every
        cycle closed, the orbit they make finite."""
        if start in status_of:
            return status_of[start]
        seen, stop, last = set(), None, None
        for apply_map in maps:
            cycle, stop, last = walk_orbit([apply_map], start, cycle_cap, guard, status_of)
            seen |= cycle
            if stop == "visited-cap" and period_bound < cap:
                stop = "period-bound"
            if stop is not None:
                break
        if stop is None and len(maps) > 1:
            seen, stop, last = walk_orbit(maps, start, cap, guard, status_of)
        if stop is None:
            status = ("finite", len(seen))
        elif stop == "known":
            # Same orbit as an already-walked point; inherit its status.
            status = status_of[last]
        else:
            status = ("exceeded-cap", stop)
        for v in seen:
            status_of.setdefault(v, status)
        # The maps are linear, so the walk from -start is this one negated
        # point by point, and the guard tests |coordinate|: it would stop
        # at the same step for the same reason, or close at the same size.
        status_of.setdefault(tuple([-x for x in start]), status)
        return status

    checked = finite_count = 0
    failures = []
    for chi in box_characters(action.dim, norm_bound):
        checked += 1
        # The guard only saves time on orbits that grow without bound; a
        # cycle inside the subspace closes within M(r) steps however large
        # its coordinates, so characters there are walked without it.  The
        # subspace is invariant, so an orbit never crosses its boundary.
        inside = fixed.contains(chi)
        status, detail = classify(chi, None if inside else guard)
        finite = status == "finite"
        finite_count += finite
        if finite and not inside:
            failures.append({"character": list(chi), "kind": "finite-orbit-outside-subspace",
                             "orbit_size": detail})
        elif inside and not finite:
            failures.append({"character": list(chi),
                             "kind": "enumeration-gave-up-inside-subspace", "reason": detail})
    return {
        "characters_checked": checked,
        "finite_orbits": finite_count,
        "exceeded": checked - finite_count,
        "failures": failures,
    }
