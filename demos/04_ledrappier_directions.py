"""Direction-by-direction ergodicity on the Ledrappier three-dot system.

The module is S/(g) with S the Laurent polynomials over F_2 in two
variables and g = 1 + u1 + u2.  The translation group of the full
two-parameter lattice is ergodic, exactly, because a class with finite
group orbit would have to absorb two coprime axis identities at once.

Along a coordinate axis the question is exact too: divisors of
u^k - 1 live in one variable, and g has trivial univariate content, so
both axis translations are ergodic.  For mixed directions the scan is
honest about being bounded.  A one-variable presenter, by contrast, has
a finite module, so no translation is ever ergodic there.
"""

from ergodec import (LaurentPoly, VerdictKind, direction_is_ergodic,
                     find_ergodic_direction, group_is_ergodic, laurent_cyclic_action,
                     orbit_probe)


def tag(verdict):
    """Every verdict kind is exact except the bounded mixed-direction one."""
    if verdict.kind == VerdictKind.ERGODIC_UP_TO:
        return f"searched up to k={verdict.certificate.data['k_max']}"
    return "exact"


def main():
    g = LaurentPoly.from_terms(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    action = laurent_cyclic_action(2, 2, g)
    print(f"presenter g = {g} over F_2")

    group = group_is_ergodic(action)
    print(f"group verdict: {group.kind.value} ({tag(group)})")

    for direction in ((1, 0), (0, 1), (1, 1), (2, -1)):
        verdict = direction_is_ergodic(action, direction)
        print(f"direction {direction}: {verdict.kind.value} ({tag(verdict)})")

    found, verdict = find_ergodic_direction(action, search_box=3)
    print(f"first certified ergodic direction in the box: {found}")

    probe = orbit_probe(action, LaurentPoly.one(2, 2), (1, 0), cap=64)
    print(f"orbit probe of the class of 1 along (1, 0): {probe}")

    print()
    g1 = LaurentPoly.from_terms(2, 1, {(0,): 1, (1,): 1, (2,): 1})
    act1 = laurent_cyclic_action(2, 1, g1)
    v = direction_is_ergodic(act1, (1,))
    print(f"one variable, g = {g1}: {v.kind.value} with witness power "
          f"{v.certificate.data['power']} (the module is finite)")


if __name__ == "__main__":
    main()
