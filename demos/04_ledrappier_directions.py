"""Direction-by-direction ergodicity on the Ledrappier three-dot system.

The module is S/(g) with S the Laurent polynomials over F_2 in two
variables and g = 1 + u1 + u2.  The translation group of the full
two-parameter lattice is ergodic, exactly, because a class with finite
group orbit would have to absorb two coprime axis identities at once.

Every single direction is decided exactly too.  Write the direction as
n = m*n0 with n0 primitive.  A common factor of g and u^(k*n) - 1 is a
polynomial in u^n0, so the direction is ergodic exactly when g's content
along n0 is 1.  Ledrappier's g has trivial content along every
direction.  Multiplying it by 1 + u1*u2 plants a factor in u^(1, 1), which
makes the diagonal non-ergodic: the exact verdict names the least
witness power k = 1 and the common factor h = 1 + u1*u2 of the planted
presenter and u^(k*(1, 1)) - 1, so the class of the presenter divided by
h, which is g, has a finite orbit along the diagonal.

The search for an ergodic direction needs no box: a non-ergodic line
puts a factor of g in u^n0 alone, whose Newton segment is a Minkowski
summand of g's, so an ergodic direction lies within one shell more than
g's smaller width.  A one-variable
presenter, by contrast, has a finite module, so no translation is ever
ergodic there.
"""

from ergodec import (LaurentPoly, content_along, direction_is_ergodic,
                     find_ergodic_direction, group_is_ergodic, laurent_cyclic_action)
from ergodec.encoding import decode_laurent
from ergodec.laurent_engine import search_bound

DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 2), (2, -1))


def show_first(action):
    found, _ = find_ergodic_direction(action)
    print(f"first ergodic direction: {found} (the search ends by shell "
          f"{search_bound(action)})")


def show(action, directions):
    for direction in directions:
        verdict = direction_is_ergodic(action, direction)
        m, n0, content = content_along(action.presenter, direction)
        extra = ""
        if not verdict.is_ergodic:
            extra = f", witness power {verdict.data['power']}"
        print(f"  direction {direction} = {m}*{n0}: content {content}, "
              f"{verdict.kind}{extra}")


def main():
    g = LaurentPoly.from_terms(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    action = laurent_cyclic_action(2, 2, g)
    print(f"presenter g = {g} over F_2")
    print(f"group verdict: {group_is_ergodic(action).kind}")
    show(action, DIRECTIONS)
    show_first(action)

    print()
    planted = g * LaurentPoly.from_terms(2, 2, {(0, 0): 1, (1, 1): 1})
    act2 = laurent_cyclic_action(2, 2, planted)
    print(f"planted presenter (1 + u1*u2) * g = {planted}")
    show(act2, DIRECTIONS)
    show_first(act2)
    data = direction_is_ergodic(act2, (1, 1)).data
    print(f"along (1, 1): least witness power {data['power']}, common factor "
          f"h = {decode_laurent(data['common_factor'])}")

    print()
    g1 = LaurentPoly.from_terms(2, 1, {(0,): 1, (1,): 1, (2,): 1})
    act1 = laurent_cyclic_action(2, 1, g1)
    v = direction_is_ergodic(act1, (1,))
    print(f"one variable, g = {g1}: {v.kind} with witness power "
          f"{v.data['power']} (the module is finite)")


if __name__ == "__main__":
    main()
