"""Ergodicity decisions for translation actions on duals of cyclic
Laurent quotient modules over a prime field.

The module S/(g) is cyclic and the ideal is principal, so membership is
exact divisibility in a unique factorization domain.  Write a direction
as n = m*n0 with n0 primitive and t = u^n0.  A non-unit common factor of
g and u^(k*n) - 1 = t^(k*m) - 1 is, up to a unit, a polynomial in t, and
a polynomial in t divides g exactly when it divides g's content along n0.
A content of 1 therefore makes the direction ergodic.  A non-unit
content has a nonzero constant term, so t has finite order modulo each of
its factors, and the least power k with a common factor is the witness:
the least order of t^m modulo an irreducible factor h of the content.
That order divides p^(deg h) - 1, so laurent.witness_power gcd-tests only
the k that divide p^d - 1 for some d up to the content's degree.  Every
direction is decided exactly this way, within the search budget
laurent.MAX_WITNESS_STEPS, and an ergodic group has an ergodic one within
search_bound shells.
"""

from __future__ import annotations

from .errors import InternalCheckError, NotErgodicGroupError
from .laurent import directions_in_shell
from .certificates import Verdict


def direction_is_ergodic(action, direction) -> Verdict:
    """Ergodicity of the translation by u^direction on the dual of S/(g),
    decided by g's content along the direction.  A negative verdict
    carries the least witness power k and the common factor of g and
    u^(k*direction) - 1, mapped back from t to u^n0.  The certificate
    names no direction: the report entry that holds it does.  content_along
    refuses a zero direction and one of the wrong length."""
    return Verdict.of(action, direction, "trivial-univariate-content", "finite-quotient-witness")


def group_is_ergodic(action) -> Verdict:
    """Ergodicity of the full translation group.

    One variable: never ergodic (the quotient ring is finite).  Two
    variables: always ergodic, exactly: a character with finite group
    orbit needs one power k with both u1^k - 1 and u2^k - 1 multiplying a
    nonzero class into the ideal, and since those two polynomials are
    coprime the class itself lands in the ideal.
    """
    if action.nvars == 1:
        return direction_is_ergodic(action, (1,))
    return Verdict.of(action, None, "coprime-axis-powers")


def search_bound(action) -> int:
    """The shell by which find_ergodic_direction finds an ergodic
    direction: one more than g's smaller width.  A non-ergodic line n0
    puts a factor of g in u^n0 alone, whose Newton segment is a Minkowski
    summand of g's (Ostrowski; Gao, J. Algebra 237, 2001), so shells
    1..s without an ergodic line make both widths at least s."""
    return 1 + min(action.presenter.degree_in(v) for v in range(action.nvars))


def find_ergodic_direction(action):
    """First direction, scanning sup-norm shells in descending
    lexicographic order up to search_bound, whose translation is ergodic.

    Returns (direction, verdict).  Raises NotErgodicGroupError when the
    group itself is not ergodic.
    """
    group = group_is_ergodic(action)
    if not group.is_ergodic:
        raise NotErgodicGroupError(group.to_payload())
    bound = search_bound(action)
    for shell in range(1, bound + 1):
        for direction in directions_in_shell(action.nvars, shell):
            verdict = direction_is_ergodic(action, direction)
            if verdict.is_ergodic:
                return direction, verdict
    raise InternalCheckError(f"no ergodic direction within shell {bound}")
