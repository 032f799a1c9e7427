"""Ergodicity decisions for translation actions on duals of cyclic
Laurent quotient modules over a prime field.

The module S/(g) is cyclic and the ideal is principal, so membership is
exact divisibility in a unique factorization domain and every negative
verdict is certified by a replayable divisibility identity.  A direction
is non-ergodic exactly when some power of its monomial meets g in a
non-unit common divisor; along a coordinate axis that common divisor is
univariate, which makes the answer exact through a content computation.
For general directions in two variables the scan is bounded: the verdict
is `ergodic-up-to`, and its certificate records the bound.
"""

from __future__ import annotations

from . import encoding
from .errors import InternalCheckError, NotErgodicGroupError, SearchExhaustedError
from .laurent import (LaurentPoly, _fp_divmod, _fp_gcd, _fp_mul, _fp_sub,
                      bivar_gcd, content_in, default_k_max, direction_power_minus_one,
                      laurent_divides)
from .toral import Certificate, Verdict, VerdictKind


def _univariate_witness_power(content, step: int, p: int):
    """Least k with a non-unit common divisor of the content and
    u^(k*step) - 1, found by tracking u^(k*step) modulo the content.
    The content is coprime to u, so a witness exists within the size of
    the multiplicative group of the quotient ring."""
    bound = p ** (len(content) - 1) - 1
    step_poly = [0] * step + [1]
    _, t = _fp_divmod(step_poly, content, p)
    power = list(t)
    for k in range(1, bound + 1):
        shifted = _fp_sub(power, [1], p)
        common = _fp_gcd(content, shifted, p)
        if len(common) > 1:
            return k, common
        power = _fp_divmod(_fp_mul(power, t, p), content, p)[1]
    raise InternalCheckError("no witness power within the certified bound")


def _not_ergodic_certificate(action, direction, k: int, factor: LaurentPoly):
    """Certificate for a finite orbit: the quotient by the common factor
    is a nonzero element killed by u^(k*direction) - 1."""
    g = action.presenter
    witness = laurent_divides(factor, g)
    if witness is None:
        raise InternalCheckError("common factor does not divide the presenter")
    w = direction_power_minus_one(action.p, action.nvars, direction, k)
    quotient = laurent_divides(g, w * witness)
    if quotient is None:
        raise InternalCheckError("witness identity failed the divisibility check")
    if laurent_divides(g, witness) is not None:
        raise InternalCheckError("witness collapses into the ideal")
    return Certificate("finite-quotient-witness", {
        "direction": list(direction),
        "power": k,
        "common_factor": encoding.encode_laurent(factor),
        "witness": encoding.encode_laurent(witness),
        "quotient": encoding.encode_laurent(quotient),
    })


def direction_is_ergodic(action, direction, k_max: int | None = None) -> Verdict:
    """Ergodicity of the translation by u^direction on the dual of S/(g).

    One variable: always non-ergodic (the module is finite), with the
    least witness power, searched up to its certified bound.  Two
    variables: exact along coordinate axes through the univariate content
    of g, bounded scan elsewhere.
    """
    direction = tuple(int(x) for x in direction)
    if len(direction) != action.nvars:
        raise ValueError("direction length must match the variable count")
    if all(x == 0 for x in direction):
        raise ValueError("direction must be nonzero")
    g = action.presenter
    p = action.p
    if action.nvars == 1:
        content = g.univariate_in(0)
        k, common = _univariate_witness_power(content, abs(direction[0]), p)
        factor = LaurentPoly.from_univariate(p, 1, 0, common)
        return Verdict(VerdictKind.NOT_ERGODIC,
                       _not_ergodic_certificate(action, direction, k, factor))
    axis = [i for i in range(2) if direction[i] != 0]
    if len(axis) == 1:
        var = axis[0]
        content = content_in(g, var)
        if len(content) == 1:
            cert = Certificate("trivial-univariate-content", {
                "direction": list(direction),
                "variable": var,
                "content": list(content),
            })
            return Verdict(VerdictKind.ERGODIC, cert)
        k, common = _univariate_witness_power(content, abs(direction[var]), p)
        factor = LaurentPoly.from_univariate(p, 2, var, common)
        return Verdict(VerdictKind.NOT_ERGODIC,
                       _not_ergodic_certificate(action, direction, k, factor))
    bound = default_k_max(action) if k_max is None else k_max
    for k in range(1, bound + 1):
        w = direction_power_minus_one(p, 2, direction, k).canonical()
        common = bivar_gcd(g, w)
        if not common.is_unit:
            return Verdict(VerdictKind.NOT_ERGODIC,
                           _not_ergodic_certificate(action, direction, k, common))
    cert = Certificate("bounded-scan", {
        "direction": list(direction),
        "k_max": bound,
    })
    return Verdict(VerdictKind.ERGODIC_UP_TO, cert)


def group_is_ergodic(action, k_max: int | None = None) -> Verdict:
    """Ergodicity of the full translation group.

    One variable: never ergodic (the quotient ring is finite).  Two
    variables: always ergodic, exactly: a character with finite group
    orbit needs one power k with both u1^k - 1 and u2^k - 1 multiplying a
    nonzero class into the ideal, and since those two polynomials are
    coprime the class itself lands in the ideal.
    """
    if action.nvars == 1:
        return direction_is_ergodic(action, (1,), k_max)
    g = action.presenter
    if g.is_zero or g.is_unit:
        raise InternalCheckError("validated presenter must be a nonzero non-unit")
    cert = Certificate("coprime-axis-powers", {
        "reason": "a simultaneous finite-orbit witness divides both axis "
                  "power identities, whose gcd is a unit",
    })
    return Verdict(VerdictKind.ERGODIC, cert)


def _directions_in_shell(nvars: int, shell: int):
    """Directions with sup-norm equal to shell, in descending
    lexicographic order."""
    if nvars == 1:
        return [(shell,), (-shell,)]
    out = []
    for a in range(shell, -shell - 1, -1):
        for b in range(shell, -shell - 1, -1):
            if max(abs(a), abs(b)) == shell:
                out.append((a, b))
    return out


def find_ergodic_direction(action, search_box: int, k_max: int | None = None):
    """First direction, scanning sup-norm shells in descending
    lexicographic order, whose translation is certified ergodic.  Exact
    verdicts win over bounded ones across the whole box.

    A shell that ends with a bounded hit and no exact one ends the scan:
    no later shell holds an exact verdict, because an axis direction
    k*e_i has the same content as e_i and a mixed direction never gets
    one.

    Returns (direction, verdict).
    """
    group = group_is_ergodic(action, k_max)
    if not group.is_ergodic:
        raise NotErgodicGroupError(group.to_payload())
    first_bounded = None
    for shell in range(1, search_box + 1):
        for direction in _directions_in_shell(action.nvars, shell):
            verdict = direction_is_ergodic(action, direction, k_max)
            if verdict.kind == VerdictKind.ERGODIC:
                return direction, verdict
            if verdict.kind == VerdictKind.ERGODIC_UP_TO and first_bounded is None:
                first_bounded = (direction, verdict)
        if first_bounded is not None:
            return first_bounded
    raise SearchExhaustedError(search_box)


def orbit_probe(action, element: LaurentPoly, direction, cap: int) -> dict:
    """Brute-force orbit finiteness probe: the least power k at most cap
    with (u^(k*direction) - 1) * element in the ideal."""
    direction = tuple(int(x) for x in direction)
    if all(x == 0 for x in direction):
        raise ValueError("direction must be nonzero")
    g = action.presenter
    if laurent_divides(g, element) is not None:
        raise ValueError("element lies in the ideal; its class is zero")
    for k in range(1, cap + 1):
        w = direction_power_minus_one(action.p, action.nvars, direction, k)
        if laurent_divides(g, w * element) is not None:
            return {"status": "finite", "power": k}
    return {"status": "no-finite-orbit-up-to", "cap": cap}
