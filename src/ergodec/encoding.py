"""Canonical JSON-ready encodings of exact values.

Certificates and reports carry only plain data: ints stay ints, proper
fractions become "num/den" strings, and structured values become lists and
dicts with deterministic ordering.  Each encoding is the canonical one.
Decoding inverts it exactly, but also reads other spellings of a scalar
in an input document, such as a "num" string or a [num, den] pair.
Replay decodes nothing from a report's results: it compares them with
the encoding of the engine's own derivation.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import shown
from .intpoly import Polynomial
from .laurent import LaurentPoly
from .matrices import Matrix, Subspace


def encode_scalar(x):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"cannot encode {type(x).__name__}")


_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def decode_scalar(v):
    """Exact scalar from an int, a "num" or "num/den" string of decimal
    digits with an optional leading minus, or a [num, den] pair of ints.
    Raises TypeError for any other value, booleans and other strings
    included, and ValueError for a zero denominator."""
    if type(v) is int:
        return v
    if isinstance(v, str) and _SCALAR.fullmatch(v):
        num, _, den = v.partition("/")
        num, den = int(num), int(den or 1)
    elif isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v):
        num, den = v
    else:
        raise TypeError(f"not an exact scalar: {shown(v)}")
    if den == 0:  # before Fraction, whose message would format num
        raise ValueError(f"zero denominator in {shown(v)}")
    f = Fraction(num, den)
    return int(f) if f.denominator == 1 else f


def encode_vector(v) -> list:
    return [encode_scalar(x) for x in v]


def encode_matrix(m: Matrix) -> list:
    return [encode_vector(row) for row in m.rows]


def encode_poly(f: Polynomial) -> list:
    return encode_vector(f.coeffs)


def encode_factors(factors) -> list:
    """[d, count] pairs in increasing order of d, from (d, count) pairs
    with distinct d or a {d: count} map."""
    return [[d, c] for d, c in sorted(dict(factors).items())]


def encode_subspace(s: Subspace) -> dict:
    return {"ambient": s.ambient, "basis": [encode_vector(v) for v in s.basis]}


def encode_laurent(f: LaurentPoly) -> dict:
    return {"p": f.p, "vars": f.nvars,
            "terms": [[list(e), c] for e, c in f.terms]}


def decode_laurent(d) -> LaurentPoly:
    """Laurent polynomial from its encoding.  Raises ValueError, before
    any arithmetic, unless p is an int of at least 2 and every term is
    [list of ints, int]."""
    if not (isinstance(d, dict) and d.keys() == {"p", "vars", "terms"}
            and type(d["p"]) is int and d["p"] >= 2 and isinstance(d["terms"], list)
            and all(isinstance(t, list) and len(t) == 2 and isinstance(t[0], list)
                    and all(type(x) is int for x in t[0]) and type(t[1]) is int
                    for t in d["terms"])):
        raise ValueError("not an encoded Laurent polynomial")
    return LaurentPoly.from_terms(d["p"], d["vars"],
                                  {tuple(e): c for e, c in d["terms"]})
