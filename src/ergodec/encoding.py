"""Canonical JSON-ready encodings of exact values.

Certificates and reports carry only plain data: ints stay ints, proper
fractions become "num/den" strings, and structured values become lists and
dicts with deterministic ordering.  Decoding inverts the encoding exactly,
and refuses a dict whose keys are not the encoding's.
"""

from __future__ import annotations

from fractions import Fraction

from .intpoly import Polynomial
from .laurent import LaurentPoly
from .matrices import Matrix, Subspace


def encode_scalar(x):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"cannot encode {type(x).__name__}")


def decode_scalar(v):
    """Exact scalar from an int, a "num/den" string or a [num, den] pair
    of ints.  Raises TypeError for any other value, booleans included,
    and ValueError for a malformed string or a zero denominator."""
    if type(v) is int:
        return v
    if isinstance(v, str):
        args = (v,)
    elif isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v):
        args = tuple(v)
    else:
        raise TypeError(f"not an exact scalar: {v!r}")
    try:
        f = Fraction(*args)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None
    return int(f) if f.denominator == 1 else f


def encode_vector(v) -> list:
    return [encode_scalar(x) for x in v]


def decode_vector(v) -> tuple:
    return tuple(decode_scalar(x) for x in v)


def encode_matrix(m: Matrix) -> list:
    return [encode_vector(row) for row in m.rows]


def encode_poly(f: Polynomial) -> list:
    return encode_vector(f.coeffs)


def decode_poly(coeffs) -> Polynomial:
    return Polynomial.from_coeffs(decode_vector(coeffs))


def encode_subspace(s: Subspace) -> dict:
    return {"ambient": s.ambient, "basis": [encode_vector(v) for v in s.basis]}


def decode_subspace(d) -> Subspace:
    if not (isinstance(d, dict) and d.keys() == {"ambient", "basis"}):
        raise ValueError("not an encoded subspace")
    return Subspace.span(d["ambient"], [decode_vector(v) for v in d["basis"]])


def encode_laurent(f: LaurentPoly) -> dict:
    return {"p": f.p, "vars": f.nvars,
            "terms": [[list(e), c] for e, c in f.terms]}


def decode_laurent(d) -> LaurentPoly:
    if not (isinstance(d, dict) and d.keys() == {"p", "vars", "terms"}):
        raise ValueError("not an encoded Laurent polynomial")
    return LaurentPoly.from_terms(d["p"], d["vars"],
                                  {tuple(e): c for e, c in d["terms"]})
