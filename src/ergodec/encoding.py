"""Canonical JSON-ready encodings of exact values.

Certificates and reports carry only plain data: ints stay ints, proper
fractions become "num/den" strings, and structured values become lists and
dicts with deterministic ordering.  Decoding inverts the encoding exactly,
and refuses a dict whose keys are not the encoding's.

A verdict is its certificate: CERTIFICATES maps each certificate kind to
the verdict it proves and the keys of its data, for the engines that
build verdicts and for replay, which checks them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError
from .intpoly import Polynomial
from .laurent import LaurentPoly
from .matrices import Matrix, Subspace

# The verdict each certificate kind proves, and the keys of its data.
CERTIFICATES = {
    "no-root-of-unity-eigenvalue": ("ergodic", {"char_poly"}),
    "zero-finite-orbit-subspace": ("ergodic", set()),
    "witness-character": ("not-ergodic", {"character", "power"}),
    "cyclotomic-char-poly": ("distal", {"factors"}),
    "all-generators-quasi-unipotent": ("distal", set()),
    "non-cyclotomic-factor": ("not-distal", {"factor", "cyclotomic_part"}),
    "non-quasi-unipotent-generator": ("not-distal", {"generator"}),
    "finite-quotient-witness": ("not-ergodic", {"power", "common_factor"}),
    "trivial-univariate-content": ("ergodic", set()),
    "coprime-axis-powers": ("ergodic", set()),
}


@dataclass(frozen=True)
class Verdict:
    """A certificate kind from CERTIFICATES and its JSON-ready data; the
    kind fixes the verdict."""

    certificate: str
    data: dict

    def __post_init__(self):
        proves = CERTIFICATES.get(self.certificate)
        if proves is None or self.data.keys() != proves[1]:
            raise InternalCheckError(
                f"not a certificate: {self.certificate!r} with data keys {sorted(self.data)}")

    @property
    def kind(self) -> str:
        return CERTIFICATES[self.certificate][0]

    @property
    def is_ergodic(self) -> bool:
        return self.kind == "ergodic"

    @property
    def is_distal(self) -> bool:
        return self.kind == "distal"

    def to_payload(self) -> dict:
        return {"kind": self.kind, "certificate": {"kind": self.certificate, "data": self.data}}


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
