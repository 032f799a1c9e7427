"""Certificate kinds.  CERTIFICATES has one row per kind: the verdict it
proves, its data keys, its derivation of the data from the action and
the verdict's subject, which the engines build each verdict with
(Verdict.of), and its check of what the derivation does not fix: route
A against route B, c(D) against the witness, the factors against the
characteristic polynomial, the common factor against the presenter.  A
Verdict keeps its subject, an element's dual matrix in a one-item list,
the dual generators, a direction, or None for the two-variable Laurent
group, so replay runs the check on the verdict the engine derived.

Toral and solenoid claims are checked with a generator's own c(D) and
c(D)**r, c the product of D's distinct cyclotomic factors, which the
spectrum caches: a character has a finite D-orbit exactly when c(D)
kills it, and D is quasi-unipotent on an invariant subspace exactly
when c(D)**r kills it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import encoding
from .errors import InternalCheckError
from .intpoly import cyclotomic_product
from .laurent import laurent_divides
from .matrices import Matrix, Subspace


def check(condition: bool, failures: list, what: str) -> None:
    if not condition:
        failures.append(what)


def kills(m: Matrix, vectors) -> bool:
    """m sends every one of the vectors to zero."""
    return all(not any(m.matvec(v)) for v in vectors)


def _no_root_of_unity(action, about):
    spectrum = about[0].spectrum
    return None if spectrum.orders else {"char_poly": encoding.encode_poly(spectrum.char_poly)}


def _routes_agree(action, duals, failures) -> None:
    check(all(d.spectrum.singular_orders == d.spectrum.orders for d in duals), failures,
          "cyclotomic division route and determinant route disagree")


def _fixed(action, duals) -> Subspace:
    """The characters with a finite orbit under the duals: an element's
    spectrum caches its own, and the action caches the group's."""
    return (duals[0].spectrum.finite_orbit_subspace if len(duals) == 1
            else action.finite_orbit_subspace)


def _witness(action, duals):
    """The witness character of the group the duals generate,
    MatrixAction.witness_character of their finite-orbit subspace, and
    the lcm of their root-of-unity orders as the power that fixes it."""
    fixed = _fixed(action, duals)
    return None if fixed.is_zero else {
        "character": encoding.encode_vector(action.witness_character(fixed)),
        "power": math.lcm(*(o for d in duals for o in d.spectrum.orders))}


def _witness_fixed(action, duals, failures) -> None:
    """c(D) kills the witness for each D.  Then each D**power fixes it, as
    c divides x**power - 1 and its cofactor is invertible at D."""
    _routes_agree(action, duals, failures)
    chi = action.witness_character(_fixed(action, duals))
    check(all(kills(d.spectrum.cyclotomic_at, [chi]) for d in duals), failures,
          "witness character is not fixed by the stated power")


def _cyclotomic_char_poly(action, about):
    spectrum = about[0].spectrum
    return {"factors": encoding.encode_factors(spectrum.factors)} if spectrum.rest.is_one else None


def _non_cyclotomic_factor(action, about):
    spectrum = about[0].spectrum
    return None if spectrum.rest.is_one else {
        "factor": encoding.encode_poly(spectrum.rest),
        "cyclotomic_part": encoding.encode_factors(spectrum.factors)}


def _multiplies_back(action, about, failures) -> None:
    spectrum = about[0].spectrum
    check(cyclotomic_product(spectrum.factors) * spectrum.rest == spectrum.char_poly,
          failures, "cyclotomic factors do not multiply back to the characteristic polynomial")


def _first_non_distal(action, duals):
    distal = [d.spectrum.rest.is_one for d in duals]
    return None if all(distal) else {"generator": distal.index(False) + 1}


def _finite_quotient(action, direction):
    """The least power k with a common factor of g and u^(k*direction) - 1,
    and that factor, from g's content along the direction."""
    if len(action.content(direction)[2]) == 1:
        return None
    k, common = action.witness(direction)
    return {"power": k, "common_factor": encoding.encode_laurent(common)}


def _divides_presenter(action, direction, failures) -> None:
    # h | g and h | u^(k*direction) - 1 with h not a unit: then
    # (u^(k*direction) - 1)*(g/h) lies in (g), and g/h does not
    check(laurent_divides(action.witness(direction)[1], action.presenter) is not None,
          failures, "common factor does not divide the presenter")


class Row(NamedTuple):
    """A certificate kind.  derive returns its JSON-ready data about the
    subject, or None when the kind does not hold of it; check is None
    when the derivation is the whole claim."""

    proves: str
    keys: tuple
    derive: Callable
    check: Callable | None


CERTIFICATES = {
    "no-root-of-unity-eigenvalue": Row(
        "ergodic", ("char_poly",), _no_root_of_unity, _routes_agree),
    "zero-finite-orbit-subspace": Row(
        "ergodic", (),
        lambda action, duals: {} if action.finite_orbit_subspace.is_zero else None, None),
    "witness-character": Row(
        "not-ergodic", ("character", "power"), _witness, _witness_fixed),
    "cyclotomic-char-poly": Row(
        "distal", ("factors",), _cyclotomic_char_poly, _multiplies_back),
    "all-generators-quasi-unipotent": Row(
        "distal", (),
        lambda action, duals: {} if all(d.spectrum.rest.is_one for d in duals) else None,
        None),
    "non-cyclotomic-factor": Row(
        "not-distal", ("factor", "cyclotomic_part"), _non_cyclotomic_factor, _multiplies_back),
    "non-quasi-unipotent-generator": Row(
        "not-distal", ("generator",), _first_non_distal, None),
    "finite-quotient-witness": Row(
        "not-ergodic", ("power", "common_factor"), _finite_quotient, _divides_presenter),
    "trivial-univariate-content": Row(
        "ergodic", (),
        lambda action, direction: {} if len(action.content(direction)[2]) == 1 else None,
        None),
    "coprime-axis-powers": Row(
        "ergodic", (), lambda action, about: (
            None if action.presenter.is_zero or action.presenter.is_unit else {}), None),
}


@dataclass(frozen=True)
class Verdict:
    """A certificate kind, which fixes the verdict, its JSON-ready data,
    and the subject its row's derivation and check read."""

    certificate: str
    data: dict
    about: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        row = CERTIFICATES.get(self.certificate)
        if row is None or self.data.keys() != set(row.keys):
            raise InternalCheckError(
                f"not a certificate: {self.certificate!r} with data keys {sorted(self.data)}")

    @classmethod
    def of(cls, certificate: str, action, about) -> "Verdict":
        """The kind's verdict with its row's data about the subject;
        InternalCheckError if the kind fails it."""
        data = CERTIFICATES[certificate].derive(action, about)
        if data is None:
            raise InternalCheckError(f"a {certificate} certificate does not hold of its subject")
        return cls(certificate, data, about)

    def check(self, action, failures: list) -> None:
        """Run the row's independent check on the subject."""
        row_check = CERTIFICATES[self.certificate].check
        if row_check is not None:
            row_check(action, self.about, failures)

    @property
    def kind(self) -> str:
        return CERTIFICATES[self.certificate].proves

    @property
    def is_ergodic(self) -> bool:
        return self.kind == "ergodic"

    @property
    def is_distal(self) -> bool:
        return self.kind == "distal"

    def to_payload(self) -> dict:
        return {"kind": self.kind, "certificate": {"kind": self.certificate, "data": self.data}}
