"""Ergodicity and distality decisions for toral and solenoidal actions.

Everything is decided on the dual side.  A character has a finite orbit
under a single automorphism exactly when the dual matrix has a
root-of-unity eigenvalue on its rational span.  Such an eigenvalue of an
r-by-r rational matrix X has an order d with phi(d) <= r, so the
cyclotomic polynomials of those orders expose them all: the finite-orbit
characters are the kernel of c(X), c the product of the distinct
cyclotomic factors of X's characteristic polynomial, and X is
quasi-unipotent exactly when c(X)**r = 0.  Every operation returns a
verdict with a certificate that can be replayed by exact linear algebra
alone, and each order d is detected by two independent routes asserted
to agree: cyclotomic(d) divides the characteristic polynomial, and
cyclotomic(d) at X is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import encoding
from .actions import dual_element, positive_vectors
from .errors import InternalCheckError, NotErgodicGroupError
from .matrices import (Matrix, Spectrum, Subspace, fixed_by_power, kernel,
                       quasi_unipotent_on, stage_quotient, walk_orbit)

_ORBIT_ENUMERATION_CAP = 200_000


class VerdictKind(str, Enum):
    ERGODIC = "ergodic"
    NOT_ERGODIC = "not-ergodic"
    DISTAL = "distal"
    NOT_DISTAL = "not-distal"


@dataclass(frozen=True)
class Certificate:
    """Replayable evidence for a verdict; data is JSON-ready."""

    kind: str
    data: dict

    def to_payload(self) -> dict:
        return {"kind": self.kind, "data": self.data}


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    certificate: Certificate

    @property
    def is_ergodic(self) -> bool:
        return self.kind == VerdictKind.ERGODIC

    @property
    def is_distal(self) -> bool:
        return self.kind == VerdictKind.DISTAL

    def to_payload(self) -> dict:
        return {"kind": self.kind.value, "certificate": self.certificate.to_payload()}


@dataclass(frozen=True)
class FiltrationReport:
    """Weakly decreasing chain of invariant dual subspaces with one
    generator certified ergodic on each successive quotient."""

    chain: tuple
    attributions: tuple
    residual: Subspace
    group_ergodic: bool

    def dims(self) -> tuple:
        return tuple(w.dim for w in self.chain)

    def to_payload(self) -> dict:
        return {
            "chain": [encoding.encode_subspace(w) for w in self.chain],
            "dims": list(self.dims()),
            "attributions": list(self.attributions),
            "residual": encoding.encode_subspace(self.residual),
            "group_ergodic": self.group_ergodic,
        }


def _checked_spectrum(b: Matrix) -> Spectrum:
    """The spectrum of a dual matrix, with its cyclotomic division route
    and cyclotomic determinant route asserted to agree order by order."""
    spectrum = b.spectrum
    if spectrum.orders != spectrum.singular_orders:
        raise InternalCheckError(
            "cyclotomic division route and cyclotomic determinant route disagree")
    return spectrum


def is_ergodic_element(action, exponents) -> Verdict:
    """Ergodicity of a single product of generator powers."""
    b = dual_element(action, exponents)
    spectrum = _checked_spectrum(b)
    if not spectrum.orders:
        cert = Certificate("no-root-of-unity-eigenvalue", {
            "char_poly": encoding.encode_poly(spectrum.char_poly),
        })
        return Verdict(VerdictKind.ERGODIC, cert)
    witness = _witness_vector(action, fixed_by_power([b]))
    cert = Certificate("witness-character", {
        "character": encoding.encode_vector(witness),
        "power": math.lcm(*spectrum.orders),
        "shared_orders": spectrum.orders,
    })
    return Verdict(VerdictKind.NOT_ERGODIC, cert)


def _witness_vector(action, subspace: Subspace):
    if subspace.is_zero:
        raise InternalCheckError("expected a nonzero fixed subspace")
    if action.kind == "toral":
        return subspace.integral_basis()[0]
    return subspace.basis[0]


def is_distal_element(action, exponents) -> Verdict:
    """Distality of a single product of generator powers: the dual matrix
    must be quasi-unipotent."""
    spectrum = _checked_spectrum(dual_element(action, exponents))
    if spectrum.rest.is_one != spectrum.unipotent_power.is_zero:
        raise InternalCheckError(
            "cyclotomic factorization route and nilpotency route disagree")
    factors = [[d, c] for d, c in spectrum.factors]
    if spectrum.rest.is_one:
        return Verdict(VerdictKind.DISTAL, Certificate("cyclotomic-char-poly", {
            "factors": factors,
        }))
    cert = Certificate("non-cyclotomic-factor", {
        "factor": encoding.encode_poly(spectrum.rest),
        "cyclotomic_part": factors,
    })
    return Verdict(VerdictKind.NOT_DISTAL, cert)


def finite_orbit_subspace(action) -> Subspace:
    """Characters of the dual space whose group orbit is finite: the
    common kernel of the cyclotomic parts of the dual generators."""
    return fixed_by_power(action.dual_generators)


def _enumerate_finite_orbit(action, chi):
    """Full group orbit of a character known to be finite: the closed
    walk over the dual generators.  Each generator permutes a finite
    invariant set, so the set is closed under the inverses as well."""
    maps = [d.matvec for d in action.dual_generators]
    seen, stop, _ = walk_orbit(maps, chi, _ORBIT_ENUMERATION_CAP)
    if stop is not None:
        raise InternalCheckError("orbit enumeration exceeded the safety cap")
    return sorted(seen)


def is_ergodic_group(action) -> Verdict:
    """Group ergodicity: no nonzero character with a finite orbit."""
    fixed = finite_orbit_subspace(action)
    if fixed.is_zero:
        return Verdict(VerdictKind.ERGODIC, Certificate("zero-finite-orbit-subspace", {}))
    witness = _witness_vector(action, fixed)
    orbit = _enumerate_finite_orbit(action, witness)
    cert = Certificate("witness-character", {
        "character": encoding.encode_vector(witness),
        "power": math.lcm(*(d for x in action.dual_generators for d in x.spectrum.orders)),
        "orbit_size": len(orbit),
        "orbit": [encoding.encode_vector(v) for v in orbit],
    })
    return Verdict(VerdictKind.NOT_ERGODIC, cert)


def is_distal_group(action) -> Verdict:
    """Group distality is equivalent to distality of every generator for
    commuting automorphisms."""
    n = action.n_generators
    distal = [is_distal_element(action, tuple(1 if j == i else 0 for j in range(n))).is_distal
              for i in range(n)]
    if all(distal):
        return Verdict(VerdictKind.DISTAL, Certificate("all-generators-quasi-unipotent", {}))
    return Verdict(VerdictKind.NOT_DISTAL, Certificate("non-quasi-unipotent-generator", {
        "generator": distal.index(False) + 1,
    }))


def largest_ergodic_subgroup(action):
    """Smallest invariant dual subspace whose quotient carries no nonzero
    finite-orbit character.  The corresponding closed subgroup is the
    largest one the group acts ergodically on, and the action on the
    quotient by that subgroup is distal because every generator is
    quasi-unipotent on the returned subspace.

    It is the common kernel of the c(D)**n over the dual generators D,
    zero exactly when no character has a finite orbit: on a nonzero
    invariant subquotient, commuting quasi-unipotent matrices always
    share a vector with a finite orbit.

    Returns (subspace, report).
    """
    duals = action.dual_generators
    w = finite_orbit_subspace(action)
    if not w.is_zero:
        w = kernel(Matrix.from_rows(
            [row for d in duals for row in d.spectrum.unipotent_power.rows]))
    for d in duals:
        if not w.is_invariant(d):
            raise InternalCheckError("common kernel is not invariant")
        if not quasi_unipotent_on(d, w):
            raise InternalCheckError("generator is not quasi-unipotent on the result")
    report = {
        "subspace": encoding.encode_subspace(w),
        "quotient_has_no_finite_orbit": True,
        "generators_quasi_unipotent_on_subspace": True,
    }
    return w, report


def ergodic_distal_filtration(action) -> FiltrationReport:
    """Chain of invariant dual subspaces, one stage per generator, with
    generator i certified ergodic on the stage quotient and every
    generator quasi-unipotent on the residual."""
    rank = action.dim
    duals = action.dual_generators
    w_prev = Subspace.full(rank)
    chain = [w_prev]
    attributions = []
    for i, d in enumerate(duals, start=1):
        w_i = kernel(d.spectrum.unipotent_power).intersect(w_prev)
        for other in duals:
            if not w_i.is_invariant(other):
                raise InternalCheckError("stage subspace is not invariant")
        # no nonzero character of the stage quotient has a finite d-orbit
        if (w_prev.dim != w_i.dim
                and not fixed_by_power([stage_quotient(d, w_prev, w_i)]).is_zero):
            raise InternalCheckError("stage quotient carries a finite-orbit character")
        attributions.append({
            "stage": i,
            "generator": i,
            "dim_from": w_prev.dim,
            "dim_to": w_i.dim,
            "ergodic_on_quotient": True,
        })
        chain.append(w_i)
        w_prev = w_i
    residual = chain[-1]
    for d in duals:
        if not quasi_unipotent_on(d, residual):
            raise InternalCheckError("generator is not quasi-unipotent on the residual")
    group_verdict = is_ergodic_group(action)
    if residual.is_zero != group_verdict.is_ergodic:
        raise InternalCheckError(
            "residual vanishing disagrees with the independent group verdict")
    return FiltrationReport(tuple(chain), tuple(attributions), residual,
                            group_verdict.is_ergodic)


def find_ergodic_exponents(action):
    """First all-positive exponent vector, by increasing coordinate sum
    then lexicographic order, whose product element is ergodic.

    The search is total (Berend's argument): for an ergodic group, the
    vectors whose element is not ergodic lie in at most r hyperplanes,
    one per joint eigenvalue tuple of the r-by-r dual generators, and a
    hyperplane holds at most a (d - 1)/(S - 1) share of the positive
    vectors with sum S, so some vector with sum r*(d - 1) + 2 is ergodic.

    Returns (exponents, element_verdict).  Raises NotErgodicGroupError
    when the group itself is not ergodic.
    """
    group = is_ergodic_group(action)
    if not group.is_ergodic:
        raise NotErgodicGroupError(group.to_payload())
    n = action.n_generators
    bound = action.dim * (n - 1) + 2
    for total in range(n, bound + 1):
        for exps in positive_vectors(n, total):
            v = is_ergodic_element(action, exps)
            if v.is_ergodic:
                return exps, v
    raise InternalCheckError(f"no ergodic element within coordinate sum {bound}")


def mixing_flag(verdict: Verdict) -> bool:
    """A single ergodic automorphism of a compact group is mixing of all
    orders; this flag only reflects the ergodicity verdict."""
    return verdict.is_ergodic
