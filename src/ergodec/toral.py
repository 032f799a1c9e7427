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
to agree: cyclotomic(d) divides the characteristic polynomial, and the
minimal polynomial from Krylov spaces.  Verdict.of picks each verdict's
kind by the certificate rows.  The group's finite-orbit subspace is the
action's own MatrixAction.finite_orbit_subspace, the largest ergodic
subgroup and each filtration stage are a matrices.common_kernel, and
each stage is checked on the map matrices.induced gives on its quotient.
"""

from __future__ import annotations

from .actions import dual_element, ergodic_search_bound, positive_vectors
from .errors import InternalCheckError, NotErgodicGroupError
from .matrices import Matrix, Spectrum, Subspace, common_kernel, induced, quasi_unipotent_on
from .certificates import Verdict


def _checked_spectrum(b: Matrix) -> Spectrum:
    """The spectrum of a dual matrix, with its cyclotomic division route
    and minimal-polynomial route asserted to agree order by order."""
    spectrum = b.spectrum
    if spectrum.orders != spectrum.minimal_poly_orders:
        raise InternalCheckError(
            "cyclotomic division route and minimal-polynomial route disagree")
    return spectrum


def is_ergodic_element(action, exponents) -> Verdict:
    """Ergodicity of a single product of generator powers."""
    b = dual_element(action, exponents)
    _checked_spectrum(b)
    return Verdict.of(action, [b], "no-root-of-unity-eigenvalue", "witness-character")


def is_distal_element(action, exponents) -> Verdict:
    """Distality of a single product of generator powers: the dual matrix
    must be quasi-unipotent."""
    b = dual_element(action, exponents)
    spectrum = _checked_spectrum(b)
    if spectrum.rest.is_one != spectrum.unipotent_power.is_zero:
        raise InternalCheckError(
            "cyclotomic factorization route and nilpotency route disagree")
    return Verdict.of(action, [b], "cyclotomic-char-poly", "non-cyclotomic-factor")


def is_ergodic_group(action) -> Verdict:
    """Group ergodicity: no nonzero character with a finite orbit.  The
    witness lies in the kernel of every c(D), so the stated power, the
    lcm of all the generators' orders, fixes it under each generator and
    its orbit has at most power**n points."""
    return Verdict.of(action, action.dual_generators,
                      "zero-finite-orbit-subspace", "witness-character")


def is_distal_group(action) -> Verdict:
    """Group distality is equivalent to distality of every generator for
    commuting automorphisms, whose own verdicts run their self-checks."""
    n = action.n_generators
    for i in range(n):
        is_distal_element(action, tuple(int(j == i) for j in range(n)))
    return Verdict.of(action, action.dual_generators,
                      "all-generators-quasi-unipotent", "non-quasi-unipotent-generator")


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
    """
    duals = action.dual_generators
    w = action.finite_orbit_subspace
    if not w.is_zero:
        w = common_kernel([d.spectrum.unipotent_power for d in duals])
    for d in duals:
        if not w.is_invariant(d):
            raise InternalCheckError("common kernel is not invariant")
        if not quasi_unipotent_on(d, w):
            raise InternalCheckError("generator is not quasi-unipotent on the result")
    return w


def ergodic_distal_filtration(action) -> tuple:
    """Chain of invariant dual subspaces, one stage per generator, with
    generator i certified ergodic on the stage quotient and every
    generator quasi-unipotent on the residual, the chain's last member.
    The chain fixes the rest: the residual is the largest ergodic
    subgroup's dual subspace, and it is zero exactly when the group is
    ergodic."""
    duals = action.dual_generators
    chain = [Subspace.full(action.dim)]
    for i, d in enumerate(duals, start=1):
        w_prev = chain[-1]
        # stage i is the common kernel of the c(D)**r of generators 1..i
        w_i = common_kernel([other.spectrum.unipotent_power for other in duals[:i]])
        for other in duals:
            if not w_i.is_invariant(other):
                raise InternalCheckError("stage subspace is not invariant")
        # no nonzero character of the stage quotient has a finite d-orbit
        if w_prev.dim != w_i.dim and induced(d, w_prev, w_i).spectrum.orders:
            raise InternalCheckError("stage quotient carries a finite-orbit character")
        chain.append(w_i)
    residual = chain[-1]
    for d in duals:
        if not quasi_unipotent_on(d, residual):
            raise InternalCheckError("generator is not quasi-unipotent on the residual")
    if residual.is_zero != is_ergodic_group(action).is_ergodic:
        raise InternalCheckError(
            "residual vanishing disagrees with the independent group verdict")
    return tuple(chain)


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
    bound = ergodic_search_bound(action)
    for total in range(n, bound + 1):
        for exps in positive_vectors(n, total):
            v = is_ergodic_element(action, exps)
            if v.is_ergodic:
                return exps, v
    raise InternalCheckError(f"no ergodic element within coordinate sum {bound}")
