"""Exact-arithmetic ergodicity and distality decisions for finitely
generated commuting automorphism groups of compact abelian groups:
integer matrix actions on tori, rational matrix actions on solenoids, and
coordinate translations on duals of cyclic Laurent quotient modules."""

from .actions import (LaurentCyclicAction, MatrixAction, build_action, dual_element,
                      element, laurent_cyclic_action, product_counterexample,
                      solenoid_action, toral_action)
from .errors import (InternalCheckError, Issue, NotErgodicGroupError,
                     SearchExhaustedError, ValidationError)
from .intpoly import (Polynomial, cyclotomic, euler_phi,
                      orders_with_totient_at_most, poly_gcd)
from .laurent import (LaurentPoly, content_along, direction_power_minus_one,
                      laurent_divides)
from .laurent_engine import (direction_is_ergodic, find_ergodic_direction,
                             group_is_ergodic, orbit_probe)
from .matrices import Matrix, Subspace, kernel
from .oracle import OrbitResult, cross_validate, orbit_bfs
from .toral import (Certificate, FiltrationReport, Verdict, VerdictKind,
                    ergodic_distal_filtration, find_ergodic_exponents,
                    finite_orbit_subspace, is_distal_element, is_distal_group,
                    is_ergodic_element, is_ergodic_group,
                    largest_ergodic_subgroup, mixing_flag)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "FiltrationReport", "InternalCheckError", "Issue",
    "LaurentCyclicAction", "LaurentPoly", "Matrix", "MatrixAction",
    "NotErgodicGroupError", "OrbitResult", "Polynomial", "SearchExhaustedError",
    "Subspace", "ValidationError", "Verdict",
    "VerdictKind", "build_action", "content_along", "cross_validate",
    "cyclotomic", "direction_is_ergodic",
    "direction_power_minus_one", "dual_element", "element",
    "ergodic_distal_filtration", "euler_phi", "find_ergodic_direction",
    "find_ergodic_exponents", "finite_orbit_subspace", "group_is_ergodic",
    "is_distal_element", "is_distal_group", "is_ergodic_element",
    "is_ergodic_group", "kernel", "largest_ergodic_subgroup",
    "laurent_cyclic_action", "laurent_divides", "mixing_flag", "orbit_bfs",
    "orbit_probe", "orders_with_totient_at_most", "poly_gcd",
    "product_counterexample", "solenoid_action", "toral_action",
]
