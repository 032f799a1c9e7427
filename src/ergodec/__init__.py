"""Exact-arithmetic ergodicity and distality decisions for finitely
generated commuting automorphism groups of compact abelian groups:
integer matrix actions on tori, rational matrix actions on solenoids, and
coordinate translations on duals of cyclic Laurent quotient modules."""

from .actions import (LaurentCyclicAction, MatrixAction, build_action, dual_element,
                      element, laurent_cyclic_action, product_counterexample,
                      solenoid_action, toral_action)
from .certificates import Verdict
from .errors import InternalCheckError, Issue, NotErgodicGroupError, ValidationError
from .intpoly import Polynomial, cyclotomic
from .laurent import LaurentPoly, content_along
from .laurent_engine import direction_is_ergodic, find_ergodic_direction, group_is_ergodic
from .matrices import Matrix, Subspace, kernel
from .oracle import cross_validate
from .toral import (ergodic_distal_filtration, find_ergodic_exponents, is_distal_element,
                    is_distal_group, is_ergodic_element, is_ergodic_group,
                    largest_ergodic_subgroup)

__version__ = "0.1.0"

__all__ = [
    "InternalCheckError", "Issue", "LaurentCyclicAction", "LaurentPoly", "Matrix",
    "MatrixAction", "NotErgodicGroupError", "Polynomial", "Subspace", "ValidationError",
    "Verdict", "build_action", "content_along", "cross_validate", "cyclotomic",
    "direction_is_ergodic", "dual_element", "element", "ergodic_distal_filtration",
    "find_ergodic_direction", "find_ergodic_exponents", "group_is_ergodic",
    "is_distal_element", "is_distal_group", "is_ergodic_element", "is_ergodic_group",
    "kernel", "largest_ergodic_subgroup", "laurent_cyclic_action",
    "product_counterexample", "solenoid_action", "toral_action",
]
