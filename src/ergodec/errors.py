"""Shared exception types, and how an issue states a value."""

from __future__ import annotations

import math
from dataclasses import dataclass

# An issue states an int in full below this size, and otherwise by its
# digit count: str() refuses an int past sys.get_int_max_str_digits().
SHORT = 10 ** 18


def _digit_count(n: int) -> int:
    """Decimal digits of a positive int, without str(): log10 is off by at
    most one either way, which the powers of ten settle."""
    d = int(math.log10(n))
    if 10 ** d > n:
        d -= 1
    elif 10 ** (d + 1) <= n:
        d += 1
    return d + 1


def shown(value) -> str:
    """value as an issue states it: an int of SHORT or more in absolute
    value by its digit count, a list or dict by its type alone, since its
    repr may hold such an int, and anything else by its repr."""
    if type(value) is int and not -SHORT < value < SHORT:
        return f"({_digit_count(abs(value))}-digit)"
    if isinstance(value, (list, dict)):
        return f"a {type(value).__name__}"
    return repr(value)


@dataclass(frozen=True)
class Issue:
    """One validation failure, with a machine-readable code and the
    1-based generator indices it refers to."""

    code: str
    where: tuple
    message: str


class ValidationError(ValueError):
    """Raised with the full list of validation failures."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(i.message for i in self.issues))


class NotErgodicGroupError(RuntimeError):
    """A search that requires an ergodic group was run on one that is not."""

    def __init__(self, witness_payload):
        self.witness_payload = witness_payload
        super().__init__("the group action is not ergodic")


class InternalCheckError(AssertionError):
    """Two supposedly equivalent computations disagreed; this is a bug."""
