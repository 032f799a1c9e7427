"""Shared exception types."""

from __future__ import annotations

from dataclasses import dataclass


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


class SearchExhaustedError(RuntimeError):
    """The configured search region was exhausted without a hit."""

    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"search exhausted within bound {bound}")


class InternalCheckError(AssertionError):
    """Two supposedly equivalent computations disagreed; this is a bug."""
