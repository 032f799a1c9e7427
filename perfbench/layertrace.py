"""Span tracing from outside the library, for the per-layer metrics.

`Tracer.install` wraps public callables of the library's modules and a
few `Matrix` methods.  A wrapped call records one span (name, start, end,
parent) in memory; nothing is written until the benchmark ends.  Every
module namespace that holds a reference to a wrapped function gets the
wrapper, so calls between modules are seen too.  Names missing from the
code under test are skipped, so the trace keeps working when functions
are renamed or deleted.

Self time of a span is its duration minus the time its direct child
spans cover; the work is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute path) of every wrapped callable.  The span name is
# "<module>.<last attribute>", with Matrix's dunder methods shortened.
TARGETS = (
    ("matrices", "Matrix.__pow__"), ("matrices", "Matrix.det"),
    ("matrices", "Matrix.inverse"), ("matrices", "Matrix.char_poly"),
    ("matrices", "kernel"), ("matrices", "rref"),
    ("intpoly", "poly_gcd"), ("intpoly", "cyclotomic"),
    ("toral", "is_ergodic_element"), ("toral", "is_distal_element"),
    ("toral", "is_ergodic_group"), ("toral", "is_distal_group"),
    ("toral", "largest_ergodic_subgroup"), ("toral", "ergodic_distal_filtration"),
    ("toral", "find_ergodic_exponents"), ("toral", "finite_orbit_subspace"),
    ("laurent", "bivar_gcd"), ("laurent", "content_in"),
    ("laurent", "laurent_divides"), ("laurent", "direction_power_minus_one"),
    ("laurent_engine", "direction_is_ergodic"), ("laurent_engine", "group_is_ergodic"),
    ("laurent_engine", "find_ergodic_direction"),
    ("oracle", "cross_validate"), ("oracle", "orbit_bfs"),
    ("replay", "replay_report"),
    ("actions", "build_action"), ("actions", "dual_element"),
    ("cli", "main"), ("cli", "cmd_analyze"), ("cli", "cmd_find_ergodic"),
    ("cli", "cmd_filtration"), ("cli", "cmd_oracle_check"),
)

_SHORT = {"__pow__": "pow"}


@dataclass
class Span:
    name: str
    start: int
    parent: int
    end: int = 0
    ok: bool = False
    children_ns: int = 0


@dataclass
class Tracer:
    package: str
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def _bump(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def _observe(self, name, result):
        """Counters read from results at layer boundaries."""
        if name == "matrices.pow":
            bits = 0
            for row in result.rows:
                for x in row:
                    bits = max(bits, _bits(x))
            self._peak("matrices.pow_max_entry_bits", bits)
        elif name == "laurent_engine.direction_is_ergodic":
            if getattr(getattr(result, "kind", None), "value", None) == "ergodic-up-to":
                self._bump("laurent_engine.bounded_verdicts")
        elif name == "oracle.cross_validate":
            self._bump("oracle.characters_checked", result.get("characters_checked", 0))
            self._bump("oracle.exceeded", result.get("exceeded", 0))
        elif name.startswith("cli.cmd_") and isinstance(result, dict):
            self._peak("encoding.max_int_digits", _max_int_digits(result))

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "matrices.pow":
                # on entry: the largest powers are the ones that time out
                self._peak("matrices.pow_max_exponent", abs(args[1]))
            span = Span(name, clock(), stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].children_ns += span.end - span.start
            self._observe(name, result)
            return result

        return traced

    def install(self):
        """Wrap every target present in the loaded package; returns a
        function that restores the originals."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package
                                         or key.startswith(self.package + "."))]
        undo = []
        for mod_name, path in TARGETS:
            module = sys.modules.get(f"{self.package}.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{_SHORT.get(attr, attr)}", original)
            holders = [owner] if owner_path else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))

        def restore():
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

        return restore

    def summary(self):
        """Per-name call counts, outermost inclusive time and self time,
        in seconds."""
        calls, inclusive, self_time = {}, {}, {}
        for span in self.spans:
            if not span.end:
                continue
            duration = span.end - span.start
            calls[span.name] = calls.get(span.name, 0) + 1
            self_time[span.name] = (self_time.get(span.name, 0)
                                    + duration - span.children_ns)
            if not self._has_ancestor(span, span.name):
                inclusive[span.name] = inclusive.get(span.name, 0) + duration
        to_s = 1e-9
        return ({k: v for k, v in calls.items()},
                {k: v * to_s for k, v in inclusive.items()},
                {k: v * to_s for k, v in self_time.items()})

    def _has_ancestor(self, span, name):
        parent = span.parent
        while parent >= 0:
            above = self.spans[parent]
            if above.name == name:
                return True
            parent = above.parent
        return False

    def count_under(self, name, ancestor):
        """(spans named `name` below an `ancestor` span, `ancestor` spans
        that returned normally)."""
        below = sum(1 for s in self.spans
                    if s.name == name and self._has_ancestor(s, ancestor))
        hits = sum(1 for s in self.spans if s.name == ancestor and s.ok)
        return below, hits


def _bits(x):
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _max_int_digits(node):
    """Decimal digits of the largest integer in a report, within one,
    from its bit length: str() of it may exceed the interpreter's limit."""
    best = 0
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, int) and not isinstance(item, bool):
            best = max(best, int(item.bit_length() * 0.30103) + 1)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return best
