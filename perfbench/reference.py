"""Independent sympy reference for the benchmark's op outputs.

Nothing here imports the library.  The checker reads only exit codes,
verdict `kind` strings, `verification.failures`, and the element or
direction a `find-ergodic` report returns, so it keeps working through
changes to certificates, report schema and bounded verdicts.

Ground truth:

* toral / solenoid element: ergodic iff the characteristic polynomial
  has no cyclotomic irreducible factor; distal iff every irreducible
  factor is cyclotomic.  Both are invariant under taking the dual
  (inverse transpose), so the generator matrices are used directly.
* group: ergodic iff no nonzero character has a finite orbit.  That set
  is the joint nullspace of c_i(A_i^T), where c_i is the product of the
  distinct cyclotomic factors of A_i's characteristic polynomial
  (x^m - 1 is squarefree, and cyclotomic polynomials are reciprocal up to
  sign, so the kernel is the same for A^T and its inverse, the dual).
* Laurent direction n over F_p[u1^+-1, u2^+-1]/(g): write n = c*n0 with n0
  primitive, pick A in GL2(Z) with A*n0 = (1, 0), and substitute
  u^e -> u^(A e).  The direction is non-ergodic iff the result has
  non-constant content in F_p[u1] (gcd of its coefficients along u2).  One
  variable: every direction and the group are non-ergodic, because the
  module is finite.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import sympy as sp

X = sp.Symbol("x")
U = sp.Symbol("u")

NOT_EXACT = "ergodic-up-to"


class Mismatch(Exception):
    """The op's answer contradicts the reference."""


def _entry(v):
    if isinstance(v, list):
        return sp.Rational(v[0], v[1])
    f = Fraction(v)
    return sp.Rational(f.numerator, f.denominator)


@functools.lru_cache(maxsize=None)
def _is_cyclotomic(factor: sp.Poly) -> bool:
    monic = factor.monic()
    if not all(c.is_integer for c in monic.all_coeffs()):
        return False
    return sp.Poly(monic.as_expr(), X, domain="ZZ").is_cyclotomic


class MatrixFamily:
    """Reference verdicts for one toral or solenoid action document."""

    def __init__(self, doc):
        self.gens = [sp.Matrix([[_entry(x) for x in row] for row in g])
                     for g in doc["generators"]]
        self.dim = self.gens[0].rows
        self._group = None

    def _factors(self, m):
        _, factors = sp.factor_list(m.charpoly(X).as_expr(), X)
        return [sp.Poly(f, X) for f, _ in factors]

    def element(self, exponents):
        out = sp.eye(self.dim)
        for g, e in zip(self.gens, exponents):
            if e:
                out = out * (g ** e if e > 0 else g.inv() ** (-e))
        return out

    def element_verdicts(self, exponents):
        """(ergodic, distal) for a product of generator powers."""
        cyclo = [_is_cyclotomic(f) for f in self._factors(self.element(exponents))]
        return not any(cyclo), all(cyclo)

    def group_ergodic(self) -> bool:
        if self._group is None:
            stacked = []
            for g in self.gens:
                parts = [f for f in self._factors(g) if _is_cyclotomic(f)]
                if not parts:
                    self._group = True
                    return True
                c = sp.prod([f.as_expr() for f in parts])
                stacked.append(_poly_at(sp.Poly(c, X), g.T))
            self._group = not sp.Matrix.vstack(*stacked).nullspace()
        return self._group

    def group_distal(self) -> bool:
        return all(self.element_verdicts(_unit(self, i))[1]
                   for i in range(len(self.gens)))


def _unit(family, i):
    return tuple(int(j == i) for j in range(len(family.gens)))


def _poly_at(poly: sp.Poly, m: sp.Matrix) -> sp.Matrix:
    out = sp.zeros(m.rows)
    for c in poly.all_coeffs():
        out = out * m + c * sp.eye(m.rows)
    return out


class LaurentModule:
    """Reference verdicts for one Laurent action document."""

    def __init__(self, doc):
        self.p = doc["p"]
        self.nvars = doc["d"]
        self.terms = {tuple(t["exponents"]): t["coefficient"] % self.p for t in doc["g"]}

    def direction_ergodic(self, direction) -> bool:
        if self.nvars == 1:
            return False
        x, y, c = _ext_gcd(*direction)
        a, b = direction[0] // c, direction[1] // c
        # A = [[x, y], [-b, a]] has det 1 and sends (a, b) to (1, 0).
        moved = {}
        for (e1, e2), coeff in self.terms.items():
            key = (x * e1 + y * e2, -b * e1 + a * e2)
            moved[key] = (moved.get(key, 0) + coeff) % self.p
        lo = min(e for e, _ in moved)
        along = {}
        for (e1, e2), coeff in moved.items():
            if coeff:
                along.setdefault(e2, {})[(e1 - lo,)] = coeff
        content = None
        for coeffs in along.values():
            f = sp.Poly.from_dict(coeffs, U, modulus=self.p)
            content = f if content is None else sp.gcd(content, f)
        return content.degree() < 1

    def group_ergodic(self) -> bool:
        return self.nvars == 2


def _ext_gcd(a, b):
    """(x, y, g) with x*a + y*b == g == gcd(a, b) > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (x0, y0, a) if a > 0 else (-x0, -y0, -a)


def _kind(payload) -> str:
    return payload["kind"]


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def _verdict_kinds(node):
    """Every verdict kind string in a report body."""
    if isinstance(node, dict):
        if isinstance(node.get("kind"), str) and "certificate" in node:
            yield node["kind"]
        for v in node.values():
            yield from _verdict_kinds(v)
    elif isinstance(node, list):
        for v in node:
            yield from _verdict_kinds(v)


def is_exact(report) -> bool:
    return report is None or NOT_EXACT not in set(_verdict_kinds(report))


def _check_bounded(kind: str, truth: bool, what: str) -> None:
    """An exact kind must match the reference; a bounded one claims
    nothing exact and is consistent with either answer."""
    if kind == NOT_EXACT:
        return
    _expect(kind == ("ergodic" if truth else "not-ergodic"), what)


class Reference:
    """Checks op outputs against the reference, one input document at a
    time, caching per-document work."""

    def __init__(self):
        self._cache = {}

    def _model(self, doc_id, doc):
        if doc_id not in self._cache:
            self._cache[doc_id] = (LaurentModule(doc) if doc["type"] == "laurent"
                                   else MatrixFamily(doc))
        return self._cache[doc_id]

    def check(self, doc_id, doc, command, code, report):
        """Raise Mismatch when the answer contradicts the reference.

        `report` is the parsed stdout, or None when nothing was printed.
        Exit codes other than 0 and 3 never reach here.
        """
        model = self._model(doc_id, doc)
        laurent = doc["type"] == "laurent"
        if command == "find-ergodic":
            if not model.group_ergodic():
                _expect(code == 3, "found an ergodic element of a non-ergodic group")
                return
            _expect(code == 0, "reported a non-ergodic group or an empty search")
            results = report["results"]
            kind = _kind(results["verdict"])
            if laurent:
                truth = model.direction_ergodic(tuple(results["direction"]))
                _expect(kind != "not-ergodic", "returned a non-ergodic direction")
                _check_bounded(kind, truth, "returned direction verdict")
            else:
                ergodic, _ = model.element_verdicts(tuple(results["exponents"]))
                _expect(kind == "ergodic" and ergodic, "returned element is not ergodic")
            return
        _expect(code == 0, f"unexpected exit code {code}")
        results = report["results"]
        if command == "analyze":
            if laurent:
                for entry in results["directions"]:
                    truth = model.direction_ergodic(tuple(entry["direction"]))
                    _check_bounded(_kind(entry["verdict"]), truth,
                                   f"direction {entry['direction']}")
                _check_bounded(_kind(results["group"]), model.group_ergodic(), "group")
                return
            for i, entry in enumerate(results["generators"]):
                ergodic, distal = model.element_verdicts(_unit(model, i))
                _expect(_kind(entry["ergodic"]) == ("ergodic" if ergodic else "not-ergodic"),
                        f"generator {i + 1} ergodicity")
                _expect(_kind(entry["distal"]) == ("distal" if distal else "not-distal"),
                        f"generator {i + 1} distality")
            group = results["group"]
            _expect(_kind(group["ergodic"]) ==
                    ("ergodic" if model.group_ergodic() else "not-ergodic"),
                    "group ergodicity")
            _expect(_kind(group["distal"]) ==
                    ("distal" if model.group_distal() else "not-distal"),
                    "group distality")
        # filtration and oracle-check carry no verdict kind: exit 0 with a
        # clean replay (checked by the caller) is the whole answer.
