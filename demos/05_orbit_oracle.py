"""The brute-force side: dual orbits walked character by character.

Orbit enumeration is deliberately independent of the analytic engine.
A finite orbit is certified by a walk that closes; a walk that gives up
(too many characters, or a cycle longer than any finite one can be)
certifies nothing.  Cross-validation sweeps a whole box of characters
and insists the two sides never contradict each other: no finite orbit
outside the engine's finite-orbit subspace, no failed enumeration
inside it.  The coordinate guard only cuts short walks whose
coordinates grow without bound: the order-4 matrix below sends small
characters to coordinates near 2^80 at once, and its orbits are still
walked to the end because they lie inside the finite-orbit subspace.
"""

from ergodec import cross_validate, toral_action

ACTIONS = (
    ("quarter rotation", [[0, -1], [1, 0]]),
    ("fibonacci", [[0, 1], [1, 1]]),
    ("shear", [[1, 1], [0, 1]]),
    ("order 4, entries near 2^80", [[2 ** 40, -(2 ** 80 + 1)], [1, -2 ** 40]]),
)


def main():
    for name, matrix in ACTIONS:
        action = toral_action([matrix])
        fixed = action.finite_orbit_subspace
        report = cross_validate(action, norm_bound=3, cap=100_000)
        print(f"{name}: finite-orbit subspace dim {fixed.dim}; "
              f"{report['characters_checked']} characters checked, "
              f"{report['finite_orbits']} finite, "
              f"{report['exceeded']} walks gave up, "
              f"{len(report['failures'])} failures")


if __name__ == "__main__":
    main()
