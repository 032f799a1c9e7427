"""The brute-force side: dual orbits walked character by character.

Orbit enumeration is deliberately independent of the analytic engine.
A finite orbit is certified by an emptied frontier and re-checked for
closure; a walk that gives up (too many characters, or coordinates past
the size guard) certifies nothing.  Cross-validation sweeps a whole box
of characters and insists the two sides never contradict each other:
no finite orbit outside the engine's finite-orbit subspace, no failed
enumeration inside it.
"""

from ergodec import cross_validate, orbit_bfs, toral_action


def main():
    rotation = toral_action([[[0, -1], [1, 0]]])
    r = orbit_bfs(rotation, (1, 0), cap=1000)
    print(f"quarter rotation, orbit of (1,0): {r.status}, size {r.size}")

    fib = toral_action([[[0, 1], [1, 1]]])
    r = orbit_bfs(fib, (1, 0), cap=100_000)
    print(f"fibonacci, orbit of (1,0): {r.status} ({r.reason}), "
          f"visited {r.visited}, largest coordinate about 2^{r.max_coordinate.bit_length()}")

    for name, action in (("fibonacci", fib),
                         ("shear", toral_action([[[1, 1], [0, 1]]]))):
        fixed = action.finite_orbit_subspace
        report = cross_validate(action, norm_bound=3, cap=100_000)
        print(f"{name}: finite-orbit subspace dim {fixed.dim}; "
              f"{report['characters_checked']} characters checked, "
              f"{report['finite_orbits']} finite, "
              f"{report['exceeded']} walks gave up, "
              f"{len(report['failures'])} failures")


if __name__ == "__main__":
    main()
