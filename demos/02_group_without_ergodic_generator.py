"""An ergodic group none of whose generators is ergodic, and the search
for the ergodic product element the theory promises.

Take the two commuting automorphisms of the 4-torus

    diag(F, I)   and   diag(I, F)

with F the Fibonacci matrix.  Each generator fixes a 2-dimensional dual
plane, so neither is ergodic on its own.  But the only characters fixed
by powers of both generators form the zero subspace, so the group action
is ergodic, and scanning all-positive exponent vectors finds the product
diag(F, F) right away.  The scan is sure to stop: an ergodic group of
rank r with d generators has an ergodic element whose exponents sum to
at most r(d - 1) + 2 (Berend's argument).
"""

from ergodec import (Matrix, element, find_ergodic_exponents, is_ergodic_element,
                     is_ergodic_group, toral_action)


def main():
    f = Matrix.from_rows([[0, 1], [1, 1]])
    i2 = Matrix.identity(2)
    action = toral_action([Matrix.block_diag(f, i2), Matrix.block_diag(i2, f)])

    for i, label in ((0, "diag(F, I)"), (1, "diag(I, F)")):
        exps = tuple(1 if j == i else 0 for j in range(2))
        verdict = is_ergodic_element(action, exps)
        print(f"generator {label}: {verdict.kind}")

    group = is_ergodic_group(action)
    print(f"group verdict: {group.kind} "
          f"(finite-orbit subspace dimension {action.finite_orbit_subspace.dim})")

    exps, verdict = find_ergodic_exponents(action)
    bound = action.dim * (action.n_generators - 1) + 2
    print(f"first ergodic exponent vector: {exps} "
          f"(coordinate sum {sum(exps)}, bound r(d - 1) + 2 = {bound})")
    print("its element:")
    for row in element(action, exps).rows:
        print(f"   {list(row)}")
    print(f"element verdict: {verdict.kind}, certificate {verdict.certificate}")


if __name__ == "__main__":
    main()
