"""The ergodic-distal structure of a commuting action.

First the largest subgroup on which the whole group acts ergodically,
with a distal action on the quotient: on the dual side, the common
kernel of the unipotent powers c(D)**n of the dual generators D.

Then the per-generator chain: a weakly decreasing sequence of invariant
dual subspaces, one stage per generator, with generator i certified
ergodic on stage quotient i and every generator quasi-unipotent on the
residual, the chain's last member.  The chain fixes the rest: the
residual is the largest subgroup's dual subspace again, and it is zero
exactly when the group is ergodic.
"""

from ergodec import (Matrix, ergodic_distal_filtration,
                     largest_ergodic_subgroup, toral_action)


def describe(name, generators):
    action = toral_action(generators)
    print(f"{name} (dimension {action.dim})")
    w = largest_ergodic_subgroup(action)
    print(f"  largest ergodic subgroup: dual annihilator dimension {w.dim}")
    chain = ergodic_distal_filtration(action)
    print(f"  filtration dims: {[w.dim for w in chain]}")
    for i, (prev, cur) in enumerate(zip(chain, chain[1:]), start=1):
        print(f"    stage {i}: generator {i} ergodic on a quotient of dimension "
              f"{prev.dim - cur.dim}")
    residual = chain[-1]
    print(f"  residual dimension {residual.dim}; "
          f"group ergodic: {residual.is_zero}; "
          f"residual is the largest subgroup's: {residual == w}")
    print()


def main():
    f = Matrix.from_rows([[0, 1], [1, 1]])
    i2 = Matrix.identity(2)
    describe("hyperbolic", [f])
    describe("shear", [[[1, 1], [0, 1]]])
    describe("block pair", [Matrix.block_diag(f, i2), Matrix.block_diag(i2, f)])
    describe("hyperbolic with an identity block", [Matrix.block_diag(f, i2)])


if __name__ == "__main__":
    main()
