"""Three classic automorphisms of the 2-torus, decided exactly.

A single toral automorphism is ergodic exactly when its dual matrix has
no root-of-unity eigenvalue, and distal exactly when every eigenvalue is
a root of unity.  Both predicates are decided by exact integer
arithmetic, with a certificate attached to every verdict:

  * the Fibonacci matrix [[0,1],[1,1]] is hyperbolic: ergodic, not distal;
  * the shear [[1,1],[0,1]] is unipotent: distal, not ergodic, and its
    witness character spans the fixed dual line;
  * the quarter rotation [[0,-1],[1,0]] has order four: distal, not
    ergodic.
"""

import json

from ergodec import is_distal_element, is_ergodic_element, toral_action

CASES = {
    "fibonacci": [[0, 1], [1, 1]],
    "shear": [[1, 1], [0, 1]],
    "quarter rotation": [[0, -1], [1, 0]],
}


def main():
    for name, rows in CASES.items():
        action = toral_action([rows])
        ergodic = is_ergodic_element(action, (1,))
        distal = is_distal_element(action, (1,))
        print(f"{name}  {rows}")
        print(f"  ergodic: {ergodic.kind:13s}  certificate: {ergodic.certificate}")
        print(f"  distal:  {distal.kind:13s}  certificate: {distal.certificate}")
        # a single ergodic automorphism of a compact group is mixing of all orders
        print(f"  mixing of all orders: {ergodic.is_ergodic}")
        print(f"  certificate data: {json.dumps(ergodic.data)}")
        print()


if __name__ == "__main__":
    main()
