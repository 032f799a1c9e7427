"""Why some chain condition is needed: a product action that is ergodic
as a group while no single element is ergodic.

Index 2-torus factors by the primitive lattice directions (i, j) of a
half-plane and let the group element (n, m) act on factor (i, j) by
F**(m*i - n*j), with F the Fibonacci matrix.  The element (n, m) is the
identity on the factor of its own direction, so no element of the full
product is ergodic, although the group is.  The descending chain
condition that the existence theorem asks of the center fails there.

Each finite truncation, one factor per direction in the box of a
radius, is an ordinary toral action, and the ordinary engine runs on
it: the group is ergodic, every element of the box is not, and the
first ergodic element sits one step outside the box.  As the radius
grows that element moves outward, within the bound r(d - 1) + 2 the
existence theorem gives, and in the full product it is gone.
"""

from ergodec import (find_ergodic_exponents, is_ergodic_element, is_ergodic_group,
                     product_counterexample)


def main():
    for radius in (1, 2, 3):
        action = product_counterexample(radius)
        group = is_ergodic_group(action)
        row = [f"radius {radius}: {action.dim // 2} factors", f"rank {action.dim}",
               f"group {group.kind} ({group.certificate})"]
        if radius <= 2:
            box = range(-radius, radius + 1)
            ergodic = [(n, m) for n in box for m in box if (n, m) != (0, 0)
                       and is_ergodic_element(action, (n, m)).is_ergodic]
            row.append(f"ergodic box elements {ergodic}" if ergodic
                       else "every box element not ergodic")
        exps, _ = find_ergodic_exponents(action)
        bound = action.dim * (action.n_generators - 1) + 2
        row.append(f"first ergodic element {exps}, coordinate sum {sum(exps)} "
                   f"<= bound r(d - 1) + 2 = {bound}")
        print(", ".join(row))


if __name__ == "__main__":
    main()
