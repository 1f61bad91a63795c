"""Test helper on 2-d hulls that the package itself does not need: the
lattice length of each edge."""
from math import gcd
from typing import List, Sequence, Tuple

Point = Tuple[int, ...]


def edge_lengths_2d(hull: Sequence[Point]) -> List[Tuple[Tuple[int, int], int]]:
    """(direction, lattice length) per hull edge, in hull order; a
    one-point hull has no edges."""
    out = []
    k = len(hull)
    if k < 2:
        return out
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = gcd(abs(dx), abs(dy))
        out.append(((dx // g, dy // g), g))
    return out
