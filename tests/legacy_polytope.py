"""Test-only oracles: the vertex and difference-polytope computations as they
were before hull_vertices chose its method by dimension and
difference_polytope hulled only vertex differences.  One exact LP per point
against all others, over every pairwise difference of the support.  The
faster code must agree with these on every input."""
from typing import List, Sequence

from sutor.polytope import Point, Support, point_in_hull


def hull_vertices(points: Sequence[Point]) -> List[Point]:
    pts = sorted(set(points))
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not point_in_hull(p, others):
            out.append(p)
    return out


def difference_polytope(S: Support) -> List[Point]:
    if not S.points:
        raise ValueError("empty support")
    pts = list(S.points)
    diffs = {tuple(a - b for a, b in zip(x, y)) for x in pts for y in pts}
    return hull_vertices(list(diffs))
