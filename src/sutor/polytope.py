"""Support (Newton) polytope analysis of the torsion: width bounds, the
difference polytope, symmetry, extremal faces, and the disk-decomposability
obstruction.

Hulls are exact and integer: in dimension <= 1 the extreme points, in
dimension 2 the monotone chain.  From dimension 3 on they are output
sensitive (Clarkson): the vertex set starts from the lex-largest maximizers
of +-e_i, which need no LP, and every other point is tested against the
vertices found so far only.  Each test, and point_in_hull in any
dimension, is exact linear feasibility: a small phase-1 simplex on an
integer tableau with fraction-free pivots, the Bareiss step
abelian.bareiss_pivot.  A point outside comes back with the Farkas
certificate of the final tableau, a separating direction whose
lex-largest maximizer is the next vertex.  A point set equal to its own
negation, as every difference set is, has only its lex-positive half
tested.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .abelian import AbElement, AbelianGroup, bareiss_pivot
from .groupring import (
    GroupRingElement,
    UnsupportedStructureError,
    UnsupportedTorsionError,
    normalize,
)

Point = Tuple[int, ...]


@dataclass(frozen=True)
class Support:
    dim: int
    points: Dict[Point, int]


def support(tau: GroupRingElement) -> Support:
    if tau.group.torsion:
        raise UnsupportedTorsionError("support analysis needs a torsion-free group")
    return Support(tau.group.rank, {h.free: c for h, c in tau.terms.items()})


def width(S: Support, alpha: Sequence[int]) -> int:
    """max <s, alpha> - min <s, alpha> over the support; lower-bounds the
    sutured Thurston norm in direction alpha."""
    if len(alpha) != S.dim:
        raise ValueError("covector length does not match dimension")
    if not S.points:
        raise ValueError("empty support")
    vals = [sum(a * x for a, x in zip(alpha, p)) for p in S.points]
    return max(vals) - min(vals)


def _farkas(A: List[List[int]], b: List[int]) -> Optional[List[int]]:
    """Exact feasibility of {x >= 0 : Ax = b} by phase-1 simplex, Bland's rule:
    None when the set is nonempty, otherwise a Farkas certificate y with
    y.A_j <= 0 for every column j and y.b > 0.

    The tableau holds integers over one common positive denominator den:
    each pivot is abelian.bareiss_pivot, after which den is the pivot, so
    every sign and every ratio reads as it would over the rationals.  The
    last row is the reduced-cost row for minimizing the sum of artificials.
    Row i starts as s_i times row i of [A | I | b], s_i the sign of b_i,
    and the last row as the sum of those rows less 1 on each artificial
    column.  Pivots only add multiples of rows to it, so it stays w times
    the starting rows less that 1, and artificial column i reads
    den * (w_i - 1).  At the optimum no reduced cost is positive and the
    objective is positive when infeasible, so y_i = s_i * (den + T[m][n + i])
    is the certificate, with no second LP."""
    m = len(A)
    n = len(A[0]) if m else 0
    total = n + m
    T: List[List[int]] = []
    signs = [-1 if v < 0 else 1 for v in b]
    for i, s in enumerate(signs):
        T.append([s * v for v in A[i]] + [int(j == i) for j in range(m)] + [s * b[i]])
    # the artificial columns' reduced costs are 1 - 1 = 0
    T.append([sum(row[j] for row in T) for j in range(n)] + [0] * m
             + [sum(row[total] for row in T)])
    basis = list(range(n, total))
    den = 1
    while True:
        enter = next((j for j in range(total) if T[m][j] > 0), -1)
        if enter < 0:
            if T[m][total] == 0:
                return None
            return [s * (den + T[m][n + i]) for i, s in enumerate(signs)]
        # least ratio T[i][rhs] / T[i][enter] by cross multiplication, ties
        # to the least basic index
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0 and (leave < 0 or (T[i][total] * T[leave][enter], basis[i])
                          < (T[leave][total] * a, basis[leave])):
                leave = i
        if leave < 0:
            raise ArithmeticError("phase 1 is bounded below by 0 and cannot be unbounded")
        bareiss_pivot(T, leave, enter, den)
        den = T[leave][enter]
        basis[leave] = enter


def point_in_hull(v: Point, pts: Sequence[Point]) -> bool:
    """Is v a convex combination of pts?  Exact integer test."""
    pts = list(pts)
    if not pts:
        return False
    d = len(v)
    if any(len(p) != d for p in pts):
        raise ValueError("point dimension does not match the hull points")
    A = [[p[k] for p in pts] for k in range(d)]
    A.append([1] * len(pts))
    b = list(v) + [1]
    return _farkas(A, b) is None


def convex_hull_2d(points: Sequence[Point]) -> List[Point]:
    """Andrew monotone chain; counterclockwise vertex order, integer exact."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_vertices(points: Sequence[Point]) -> List[Point]:
    """Sorted vertex set of conv(points), by the method the dimension allows:
    the two extreme points on a line, the monotone chain in the plane, and
    from dimension 3 on Clarkson's output-sensitive method (More
    output-sensitive geometric algorithms, FOCS 1994).

    V holds vertices only: top(c), the point maximizing <c, p> with ties
    broken to the lex-largest p, is one for every c.  A point p outside
    conv(V) comes back with a direction c that puts p above every value on
    V, so top(c) is a vertex not yet in V; it joins V and p is tested again.
    Each LP has at most |V| columns and there are at most N + |V| of them.
    A symmetric set has vertices v and -v together, so each vertex joins V
    with its negative."""
    pts = sorted(set(points))
    dim = len(pts[0]) if pts else 0
    if dim <= 1:
        return pts if len(pts) <= 1 else [pts[0], pts[-1]]
    if dim == 2:
        return sorted(convex_hull_2d(pts))

    def top(c: Sequence[int]) -> Point:
        return max(pts, key=lambda p: (sum(a * x for a, x in zip(c, p)), p))

    def neg(p: Point) -> Point:
        return tuple(-x for x in p)

    symmetric = sorted(map(neg, pts)) == pts
    V: Dict[Point, None] = {}  # insertion-ordered, so the LP columns are too

    def add(v: Point) -> None:
        V[v] = None
        if symmetric:
            V[neg(v)] = None

    for i in range(dim):
        for s in (1, -1):
            add(top([s * int(k == i) for k in range(dim)]))
    for p in pts:
        if symmetric and p <= neg(p):  # the lex-positive half will do
            continue
        while p not in V:
            A = [[v[k] for v in V] for k in range(dim)] + [[1] * len(V)]
            y = _farkas(A, list(p) + [1])
            if y is None:
                break
            q = top(y[:dim])
            if q in V:  # a certificate that fails to separate would loop forever
                raise ArithmeticError("Farkas certificate does not separate the point")
            add(q)
    return sorted(V)


def vertices(S: Support) -> List[Point]:
    if not S.points:
        raise ValueError("empty support")
    return hull_vertices(list(S.points))


def difference_polytope(S: Support) -> List[Point]:
    """Vertex set of conv{x - y : x, y in support}; centrally symmetric."""
    return difference_vertices(vertices(S))


def difference_vertices(verts: Sequence[Point]) -> List[Point]:
    """Vertex set of P + (-P) from the vertices of P.  Every vertex of
    P + (-P) is a difference of two vertices of P (Gritzmann-Sturmfels),
    so only the k^2 vertex differences are hulled."""
    diffs = {tuple(a - b for a, b in zip(x, y)) for x in verts for y in verts}
    return hull_vertices(list(diffs))


def is_centrally_symmetric(S: Support) -> bool:
    """Point set symmetric about the bounding-box center, with coefficients
    matching up to one global sign."""
    if not S.points:
        raise ValueError("empty support")
    pts = list(S.points)
    d = S.dim
    # bounding-box center in doubled coordinates
    c2 = tuple(max(p[k] for p in pts) + min(p[k] for p in pts) for k in range(d))
    for sign in (1, -1):
        ok = True
        for p, c in S.points.items():
            partner = tuple(c2[k] - p[k] for k in range(d))
            if S.points.get(partner) != sign * c:
                ok = False
                break
        if ok:
            return True
    return False


def extremal_part(tau: GroupRingElement, alpha: Sequence[int]) -> GroupRingElement:
    """Sub-sum of tau over support points maximizing <., alpha>."""
    if tau.group.torsion:
        raise UnsupportedTorsionError("extremal part needs a torsion-free group")
    if not tau.terms:
        raise ValueError("zero element has no extremal part")
    if len(alpha) != tau.group.rank:
        raise ValueError("covector length does not match dimension")
    vals = {h: sum(a * x for a, x in zip(alpha, h.free)) for h in tau.terms}
    top = max(vals.values())
    return GroupRingElement(tau.group, {h: c for h, c in tau.terms.items() if vals[h] == top})


# ---------------------------------------------------------------------------
# Disk-decomposability obstruction

_Z = AbelianGroup(1, ())


def cyclic_sum(p: int) -> GroupRingElement:
    """1 + t + ... + t^(p-1), the torsion of the p-times-twisted solid torus."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return GroupRingElement(_Z, {AbElement((j,), ()): 1 for j in range(p)})


@dataclass(frozen=True)
class DiskCandidate:
    label: str
    element: GroupRingElement
    single_match: Optional[int]
    product_match: Optional[Tuple[int, int]]

    @property
    def matched(self) -> bool:
        return self.single_match is not None or self.product_match is not None


@dataclass(frozen=True)
class DiskReport:
    candidates: Tuple[DiskCandidate, ...]
    obstructed: bool
    p_max: int
    auto_cap: int
    effective_cap: int


def disk_obstruction_report(tau: GroupRingElement, p_max: int) -> DiskReport:
    """Compare tau and its extremal parts against solid-torus torsions
    S(p) = (t^p-1)/(t-1) and products S(p1)*S(p2) of two of them (the
    separating-disk case).

    With p1 <= p2 and n = p1 + p2 - 1, S(p1)*S(p2) has the coefficient
    min(j + 1, p1, n - j) at t^j, so its largest coefficient is p1 and its
    term count is n: at most one pair can match a candidate, and p1 = 1 is
    S(n) itself.  Each candidate is one shape test against that pair, so the
    cost is linear in its term count."""
    if tau.group != _Z:
        raise UnsupportedStructureError("disk obstruction needs a rank-1 torsion-free group")
    if not tau.terms:
        raise UnsupportedStructureError("zero torsion")
    exps = [h.free[0] for h in tau.terms]
    auto_cap = (max(exps) - min(exps)) + 1
    cap = min(p_max, auto_cap)

    def analyze(label: str, cand: GroupRingElement) -> DiskCandidate:
        # The canonical form of a rank-1 element starts at t^0 with a
        # positive coefficient, as every product of solid-torus torsions does.
        nc = normalize(cand)
        n = len(nc.terms)
        p1 = max(nc.terms.values())
        p2 = n - p1 + 1
        if not (p1 <= p2 <= cap and nc.terms == {
                AbElement((j,), ()): min(j + 1, p1, n - j) for j in range(n)}):
            return DiskCandidate(label, cand, None, None)
        if p1 == 1:
            return DiskCandidate(label, cand, n, None)
        return DiskCandidate(label, cand, None, (p1, p2))

    cands = (
        analyze("tau", tau),
        analyze("extremal(+1)", extremal_part(tau, (1,))),
        analyze("extremal(-1)", extremal_part(tau, (-1,))),
    )
    obstructed = not any(c.matched for c in cands)
    return DiskReport(cands, obstructed, p_max, auto_cap, cap)


# ---------------------------------------------------------------------------
# Emitters

def to_tsv(S: Support) -> str:
    """One support point per line: coordinates, tab, coefficient."""
    lines = []
    for p in sorted(S.points):
        lines.append(" ".join(str(x) for x in p) + "\t" + str(S.points[p]))
    return "\n".join(lines) + "\n"


def to_svg(S: Support) -> str:
    """Deterministic SVG for dim <= 2: 32 px/unit, labeled lattice points,
    hull drawn as a polygon."""
    if S.dim > 2:
        raise UnsupportedStructureError("SVG emitter supports dimension <= 2 only")
    scale = 32
    pad = 24
    pts2 = {((p[0], p[1]) if S.dim == 2 else (p[0], 0)): c for p, c in S.points.items()}
    xs = [p[0] for p in pts2]
    ys = [p[1] for p in pts2]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = (x1 - x0) * scale + 2 * pad
    h = (y1 - y0) * scale + 2 * pad

    def sx(x):
        return pad + (x - x0) * scale

    def sy(y):
        return pad + (y1 - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]
    hull = convex_hull_2d(list(pts2))
    if len(hull) >= 2:
        coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in hull)
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="black" stroke-width="1"/>'
        )
    for p in sorted(pts2):
        c = pts2[p]
        parts.append(f'<circle cx="{sx(p[0])}" cy="{sy(p[1])}" r="4" fill="black"/>')
        parts.append(
            f'<text x="{sx(p[0]) + 6}" y="{sy(p[1]) - 6}" font-size="11">{c}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
