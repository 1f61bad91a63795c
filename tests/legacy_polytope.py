"""Test-only oracles: the vertex and difference-polytope computations as they
were before hull_vertices chose its method by dimension and
difference_polytope hulled only vertex differences.  One exact LP per point
against all others, over every pairwise difference of the support.  The LP
is the phase-1 simplex over Fraction that the integer tableau of
sutor.polytope replaced, kept here verbatim so that the oracle shares no
arithmetic with the code under test.  Also the output-sensitive hull that
the facet hull replaced from dimension 3 on: Clarkson's loop (_clarkson)
with its two witnesses, on a point set and on the vertex differences of a
polytope, whose LPs are sutor.polytope._farkas.  Also extremal_part and the disk
report as they were before they read packed keys: one AbElement per term,
and normalize on every candidate.  And to_svg as it was before it read the
support's cached hull: it hulled the points again with convex_hull_2d.  The
faster code must agree with these on every input."""
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from sutor.abelian import AbElement
from sutor.groupring import (
    GroupRingElement,
    UnsupportedStructureError,
    UnsupportedTorsionError,
    normalize,
)
from sutor.polytope import (
    _Z,
    DiskCandidate,
    DiskReport,
    Point,
    Support,
    _farkas,
    _neg,
    convex_hull_2d,
)


def _lp_feasible(A: List[List[int]], b: List[int]) -> bool:
    """Exact feasibility of {x >= 0 : Ax = b} by phase-1 simplex, Bland's rule."""
    m = len(A)
    n = len(A[0]) if m else 0
    T: List[List[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        T.append(row + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs])
    basis = [n + i for i in range(m)]
    total = n + m
    # reduced costs for minimizing the sum of artificials
    z = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            z[j] += T[i][j]
    for j in range(n, total):
        z[j] -= 1
    while True:
        enter = -1
        for j in range(total):
            if z[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][total] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # unbounded phase-1 cannot happen; treat defensively
            return False
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
        if z[enter]:
            f = z[enter]
            z = [v - f * w for v, w in zip(z, T[leave])]
        basis[leave] = enter
    return z[total] == 0


def point_in_hull(v: Point, pts: Sequence[Point]) -> bool:
    """Is v a convex combination of pts?  Exact rational test."""
    pts = list(pts)
    if not pts:
        return False
    d = len(v)
    A = [[p[k] for p in pts] for k in range(d)]
    A.append([1] * len(pts))
    b = list(v) + [1]
    return _lp_feasible(A, b)



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


def _dot(c: Sequence[int], p: Point) -> int:
    return sum(a * x for a, x in zip(c, p))


def _clarkson(pts: List[Point], top: Callable[[Sequence[int]], Point],
              symmetric: bool) -> List[Point]:
    """Sorted vertex set of conv(pts), pts sorted and distinct, by
    Clarkson's output-sensitive method (More output-sensitive geometric
    algorithms, FOCS 1994).  top(c) is the witness: the point of pts
    maximizing <c, p>, ties broken to the lex-largest p.

    V holds vertices only: top(c) is one for every c.  A point p outside
    conv(V) comes back with a direction c that puts p above every value on
    V, so top(c) is a vertex not yet in V; it joins V and p is tested again.
    Each LP has at most |V| columns and there are at most N + |V| of them.
    A symmetric set has vertices v and -v together, so each vertex joins V
    with its negative."""
    dim = len(pts[0])
    V: Dict[Point, None] = {}  # insertion-ordered, so the LP columns are too

    def add(v: Point) -> None:
        V[v] = None
        if symmetric:
            V[_neg(v)] = None

    for i in range(dim):
        for s in (1, -1):
            add(top([s * int(k == i) for k in range(dim)]))
    for p in pts:
        if symmetric and p <= _neg(p):  # the lex-positive half will do
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


def clarkson_hull_vertices(points: Sequence[Point]) -> List[Point]:
    """Sorted vertex set of conv(points) by _clarkson, whose witness is the
    lex-largest maximizer over all the points: hull_vertices from
    dimension 3 on as it was, here in any dimension."""
    pts = sorted(set(points))
    if not pts:
        return []

    def top(c: Sequence[int]) -> Point:
        return max(pts, key=lambda p: (_dot(c, p), p))

    return _clarkson(pts, top, sorted(map(_neg, pts)) == pts)


def clarkson_difference(verts: List[Point]) -> List[Point]:
    """Sorted vertex set of P + (-P) for verts the sorted vertices of P, by
    _clarkson over the distinct differences V - V, as difference_polytope
    was from dimension 3 on.  Its witness, the lex-largest maximizer of
    <c, .> over V - V, is lexmax argmax_V(c) - lexmin argmin_V(c), since
    lex order is a group order: one pass over the k vertices instead of
    the k^2 differences."""

    def top(c: Sequence[int]) -> Point:
        vals = [_dot(c, v) for v in verts]
        hi, lo = max(vals), min(vals)
        return tuple(a - b for a, b in zip(max(v for v, x in zip(verts, vals) if x == hi),
                                           min(v for v, x in zip(verts, vals) if x == lo)))

    diffs = sorted({tuple(a - b for a, b in zip(x, y)) for x in verts for y in verts})
    return _clarkson(diffs, top, True)


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


def disk_obstruction_report(tau: GroupRingElement, p_max: int) -> DiskReport:
    """One shape test per candidate on its normalized terms, against the one
    pair (p1, p2) that its largest coefficient and term count allow."""
    if tau.group != _Z:
        raise UnsupportedStructureError("disk obstruction needs a rank-1 torsion-free group")
    if not tau.terms:
        raise UnsupportedStructureError("zero torsion")
    exps = [h.free[0] for h in tau.terms]
    auto_cap = (max(exps) - min(exps)) + 1
    cap = min(p_max, auto_cap)

    def analyze(label: str, cand: GroupRingElement) -> DiskCandidate:
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
