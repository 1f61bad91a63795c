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

A Support hulls its points once, on first read, and keeps the vertices
(and in the plane the counter-clockwise chain); vertices and
difference_polytope both read that hull.  The difference polytope P - P =
P + (-P) is built from P's vertices by its structure: a point or a segment
gives the origin or +-d, a polygon is the merge of the edge sequences of P
and -P by angle, and from dimension 3 on the Clarkson loop runs over the
vertex differences with a witness that reads P's k vertices instead of
the k^2 differences.  The support, extremal_part and the disk report read
tau's packed keys (groupring._Packing.columns) and build no AbElement.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abelian import AbelianGroup, bareiss_pivot, dot_map
from .groupring import (
    GroupRingElement,
    UnsupportedStructureError,
    UnsupportedTorsionError,
    _from_rows,
)

Point = Tuple[int, ...]


@dataclass(frozen=True)
class Support:
    """The support of tau: each free part in dimension dim, with its
    coefficient.  hull is computed on the first read and then kept in the
    instance's __dict__, not as a field, so == still compares dim and
    points only; points must not be mutated after that read."""
    dim: int
    points: Dict[Point, int]

    @cached_property
    def hull(self) -> Tuple[List[Point], Optional[List[Point]]]:
        """The sorted vertices of conv(points) and, in the plane, the
        counter-clockwise chain of convex_hull_2d they are sorted from
        (else None)."""
        if self.dim == 2:
            chain = convex_hull_2d(list(self.points))
            return sorted(chain), chain
        return hull_vertices(list(self.points)), None


def support(tau: GroupRingElement) -> Support:
    """tau's support, read off the coordinate columns of its packed keys."""
    if tau.group.torsion:
        raise UnsupportedTorsionError("support analysis needs a torsion-free group")
    pk, keys = tau.packed
    cols = pk.columns(keys)
    points = zip(*cols) if cols else itertools.repeat((), len(keys))
    return Support(tau.group.rank, dict(zip(points, keys.values())))


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


def _neg(p: Point) -> Point:
    return tuple(-x for x in p)


def _dot(c: Sequence[int], p: Point) -> int:
    return sum(a * x for a, x in zip(c, p))


def hull_vertices(points: Sequence[Point]) -> List[Point]:
    """Sorted vertex set of conv(points), by the method the dimension allows:
    the two extreme points on a line, the monotone chain in the plane, and
    from dimension 3 on Clarkson's output-sensitive method (_clarkson),
    whose witness here is the lex-largest maximizer over all the points.
    Support.hull keeps the result for a support, so it is hulled once;
    difference_polytope runs the same loop on a difference set with a
    witness that reads the vertices only."""
    pts = sorted(set(points))
    dim = len(pts[0]) if pts else 0
    if dim <= 1:
        return pts if len(pts) <= 1 else [pts[0], pts[-1]]
    if dim == 2:
        return sorted(convex_hull_2d(pts))

    def top(c: Sequence[int]) -> Point:
        return max(pts, key=lambda p: (_dot(c, p), p))

    return _clarkson(pts, top, sorted(map(_neg, pts)) == pts)


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


def vertices(S: Support) -> List[Point]:
    """The sorted vertices of S's hull, a copy of S.hull's."""
    if not S.points:
        raise ValueError("empty support")
    return list(S.hull[0])


def difference_polytope(S: Support) -> List[Point]:
    """Vertex set of conv{x - y : x, y in support}; centrally symmetric.
    It is built from S's hull, which is not computed again."""
    if not S.points:
        raise ValueError("empty support")
    return _difference(*S.hull)


def _difference(verts: List[Point], chain: Optional[List[Point]]) -> List[Point]:
    """Sorted vertex set of P + (-P), P = conv(verts), for verts the sorted
    vertices of P and chain their counter-clockwise chain in the plane.
    Every vertex of P + (-P) is v - w for vertices v, w of P whose normal
    cones meet (Gritzmann-Sturmfels, SIAM J. Discrete Math. 6, 1993), so
    only the vertices are read:

    - one point gives the origin, and a segment [v, w] (every P in
      dimension 1) gives +-(w - v);
    - a polygon gives the merge of the counter-clockwise edge sequences of
      P and -P by angle, exact integer cross products, parallel edges
      merged into one: a linear pass after P's chain, with no hull of the
      k^2 differences;
    - from dimension 3 on, the Clarkson loop of hull_vertices over the
      distinct differences D = V - V, which is centrally symmetric.  Its
      witness, the lex-largest maximizer of <c, .> over D, is lexmax
      argmax_V(c) - lexmin argmin_V(c), since lex order is a group order:
      one pass over the k vertices instead of the k^2 differences."""
    if len(verts) == 1:
        return [(0,) * len(verts[0])]
    if chain is not None and len(chain) > 2:
        return _planar_difference(chain)
    if len(verts) == 2 or len(verts[0]) <= 2:
        # a segment, from its lex-least to its lex-largest point
        d = tuple(b - a for a, b in zip(verts[0], verts[-1]))
        return [_neg(d), d]

    def top(c: Sequence[int]) -> Point:
        vals = [_dot(c, v) for v in verts]
        hi, lo = max(vals), min(vals)
        return tuple(a - b for a, b in zip(max(v for v, x in zip(verts, vals) if x == hi),
                                           min(v for v, x in zip(verts, vals) if x == lo)))

    diffs = sorted({tuple(a - b for a, b in zip(x, y)) for x in verts for y in verts})
    return _clarkson(diffs, top, True)


def _planar_difference(chain: List[Point]) -> List[Point]:
    """Sorted vertices of P + (-P) for the counter-clockwise chain of a
    polygon P that starts at its lex-least vertex, as convex_hull_2d's does.
    -P's chain is P's negated and rotated to start at -(P's lex-largest
    vertex), its lex-least, so its edges are P's negated, rotated the same
    way: no second hull is needed.  From the lex-least vertex on, each
    chain's edges turn left, their directions first in the half-turn
    (-90, 90] degrees and then in (90, 270]; within a half-turn the sign of
    the cross product orders two directions.  The sum starts at the sum of
    the two lex-least vertices and follows the two edge sequences merged in
    that order, taking parallel edges together, so no three of its
    vertices are collinear."""
    k = len(chain)
    a = []  # (half-turn, dx, dy) of each edge of P
    for (x0, y0), (x1, y1) in zip(chain, chain[1:] + chain[:1]):
        dx, dy = x1 - x0, y1 - y0
        a.append((0 if dx > 0 or (dx == 0 and dy > 0) else 1, dx, dy))
    top = chain.index(max(chain))
    b = [(1 - h, -dx, -dy) for h, dx, dy in a[top:] + a[:top]]  # -P's, from -chain[top]
    x, y = chain[0][0] - chain[top][0], chain[0][1] - chain[top][1]
    out = []
    i = j = 0
    while i < k or j < k:
        out.append((x, y))
        # > 0: P's edge comes first, < 0: -P's, 0: they are parallel
        turn = (1 if j == k else -1 if i == k
                else b[j][0] - a[i][0] or a[i][1] * b[j][2] - a[i][2] * b[j][1])
        if turn >= 0:
            x, y = x + a[i][1], y + a[i][2]
            i += 1
        if turn <= 0:
            x, y = x + b[j][1], y + b[j][2]
            j += 1
    return sorted(out)


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
    """Sub-sum of tau over support points maximizing <., alpha>: one dot
    product of alpha with the coordinate columns of tau's keys, and the
    keys that reach the top, packed under tau's codec."""
    if tau.group.torsion:
        raise UnsupportedTorsionError("extremal part needs a torsion-free group")
    pk, keys = tau.packed
    if not keys:
        raise ValueError("zero element has no extremal part")
    if len(alpha) != tau.group.rank:
        raise ValueError("covector length does not match dimension")
    (vals,), _ = dot_map(([tuple(alpha)], []), pk.columns(keys), len(keys))
    top = max(vals)
    return GroupRingElement(tau.group, packed=(pk, {
        k: c for (k, c), v in zip(keys.items(), vals) if v == top}))


# ---------------------------------------------------------------------------
# Disk-decomposability obstruction

_Z = AbelianGroup(1, ())


def cyclic_sum(p: int) -> GroupRingElement:
    """1 + t + ... + t^(p-1), the torsion of the p-times-twisted solid torus."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _from_rows(_Z, [range(p)], [1] * p)


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
    cost is linear in its term count.  On Z a packed key is its exponent, so
    everything reads tau's keys: the extremal parts are the least and the
    greatest key, and the shape test reads a candidate's keys shifted by
    their least key and signed by that key's coefficient, which is its
    canonical form (normalize)."""
    if tau.group != _Z:
        raise UnsupportedStructureError("disk obstruction needs a rank-1 torsion-free group")
    pk, keys = tau.packed
    if not keys:
        raise UnsupportedStructureError("zero torsion")
    lo, hi = min(keys), max(keys)
    auto_cap = (hi - lo) + 1
    cap = min(p_max, auto_cap)

    def analyze(label: str, cand: GroupRingElement) -> DiskCandidate:
        # The canonical form of a rank-1 element starts at t^0 with a
        # positive coefficient, as every product of solid-torus torsions does.
        terms = cand.packed[1]
        n, low = len(terms), min(terms)
        sign = -1 if terms[low] < 0 else 1
        p1 = max(terms.values()) if sign > 0 else -min(terms.values())
        p2 = n - p1 + 1
        if not (p1 <= p2 <= cap and max(terms) - low == n - 1 and all(
                sign * c == min(k - low + 1, p1, n - k + low) for k, c in terms.items())):
            return DiskCandidate(label, cand, None, None)
        if p1 == 1:
            return DiskCandidate(label, cand, n, None)
        return DiskCandidate(label, cand, None, (p1, p2))

    def part(k: int) -> GroupRingElement:
        return GroupRingElement(tau.group, packed=(pk, {k: keys[k]}))

    cands = (
        analyze("tau", tau),
        analyze("extremal(+1)", part(hi)),
        analyze("extremal(-1)", part(lo)),
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
    hull drawn as a polygon: S.hull's chain in the plane, its two extreme
    points on the line, so the support is not hulled again."""
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
    verts, chain = S.hull
    hull = chain if S.dim == 2 else [(x, 0) for x, in verts]
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
