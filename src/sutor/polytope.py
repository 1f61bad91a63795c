"""Support (Newton) polytope analysis of the torsion: width bounds, the
difference polytope, symmetry, extremal faces, and the disk-decomposability
obstruction.

Hulls are exact and integer: in dimension <= 1 the extreme points, in
dimension 2 the monotone chain.  From dimension 3 on, a point set of
lower affine dimension r is hulled in the r coordinates where its
differences first reach full rank, and a full-dimensional one by one
facet hull (_facet_hull): Quickhull's outside sets on oriented simplicial
facets with integer normals (the cross product in dimension 3, signed
minors above), a new facet made from a visible one by putting the new
point in place of a vertex, so it keeps its orientation, and a vertex
test by the rank of the facet normals at each point.  It solves no LP and
counts its point-facet steps against words.WORK_BUDGET.  Only
point_in_hull is a linear feasibility test: a small phase-1 simplex on an
integer tableau with fraction-free pivots, the Bareiss step
abelian.bareiss_pivot.

A Support hulls its points once, on first read, and keeps the vertices
(and in the plane the counter-clockwise chain); vertices and
difference_polytope both read that hull.  The difference polytope P - P =
P + (-P) is built from P's vertices by its structure: a point or a segment
gives the origin or +-d, a polygon is the merge of the edge sequences of P
and -P by angle, and from dimension 3 on the facet hull runs over the
distinct vertex differences.  The support, extremal_part and the disk
report read tau's packed keys (groupring._Packing.columns) and build no
AbElement.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from operator import mul, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import words as W
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
        """The sorted vertices of conv(points), from hull_vertices (the
        facet hull from dimension 3 on), and, in the plane, the
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


def hull_vertices(points: Sequence[Point]) -> List[Point]:
    """Sorted vertex set of conv(points): the two extreme points on a line,
    the monotone chain in the plane, and from dimension 3 on the facet hull
    (_facet_hull) on the points' affine hull.  Support.hull keeps the
    result for a support, so it is hulled once; difference_polytope hulls
    a difference set through _hull."""
    return _hull(sorted(set(points)))


def _hull(pts: List[Point]) -> List[Point]:
    """hull_vertices of pts, sorted and distinct.  From dimension 3 on, a
    set of lower affine dimension r is hulled on the first r coordinates
    where its differences have rank r: the projection onto them maps its
    affine hull isomorphically onto R^r, so it maps vertices to vertices,
    and the line, the chain or the facet hull runs there."""
    dim = len(pts[0]) if pts else 0
    if dim <= 1:
        return pts if len(pts) <= 1 else [pts[0], pts[-1]]
    if dim == 2:
        return sorted(convex_hull_2d(pts))
    cols, simplex = _affine_basis(pts)
    if len(cols) == dim:
        return _facet_hull(pts, simplex)
    proj = [tuple(p[k] for k in cols) for p in pts]
    back = dict(zip(proj, pts))
    return sorted(back[v] for v in _hull(sorted(proj)))


def _echelon(vectors: Iterable[Sequence[int]], d: int) -> Tuple[List[int], List[int]]:
    """Fraction-free row reduction of vectors in Z^d, one at a time, until
    their rank reaches d.  Returns the pivot columns in increasing order,
    which are the lex-first columns of full rank, and the indices of the
    vectors that raised the rank.  Every kept row is zero before its pivot
    and on every other row's pivot."""
    basis: Dict[int, List[int]] = {}
    raised = []
    for i, v in enumerate(vectors):
        for c, row in basis.items():
            f = v[c]
            if f:
                p = row[c]
                v = [x * p - f * y for x, y in zip(v, row)]
        j = next((k for k, x in enumerate(v) if x), -1)
        if j < 0:
            continue
        for c, row in basis.items():
            f = row[j]
            if f:
                basis[c] = [x * v[j] - f * y for x, y in zip(row, v)]
        basis[j] = v
        raised.append(i)
        if len(basis) == d:
            break
    return sorted(basis), raised


def _affine_basis(pts: List[Point]) -> Tuple[List[int], List[Point]]:
    """The first coordinates where the differences of pts have full rank
    r, and r + 1 affinely independent points of pts, pts[0] first."""
    p0 = pts[0]
    cols, raised = _echelon((list(map(sub, p, p0)) for p in pts), len(p0))
    return cols, [p0] + [pts[i] for i in raised]


def _minors(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The signed maximal minors n of d - 1 rows in Z^d of rank d - 1, the
    cofactors of the last row of [rows; y], so that <n, y> = det[rows; y]
    for every y.  One fraction-free Gauss-Jordan pass (the Bareiss step
    abelian.bareiss_pivot), its pivot columns taken in increasing order,
    leaves D times the reduced echelon form, D = +-det of the pivot
    columns.  Its kernel vector z has D at the one other column f and
    minus row k's entry at f at row k's pivot column; n_f is (-1)^(d-1+f)
    times that determinant, so n is z times the sign of the row swaps and
    of (-1)^(d-1+f)."""
    R = [list(r) for r in rows]
    d, sign, den, c, pivots = len(R) + 1, 1, 1, 0, []
    for k in range(d - 1):
        r = k
        while c < d and not R[r][c]:  # the first row from k on with an entry in column c
            r += 1
            if r == d - 1:
                r, c = k, c + 1
        if c == d:
            return (0,) * d  # rank below d - 1
        if r != k:
            R[k], R[r] = R[r], R[k]
            sign = -sign
        bareiss_pivot(R, k, c, den)
        den = R[k][c]
        pivots.append(c)
        c += 1
    f = next(j for j in range(d) if j not in pivots)
    if (d - 1 + f) & 1:
        sign = -sign
    n = [0] * d
    n[f] = sign * den
    for row, ck in zip(R, pivots):
        n[ck] = -sign * row[f]
    return tuple(n)


def _spans(ns: List[Tuple[int, ...]], d: int) -> bool:
    """Do the vectors ns span R^d?  In d = 3: is some vector off the plane
    of ns[0] and the first vector not parallel to it?  Else row reduction
    decides."""
    if d == 3:
        a, b, c = ns[0]
        for x, y, z in ns:
            u, v, w = b * z - c * y, c * x - a * z, a * y - b * x
            if u or v or w:
                return any(u * x + v * y + w * z for x, y, z in ns)
        return False
    return len(_echelon(ns, d)[0]) == d


@cache
def _ridges_at(d: int) -> List[List[Tuple[int, Tuple[int, ...]]]]:
    """For a facet through a new point at place k: each other place j, with
    the places of the d - 2 other points of the ridge opposite place j."""
    return [[(j, tuple(t for t in range(d) if t != j and t != k))
             for j in range(d) if j != k] for k in range(d)]


def _facet(ws: Tuple[Point, ...], nb: list) -> list:
    """An oriented facet of the hull, the list [ws, n, c, nb, out, mark]:
    - ws, its d points;
    - n, the _minors of ws[1] - ws[0], ..., ws[d-1] - ws[0] (their cross
      product in d = 3), and c = <n, ws[0]>, so <n, y> - c = det[ws[1] -
      ws[0], ..., ws[d-1] - ws[0], y - ws[0]]; y is above the facet when
      that is positive, and the hull lies below;
    - nb[k], the facet across the ridge opposite ws[k];
    - out, the pending points assigned to it, None once it is deleted;
    - mark, +-i once the i-th added point was found above (+) or not
      above (-) it."""
    if len(ws) == 3:
        (a, b, c), (x, y, z), (u, v, w) = ws
        x, y, z, u, v, w = x - a, y - b, z - c, u - a, v - b, w - c
        x, y, z = y * w - z * v, z * u - x * w, x * v - y * u
        return [ws, (x, y, z), x * a + y * b + z * c, nb, [], 0]
    w0 = ws[0]
    n = _minors([list(map(sub, w, w0)) for w in ws[1:]])
    return [ws, n, sum(map(mul, n, w0)), nb, [], 0]


def _facet_hull(pts: List[Point], simplex: List[Point]) -> List[Point]:
    """Sorted vertex set of conv(pts), for pts sorted, distinct and of full
    dimension d >= 3 and simplex d + 1 affinely independent points of
    pts: an exact integer beneath-beyond hull with Quickhull's outside
    sets (Barber, Dobkin and Huhdanpaa, ACM TOMS 22, 1996).

    The simplex's facets are oriented by the vertex each leaves out, and
    every other point is assigned to the first facet it is above.  Then,
    while a facet has pending points, its farthest one p is added.  The
    facets p is above are found by walking adjacency from that facet.
    Each ridge between one of them, V, and a facet below p gives a new
    facet: V with the ridge's opposite vertex replaced by p.  It keeps V's
    orientation, as the replaced vertex lies below it, so no interior
    point is needed.  The new facets' ridges through p are matched by
    their other d - 2 points.  The deleted facets' pending points are
    tested against the new facets only, since a point above V and above
    none of them lies in the new hull.

    Coplanar facets are not merged, so at the end a point of the
    triangulation is a vertex when the normals of its facets span R^d.
    Each point-facet test, and each point of each new facet, is one step.
    words.WORK_BUDGET is read once, and the count is checked against it
    after each pending point's tests and after each added point."""
    d = len(pts[0])
    if len(pts) == d + 1:
        return pts  # a simplex
    facets = []
    for k, s in enumerate(simplex):
        ws = tuple(simplex[:k] + simplex[k + 1:])
        F = _facet(ws, [])
        if sum(map(mul, F[1], s)) > F[2]:
            F = _facet((ws[1], ws[0]) + ws[2:], [])
        facets.append(F)
    for F in facets:
        F[3] = [facets[simplex.index(w)] for w in F[0]]
    work, budget, steps = 0, W.WORK_BUDGET, "a facet hull of {} point-facet steps is"
    corners = set(simplex)
    for q in pts:
        if q not in corners:
            for F in facets:
                work += 1
                if sum(map(mul, F[1], q)) > F[2]:
                    F[4].append(q)
                    break
            if work > budget:
                W.check_budget(work, steps)
    ridges_at = _ridges_at(d)
    stack = [F for F in facets if F[4]]
    stamp = 0
    while stack:
        F = stack.pop()
        out = F[4]
        if not out:  # deleted, or nothing pending
            continue
        n = F[1]
        p = max(out, key=lambda q: sum(map(mul, n, q)))
        out.remove(p)
        stamp += 1
        F[5] = stamp
        visible, horizon = [F], []
        for V in visible:
            for k, G in enumerate(V[3]):
                m = G[5]
                if m == stamp:
                    continue
                if m != -stamp:
                    work += 1
                    if sum(map(mul, G[1], p)) > G[2]:
                        G[5] = stamp
                        visible.append(G)
                        continue
                    G[5] = -stamp
                horizon.append((V, k))
        new, open_ridges = [], {}
        for V, k in horizon:
            nb = V[3]
            ws = V[0][:k] + (p,) + V[0][k + 1:]
            N = _facet(ws, nb[:])
            G = nb[k][3]
            G[G.index(V)] = N
            for j, rest in ridges_at[k]:
                key = ws[rest[0]] if d == 3 else tuple(sorted([ws[t] for t in rest]))
                M, i = open_ridges.setdefault(key, (N, j))
                if M is not N:
                    N[3][j] = M
                    M[3][i] = N
            new.append(N)
        work += d * len(new)
        for V in visible:
            for q in V[4]:
                for N in new:
                    work += 1
                    if sum(map(mul, N[1], q)) > N[2]:
                        N[4].append(q)
                        break
                if work > budget:
                    W.check_budget(work, steps)
            V[4] = None
        if work > budget:
            W.check_budget(work, steps)
        stack += [N for N in new if N[4]]
        facets += new
    normals: Dict[Point, List[Tuple[int, ...]]] = {}
    for ws, n, _, _, out, _ in facets:
        if out is not None:
            for w in ws:
                normals.setdefault(w, []).append(n)
    return sorted(w for w, ns in normals.items() if _spans(ns, d))


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
    - from dimension 3 on, the facet hull of the distinct differences V -
      V, through _hull, which hulls them in fewer coordinates when P is
      flat."""
    if len(verts) == 1:
        return [(0,) * len(verts[0])]
    if chain is not None and len(chain) > 2:
        return _planar_difference(chain)
    if len(verts) == 2 or len(verts[0]) <= 2:
        # a segment, from its lex-least to its lex-largest point
        d = tuple(b - a for a, b in zip(verts[0], verts[-1]))
        return [_neg(d), d]

    return _hull(sorted({tuple(map(sub, x, y)) for x in verts for y in verts}))


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
