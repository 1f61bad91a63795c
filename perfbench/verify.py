"""Independent oracles for the benchmark's outputs.

Torsion values are compared up to units with the benchmark's own code, not
with `sutor.groupring.sim_equal`, so a wrong canonical form cannot hide a
wrong value.  Polytope answers are checked with hull code of our own: a
monotone chain in dimension 2 and facet enumeration in dimension 3.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from sutor import engine as E
from sutor import families as F

Point = Tuple[int, ...]
Poly = Dict[Point, int]

SEIFERT = {"trefoil": F.TREFOIL_SEIFERT, "figure_eight": F.FIGURE_EIGHT_SEIFERT}


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent tuple: coefficient}

def free_terms(p) -> Poly:
    """A torsion-free group-ring element as a plain Laurent polynomial."""
    if p.group.torsion:
        raise ValueError("oracle comparison needs a torsion-free group")
    return {h.free: c for h, c in p.terms.items()}


def canonical(p: Poly) -> Poly:
    """Shift the lex-least exponent to the origin and make its coefficient
    positive: the unique representative of {+-t^k p} over a free group."""
    if not p:
        return {}
    low = min(p)
    sign = 1 if p[low] > 0 else -1
    return {tuple(a - b for a, b in zip(e, low)): sign * c for e, c in p.items()}


def _add_into(acc: Poly, e: Point, c: int) -> None:
    v = acc.get(e, 0) + c
    if v:
        acc[e] = v
    else:
        acc.pop(e, None)


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _add_into(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def fox_entry(word: Sequence[Tuple[int, int]], gen: int, g: int) -> Poly:
    """d(word)/d(gen) with generator i sent to the i-th basis vector of Z^g."""
    out: Poly = {}
    prefix = [0] * g
    for x, k in word:
        if x == gen:
            steps = range(k) if k > 0 else range(-1, k - 1, -1)
            for j in steps:
                e = list(prefix)
                e[x] += j
                _add_into(out, tuple(e), 1 if k > 0 else -1)
        prefix[x] += k
    return out


def laurent_det(M: List[List[Poly]]) -> Poly:
    """Laplace expansion along the first row; the matrices here are <= 4x4."""
    n = len(M)
    if n == 1:
        return dict(M[0][0])
    out: Poly = {}
    for j in range(n):
        if not M[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        for e, c in _mul(M[0][j], laurent_det(minor)).items():
            _add_into(out, e, c if j % 2 == 0 else -c)
    return out


def fox_det(words: Sequence[Sequence[Tuple[int, int]]], g: int) -> Poly:
    """det of the abelianized Fox matrix of a presentation without relators."""
    return laurent_det([[fox_entry(w, x, g) for w in words] for x in range(g)])


def to_basis(p: Poly, gen_map) -> Poly:
    """Re-express exponents over the generators in the basis of H given by
    the images of the generators."""
    out: Poly = {}
    for e, c in p.items():
        h = [0] * len(gen_map[0].free)
        for k, img in zip(e, gen_map):
            for i, v in enumerate(img.free):
                h[i] += k * v
        _add_into(out, tuple(h), c)
    return out


def alternating(n: int) -> Poly:
    """1 - t + t^2 - ... + t^(n-1), the Alexander polynomial of T(2,n)."""
    return {(i,): (-1) ** i for i in range(n)}


# ---------------------------------------------------------------------------
# Hulls

def hull_1d(points: Sequence[Point]) -> List[Point]:
    return sorted({min(points), max(points)})


def hull_2d(points: Sequence[Point]) -> List[Point]:
    """Vertices of the convex hull by Andrew's monotone chain."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain: List[Point] = []
    for seq in (pts, pts[::-1]):
        part: List[Point] = []
        for p in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        chain += part[:-1]
    return sorted(chain)


def _sub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def _dot(a: Point, b: Point) -> int:
    return sum(x * y for x, y in zip(a, b))


def _cross(a: Point, b: Point) -> Point:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def check_vertices_3d(claimed: Sequence[Point], points: Sequence[Point]) -> Optional[str]:
    """Is `claimed` exactly the vertex set of conv(points) in R^3?  Every
    facet plane of conv(claimed) must bound all points, and each claimed
    point must lie on three facets with independent normals."""
    V = sorted(set(claimed))
    if not set(V) <= set(points):
        return "claimed vertex is not an input point"
    facets = []
    for a, b, c in itertools.combinations(V, 3):
        n = _cross(_sub(b, a), _sub(c, a))
        if n == (0, 0, 0):
            continue
        side = [_dot(n, _sub(q, a)) for q in V]
        if all(s <= 0 for s in side):
            facets.append((n, _dot(n, a)))
        elif all(s >= 0 for s in side):
            n = tuple(-x for x in n)
            facets.append((n, _dot(n, a)))
    if not facets:
        return "claimed vertices are not full-dimensional"
    for q in points:
        if any(_dot(n, q) > d for n, d in facets):
            return f"point {q} lies outside the claimed hull"
    for v in V:
        normals = [n for n, d in facets if _dot(n, v) == d]
        if not any(_dot(_cross(x, y), z) for x, y, z in itertools.combinations(normals, 3)):
            return f"claimed vertex {v} is not a vertex"
    return None


def check_hull(claimed: Sequence[Point], points: Sequence[Point], dim: int) -> Optional[str]:
    if dim == 3:
        return check_vertices_3d(claimed, points)
    expected = hull_1d(points) if dim == 1 else hull_2d(points)
    if sorted(set(claimed)) != expected:
        return f"hull vertices {sorted(claimed)} != {expected}"
    return None


def centrally_symmetric(points: Poly) -> bool:
    d = len(next(iter(points)))
    c2 = tuple(max(p[k] for p in points) + min(p[k] for p in points) for k in range(d))
    return any(
        all(points.get(_sub(c2, p)) == sign * c for p, c in points.items())
        for sign in (1, -1)
    )


# ---------------------------------------------------------------------------
# Per-case checks.  Each returns a list of failure messages (empty: correct).

def _no_relator_words(family: str, params: dict):
    if "words" in params:
        return [[tuple(x) for x in w] for w in params["words"]]
    if family == "cantwell_conlon":
        inp = F.cantwell_conlon()
    else:
        inp = getattr(F, family)(params["r"], params["s"], params["t"])
    return [w.letters for w in inp.rminus]


def expected_tau(family: str, params: dict, oracle: str, gen_map) -> Poly:
    """The oracle's torsion, canonical, in the coordinates of H given by
    the generator images gen_map."""
    if oracle == "closed_form":
        return canonical(alternating(params["n"]))
    if oracle == "seifert":
        return canonical(free_terms(F.alexander_from_seifert(SEIFERT[family])))
    if oracle == "pretzel_odd_expected":
        return canonical(free_terms(F.pretzel_odd_expected(params["r"], params["s"], params["t"])))
    if oracle == "cyclic_sum":
        return canonical(free_terms(F.cyclic_sum(params["p"])))
    if oracle == "laurent_det":
        words = _no_relator_words(family, params)
        return canonical(to_basis(fox_det(words, len(words)), gen_map))
    if oracle == "second_presentation":
        pd = [tuple(x) for x in params["pd"]]
        other = F.wirtinger_knot(pd, drop_relation=0, meridian_edge=len(pd) + 1)
        return canonical(free_terms(E.torsion(other).raw_det))
    raise ValueError(f"unknown oracle {oracle!r}")


def check_torsion(family: str, params: dict, oracle: str, result: E.TorsionResult,
                  ev, au) -> List[str]:
    errs = []
    tau = free_terms(result.tau)
    if tau != canonical(free_terms(result.raw_det)):
        errs.append("tau is not the canonical form of the raw determinant")
    if tau != expected_tau(family, params, oracle, result.gen_map):
        errs.append(f"tau differs from the {oracle} oracle")
    if oracle == "second_presentation":
        if abs(sum(tau.values())) != 1:
            errs.append("|Delta(1)| != 1")
        if not centrally_symmetric(tau):
            errs.append("Alexander polynomial is not symmetric")
    if not ev.passed:
        errs.append("evaluation check failed")
    if not au.passed:
        errs.append("augmentation/order check failed")
    return errs


def check_polytope(params: dict, family: str, out: dict) -> List[str]:
    """out: support points, vertices, symmetry flag, difference-polytope
    vertices and (dimension 1) the disk report."""
    errs = []
    pts: Poly = out["points"]
    dim = out["dim"]
    err = check_hull(out["vertices"], list(pts), dim)
    if err:
        errs.append("vertices: " + err)
    if out["symmetric"] != centrally_symmetric(pts):
        errs.append("central symmetry flag is wrong")
    verts = sorted(set(out["vertices"]))
    diffs = {_sub(x, y) for x in verts for y in verts}
    err = check_hull(out["difference"], list(diffs), dim)
    if err:
        errs.append("difference polytope: " + err)
    disk = out.get("disk")
    if disk is not None:
        span = max(p[0] for p in pts) - min(p[0] for p in pts)
        if disk.effective_cap != min(params["disk_cap"], span + 1) or disk.obstructed:
            errs.append("disk report: wrong cap or verdict")
        whole, top, bottom = disk.candidates
        if family == "solid_torus" and whole.single_match != params["p"]:
            errs.append("disk report: solid torus not matched")
        if family == "torus_2n" and (whole.matched or top.single_match != 1
                                     or bottom.single_match != 1):
            errs.append("disk report: wrong matches for T(2,n)")
    return errs
