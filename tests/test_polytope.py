import collections
import itertools
import json
import os
import random
import subprocess
import sys

import legacy_canonical
import legacy_polytope
import pytest
from hull_edges import edge_lengths_2d

from sutor import engine as E
from sutor import polytope as P
from sutor.abelian import AbElement, AbelianGroup
from sutor.families import cantwell_conlon, goda_tau, pretzel_even, pretzel_odd, solid_torus
from sutor.families import torus_2n_pd, wirtinger_knot
from sutor.groupring import (
    UnsupportedTorsionError,
    element,
    equal,
    from_records,
    monomial,
    mul,
    one,
    to_records,
)

Z = AbelianGroup(1)
Z2 = AbelianGroup(2)


def poly2(*triples):
    return element(Z2, {AbElement((i, j), ()): c for i, j, c in triples})


def poly1(*pairs):
    return element(Z, {AbElement((k,), ()): c for k, c in pairs})


def test_support_and_width():
    p = poly2((0, 0, 1), (2, 1, -3))
    S = P.support(p)
    assert S.dim == 2
    assert S.points == {(0, 0): 1, (2, 1): -3}
    assert P.width(S, (1, 0)) == 2
    assert P.width(S, (0, 1)) == 1
    assert P.width(S, (1, -2)) == 0
    with pytest.raises(ValueError):
        P.width(S, (1,))


def test_support_rejects_torsion():
    T = AbelianGroup(0, (2,))
    with pytest.raises(UnsupportedTorsionError):
        P.support(one(T))


def test_point_in_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert P.point_in_hull((1, 1), square)
    assert P.point_in_hull((0, 0), square)
    assert not P.point_in_hull((3, 1), square)
    assert not P.point_in_hull((1, 1), [])


def test_point_in_hull_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        P.point_in_hull((1, 2, 3), [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="dimension"):
        P.point_in_hull((1, 1), [(0, 0), (1, 1, 1)])


def _lp_targets(rng, dim):
    """Seeded point sets in dimensions 2-5, doubled so that midpoints stay
    integral, with targets on a vertex, on a segment between two points,
    at the centroid, inside, outside and with negative coordinates.  Sets
    are random, with repeated points, or coplanar."""
    for kind in ("random", "repeated", "coplanar"):
        for n in (1, 2, 4, 6, 9):
            if kind == "coplanar":
                base, u, w = ([rng.randint(-2, 2) for _ in range(dim)] for _ in range(3))
                ijs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                pts = [tuple(b + i * x + j * y for b, x, y in zip(base, u, w))
                       for i, j in ijs]
            else:
                pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)]
                if kind == "repeated":
                    pts += rng.choices(pts, k=n)
            pts = [tuple(2 * x for x in p) for p in pts]
            a, b = rng.choice(pts), rng.choice(pts)
            mid = tuple((x + y) // 2 for x, y in zip(a, b))
            centroid = tuple(sum(c) // len(pts) for c in zip(*pts))
            far = tuple(x + rng.choice((-9, 9)) for x in a)
            near = tuple(x + rng.randint(-1, 1) for x in mid)
            shift = tuple(-x - rng.randint(1, 3) for x in a)
            for v in (a, mid, centroid, far, near, shift):
                yield pts, v


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_integer_lp_matches_legacy_fraction_lp(dim):
    seen = {True: 0, False: 0}
    negative = 0
    for pts, v in _lp_targets(random.Random(1000 + dim), dim):
        A = [[p[k] for p in pts] for k in range(dim)] + [[1] * len(pts)]
        b = list(v) + [1]
        got = P._farkas(A, b) is None
        assert got == legacy_polytope._lp_feasible(A, b), (pts, v)
        assert P.point_in_hull(v, pts) == got
        if v in pts:
            assert got
        seen[got] += 1
        negative += min(v) < 0
    assert min(seen.values()) > 20 and negative > 20


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_infeasible_lp_returns_a_farkas_certificate(dim):
    """On an infeasible target the kernel returns integers y with y.A_j <= 0
    on every column and y.b > 0, read off the final tableau; feasibility
    still agrees with the Fraction LP."""
    infeasible = 0
    for pts, v in _lp_targets(random.Random(2000 + dim), dim):
        A = [[p[k] for p in pts] for k in range(dim)] + [[1] * len(pts)]
        b = list(v) + [1]
        y = P._farkas(A, b)
        assert (y is None) == legacy_polytope._lp_feasible(A, b), (pts, v)
        if y is None:
            continue
        infeasible += 1
        assert len(y) == len(b) and all(type(x) is int for x in y)
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0 for j in range(len(pts)))
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0
    assert infeasible > 20


def test_lp_divides_by_the_previous_pivot(monkeypatch):
    """Each pivot divides by the one before it (1 at the start), which keeps
    every tableau entry a minor of the input instead of a product of
    pivots."""
    pivot = P.bareiss_pivot
    last = []
    count = 0

    def spy(T, k, c, den, *rest):
        nonlocal count
        assert den == (T[last[-1][0]][last[-1][1]] if last else 1)
        pivot(T, k, c, den, *rest)
        last.append((k, c))
        count += 1

    monkeypatch.setattr(P, "bareiss_pivot", spy)
    for pts, v in _lp_targets(random.Random(7), 4):
        last.clear()
        P.point_in_hull(v, pts)
    assert count > 100


def test_point_in_hull_edge_and_face_targets():
    cube = [tuple(2 * x for x in p) for p in itertools.product((0, 1), repeat=3)]
    assert P.point_in_hull((2, 2, 2), cube)  # vertex
    assert P.point_in_hull((1, 0, 0), cube)  # edge midpoint
    assert P.point_in_hull((1, 1, 2), cube)  # face center
    assert P.point_in_hull((1, 1, 1), cube)  # center
    assert not P.point_in_hull((3, 1, 1), cube)
    assert not P.point_in_hull((-1, 0, 0), cube)  # negative right-hand side
    shifted = [tuple(x - 5 for x in p) for p in cube]
    assert P.point_in_hull((-4, -5, -3), shifted)
    assert not P.point_in_hull((-6, -4, -4), shifted)


def test_import_leaves_fractions_out():
    """All arithmetic is integer, and only `batch --parallel` needs an
    executor, so importing the package loads neither."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, sutor, sutor.cli, sutor.polytope; "
            "print('fractions' in sys.modules, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_hull_vertices_drops_interior():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)]
    assert sorted(P.hull_vertices(pts)) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_vertices_of_support():
    p = poly2((0, 0, 1), (1, 0, 1), (2, 0, 1), (1, 1, 1))
    assert sorted(P.vertices(P.support(p))) == [(0, 0), (1, 1), (2, 0)]


def test_difference_polytope_symmetric():
    p = poly2((0, 0, 1), (1, 0, 1), (0, 1, 1))
    dv = P.difference_polytope(P.support(p))
    assert sorted(dv) == sorted([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)])
    assert all(tuple(-x for x in v) in dv for v in dv)


def _random_point_sets(rng):
    """Seeded point sets in dimensions 1-3 with small coordinates (so points
    repeat), one- and two-point sets, collinear sets in the plane and
    coplanar sets in space."""
    for dim in (1, 2, 3):
        for n in (1, 2, 3, 4, 6, 8, 10):
            for _ in range(4):
                yield [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)]
    for n in (2, 3, 5, 8):
        for _ in range(4):
            base = (rng.randint(-3, 3), rng.randint(-3, 3))
            step = (rng.randint(-2, 2), rng.randint(-2, 2))
            ks = [rng.randint(-3, 3) for _ in range(n)]
            yield [(base[0] + k * step[0], base[1] + k * step[1]) for k in ks]
    for n in (3, 5, 8, 10):
        for _ in range(4):
            base, u, w = ([rng.randint(-2, 2) for _ in range(3)] for _ in range(3))
            ijs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
            yield [tuple(b + i * x + j * y for b, x, y in zip(base, u, w)) for i, j in ijs]
    for dim in (4, 5):
        for n in (1, 2, 4, 6, 8, 10):
            for _ in range(3):
                yield [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)]
    # centrally symmetric sets, with and without 0, which take the half path
    for dim in (3, 4, 5):
        for n in (1, 2, 3, 5):
            for zero in (False, True):
                half = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n)]
                pts = [p for p in half + [tuple(-x for x in p) for p in half] if any(p)]
                if pts:
                    yield pts + [(0,) * dim] * zero
    # one point, so the difference set is {0}
    for dim in range(1, 6):
        yield [tuple(rng.randint(-3, 3) for _ in range(dim))] * 2


def test_hull_matches_legacy_lp_hull():
    repeated = segments = symmetric = single = 0
    for pts in _random_point_sets(random.Random(20261018)):
        hull = P.hull_vertices(pts)
        assert hull == legacy_polytope.hull_vertices(pts), pts
        if len(pts) <= 4:
            S = P.Support(len(pts[0]), dict.fromkeys(pts, 1))
            assert P.difference_polytope(S) == legacy_polytope.difference_polytope(S), pts
            if len(S.points) == 1:
                assert P.difference_polytope(S) == [(0,) * S.dim]
                single += 1
        repeated += len(set(pts)) < len(pts)
        segments += len(set(pts)) > 2 and len(hull) == 2
        symmetric += len(pts[0]) >= 3 and len(set(pts)) > 1 and (
            {tuple(-x for x in p) for p in pts} == set(pts))
    assert repeated and segments and symmetric >= 20 and single >= 5
    assert P.hull_vertices([]) == legacy_polytope.hull_vertices([]) == []


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_difference_polytope_of_8_points_matches_legacy(dim):
    """Eight points, about 57 distinct differences: the oracle runs one
    Fraction LP per difference against all the others."""
    rng = random.Random(30 + dim)
    pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(8)]
    S = P.Support(dim, dict.fromkeys(pts, 1))
    assert len(S.points) == 8
    assert P.difference_polytope(S) == legacy_polytope.difference_polytope(S)


def _differences(pts):
    return list({tuple(a - b for a, b in zip(x, y)) for x in pts for y in pts})


def _difference_sets(rng):
    """(kind, points): seeded random sets in dimensions 1-4, and the
    degenerate ones: a single point, collinear points in the plane and in
    space, coplanar points in space, and polygons with parallel edges
    (centrally symmetric ones, where every edge has a parallel partner,
    trapezoids and lattice rectangles)."""
    for dim in (1, 2, 3, 4):
        for n in (2, 3, 4, 5, 7, 10):
            for _ in range(4):
                yield "random", [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(n)]
        yield "point", [tuple(rng.randint(-4, 4) for _ in range(dim))] * 3
    for dim in (2, 3):
        for n in (2, 3, 6):
            base = [rng.randint(-3, 3) for _ in range(dim)]
            step = [rng.randint(-2, 2) for _ in range(dim)]
            yield "collinear", [tuple(b + k * x for b, x in zip(base, step))
                                for k in rng.sample(range(-4, 5), n)]
    for n in (3, 5, 8):
        for _ in range(3):
            base, u, w = ([rng.randint(-2, 2) for _ in range(3)] for _ in range(3))
            ijs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
            yield "coplanar", [tuple(b + i * x + j * y for b, x, y in zip(base, u, w))
                               for i, j in ijs]
    for n in (2, 3, 4, 6):
        for _ in range(3):
            half = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
            c = (rng.randint(-3, 3), rng.randint(-3, 3))
            yield "parallel", half + [(c[0] - x, c[1] - y) for x, y in half]
    for _ in range(6):
        y0, h = rng.randint(-3, 3), rng.randint(1, 4)
        a, b = sorted(rng.sample(range(-5, 6), 2))
        c, d = sorted(rng.sample(range(-5, 6), 2))
        yield "parallel", [(a, y0), (b, y0), (c, y0 + h), (d, y0 + h)]
        yield "parallel", [(x, y) for x in (a, b) for y in (y0, y0 + h)]


def test_difference_vertices_match_the_hull_of_all_differences_and_legacy():
    """The planar merge, the segment and point shortcuts and the
    difference-set witness of difference_polytope against hull_vertices of
    every difference, against difference_polytope of the hull's vertices
    alone and, on up to 6 distinct points, the one-LP-per-difference legacy
    oracle.  A second read of the Support's cached hull agrees."""
    seen = collections.Counter()
    for kind, pts in _difference_sets(random.Random(20261019)):
        dim = len(pts[0])
        S = P.Support(dim, dict.fromkeys(pts, 1))
        got = P.difference_polytope(S)
        assert got == P.hull_vertices(_differences(pts)), (kind, pts)
        hull = P.Support(dim, dict.fromkeys(P.hull_vertices(pts), 1))
        assert got == P.difference_polytope(hull) == sorted(got)
        assert sorted(P._neg(v) for v in got) == got
        assert P.difference_polytope(S) == got
        if len(S.points) <= 6:
            assert got == legacy_polytope.difference_polytope(S), (kind, pts)
            seen["legacy"] += 1
        if dim == 2 and kind == "parallel":
            chain = S.hull[1]
            edges = {(q[0] - p[0], q[1] - p[1]) for p, q in zip(chain, chain[1:] + chain[:1])}
            seen["parallel"] += any(e[0] * f[1] == e[1] * f[0] and e != f
                                    for e in edges for f in edges)
        seen[kind, dim] += 1
    assert seen["legacy"] > 60 and seen["parallel"] > 20, seen
    assert all(seen["point", dim] for dim in (1, 2, 3, 4)), seen
    for call in (P.difference_polytope, P.vertices, P.is_centrally_symmetric,
                 lambda S: P.width(S, (1, 0))):
        with pytest.raises(ValueError, match="empty support"):
            call(P.Support(2, {}))


def test_support_hull_is_computed_once(monkeypatch):
    """vertices and difference_polytope read the hull a Support keeps in its
    __dict__; it is no field, so == still compares dim and points, and
    vertices hands out a copy."""
    calls = []
    for name in ("hull_vertices", "convex_hull_2d"):
        fn = getattr(P, name)
        monkeypatch.setattr(P, name, lambda pts, fn=fn, name=name: calls.append(name) or fn(pts))
    for dim, pts in ((2, [(0, 0), (3, 0), (0, 2), (1, 1), (3, 2)]),
                     (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])):
        calls.clear()
        S = P.Support(dim, dict.fromkeys(pts, 1))
        V = P.vertices(S)
        V.append(None)
        assert None not in P.vertices(S)
        D = P.difference_polytope(S)
        assert len(calls) == 1 and "hull" in S.__dict__
        assert S == P.Support(dim, dict.fromkeys(pts, 1))
        assert D == P.hull_vertices(_differences(pts))


def test_difference_polytopes_of_the_seed_1_polytope_corpus():
    """Every support of the polytope workload's seed-1 corpus: the planar
    pretzels, the segments of T(2,n) and the solid tori, and the genus-3
    supports in dimension 3."""
    from perfbench import corpus

    dims = collections.Counter()
    for case in corpus.build("polytope", 1):
        S = P.support(E.torsion(E.input_from_dict(json.loads(case.text))).tau)
        assert P.difference_polytope(S) == P.hull_vertices(_differences(P.vertices(S)))
        if len(S.points) <= 6:
            assert P.difference_polytope(S) == legacy_polytope.difference_polytope(S)
        dims[S.dim] += 1
    assert dims == {2: 81, 1: 17, 3: 8}


# the words of perfbench.corpus.handlebody_words(random.Random(seed), g, 12)
HANDLEBODY_103 = {"generators": ["a", "b", "c"], "relators": [], "rminus": [
    "c^-1 a c b^-1 c b a c a c b c^-1", "c^-1 a b c b^-1 c^-1 a^-1 c b a b^-1 a^-1",
    "b c b^-1 c a^-1 b c^-1 b^-1 c^-1 b a^-1 b^-1"]}
HANDLEBODY_104 = {"generators": ["a", "b", "c", "d"], "relators": [], "rminus": [
    "a b^-1 c b a c^-1 a c^-1 b^-1 d b^-1 a", "a b^-1 d^-1 a^-1 b a^-1 d b a^-1 b^-1 d a",
    "a b a d^-1 b^-1 c a^-1 c b^-1 d a b", "c b a^-1 b d^-1 b a b a d b^-1 d"]}


def _support_of(inp):
    return P.support(E.torsion(E.input_from_dict(inp)).tau)


def test_hull_lps_are_output_sensitive(monkeypatch):
    """Every LP tests a point against vertices found so far, so it has at
    most |V| columns, and each LP either settles its point or adds a
    vertex, so there are at most N + |V| of them."""
    grid = list(itertools.product(range(-2, 3), repeat=3))
    verts = P.vertices(_support_of(HANDLEBODY_103))
    diffs = list({tuple(a - b for a, b in zip(x, y)) for x in verts for y in verts})
    columns = []
    kernel = P._farkas

    def spy(A, b):
        columns.append(len(A[0]))
        return kernel(A, b)

    monkeypatch.setattr(P, "_farkas", spy)
    for pts, nverts in ((grid, 8), (diffs, 44)):
        columns.clear()
        V = P.hull_vertices(pts)
        assert len(V) == nverts
        assert columns and max(columns) <= len(V)
        assert len(columns) <= len(pts) + len(V)
    assert P.hull_vertices(grid) == sorted(itertools.product((-2, 2), repeat=3))


def test_handlebody_difference_polytopes_and_the_witness(monkeypatch):
    """Seed 103 against hull_vertices of all vertex differences.  On seed 104
    every call of the Clarkson witness, over the support and over its 5,025
    distinct vertex differences, must give the lex-largest maximizer over
    the whole point set, so the loop runs as it would on the brute-force
    witness and gives the same 496 vertices."""
    S = _support_of(HANDLEBODY_103)
    assert P.difference_polytope(S) == P.hull_vertices(_differences(P.vertices(S)))
    clarkson, checked = P._clarkson, []

    def spy(pts, top, symmetric):
        def checked_top(c):
            q = top(c)
            assert q == max(pts, key=lambda p: (sum(a * x for a, x in zip(c, p)), p))
            checked.append(len(pts))
            return q
        return clarkson(pts, checked_top, symmetric)

    monkeypatch.setattr(P, "_clarkson", spy)
    S = _support_of(HANDLEBODY_104)
    D = P.difference_polytope(S)
    assert (len(P.vertices(S)), len(D), max(checked)) == (94, 496, 5025)
    assert sorted(P._neg(v) for v in D) == D


def test_genus_4_vertices_certified_by_point_in_hull():
    """Every support point lies in conv(V), and no vertex lies in the hull
    of the others."""
    S = _support_of(HANDLEBODY_104)
    V = P.vertices(S)
    assert (len(S.points), len(V)) == (276, 94)
    assert all(P.point_in_hull(p, V) for p in S.points)
    assert not any(P.point_in_hull(v, [w for w in V if w != v]) for v in V)


@pytest.mark.parametrize("family", [pretzel_odd, pretzel_even])
def test_pretzel_polytopes_match_legacy(family):
    for r, s, t in itertools.product(range(1, 4), repeat=3):
        S = P.support(E.torsion(family(r, s, t)).tau)
        diffs = {tuple(a - b for a, b in zip(x, y)) for x in S.points for y in S.points}
        # every vertex of P + (-P) is a difference of two vertices of P
        assert P.difference_polytope(S) == P.hull_vertices(list(diffs))
        if r <= s <= t:
            assert P.vertices(S) == legacy_polytope.hull_vertices(list(S.points))
            if len(S.points) <= 12:
                assert P.difference_polytope(S) == legacy_polytope.difference_polytope(S)


def test_solid_torus_polytopes_match_legacy():
    for p in (1, 2, 3, 5, 10, 20):
        S = P.support(E.torsion(solid_torus(p)).tau)
        expected = sorted({(0,), (p - 1,)})
        assert P.vertices(S) == legacy_polytope.hull_vertices(list(S.points)) == expected
        assert P.difference_polytope(S) == legacy_polytope.difference_polytope(S)


def test_is_centrally_symmetric():
    assert P.is_centrally_symmetric(P.support(poly1((0, 1), (1, 1))))
    assert P.is_centrally_symmetric(P.support(poly1((0, 1), (1, -1))))  # global sign -1
    assert P.is_centrally_symmetric(P.support(poly1((0, 2), (1, -3), (2, 2))))
    assert not P.is_centrally_symmetric(P.support(poly1((0, 1), (1, 2))))
    assert not P.is_centrally_symmetric(P.support(poly2((0, 0, 1), (1, 0, 1), (0, 1, 1))))


def test_extremal_part():
    p = poly1((0, 1), (1, -2), (3, 5))
    top = P.extremal_part(p, (1,))
    assert top.terms == {AbElement((3,), ()): 5}
    bot = P.extremal_part(p, (-1,))
    assert bot.terms == {AbElement((0,), ()): 1}
    tau = E.torsion(pretzel_odd(1, 1, 1)).tau  # rank 2
    for alpha in ((1,), (1, 5, 7)):
        with pytest.raises(ValueError, match="covector length does not match dimension"):
            P.extremal_part(tau, alpha)
    with pytest.raises(UnsupportedTorsionError):
        P.extremal_part(one(AbelianGroup(1, (2,))), (1,))
    with pytest.raises(ValueError, match="zero element"):
        P.extremal_part(poly1(), (1,))


def _records(rng, rank, n, spread=4):
    """The records of a random element of Z^rank with up to n terms."""
    terms = {tuple(rng.randint(-spread, spread) for _ in range(rank)): rng.choice((-2, -1, 1, 3))
             for _ in range(n)}
    return {"group": {"rank": rank, "torsion": []},
            "terms": [{"coeff": c, "free": list(f), "tor": []} for f, c in terms.items()]}


def test_support_and_extremal_part_read_packed_keys():
    """support and extremal_part read tau's key columns and decode nothing;
    they agree with the per-term readers they replaced on random elements
    of rank 0-3, and the extremal part stays under tau's codec."""
    rng = random.Random(1019)
    for rank in (0, 1, 2, 3):
        for n in (1, 2, 5, 12):
            tau = from_records(_records(rng, rank, n))
            S = P.support(tau)
            alphas = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(4)]
            parts = [P.extremal_part(tau, a) for a in alphas + [(0,) * rank]]
            assert "terms" not in tau.__dict__
            assert S == P.Support(rank, {h.free: c for h, c in tau.terms.items()})
            for a, part in zip(alphas + [(0,) * rank], parts):
                assert part.packed[0] is tau.packed[0]
                assert equal(part, legacy_polytope.extremal_part(tau, a)), (tau, a)
            assert equal(parts[-1], tau)


def test_disk_report_matches_the_per_term_report():
    """The report on keys against the report as it was, with one AbElement
    per term and normalize on every candidate: solid tori, T(2,n) and
    random rank-1 elements (with products of cyclic sums moved by units),
    at caps below, at and past the span.  No term of tau is decoded."""
    taus = [E.torsion(solid_torus(p)).tau for p in (1, 2, 3, 7, 12, 25)]
    taus += [E.torsion(wirtinger_knot(torus_2n_pd(n))).tau for n in (3, 5, 9, 15)]
    rng = random.Random(2026)
    taus += [from_records(_records(rng, 1, n, spread)) for n in (1, 2, 4, 8)
             for spread in (1, 3, 6) for _ in range(3)]
    for prod in _cyclic_products():
        shift = poly1((rng.randint(-5, 5), rng.choice((1, -1))))
        taus.append(from_records(to_records(mul(shift, prod))))
    matched = unmatched = fresh = 0
    for tau in taus:
        if "terms" not in tau.__dict__:
            P.disk_obstruction_report(tau, 5)
            assert "terms" not in tau.__dict__
            fresh += 1
        keys = tau.packed[1]
        span = max(keys) - min(keys)
        for cap in sorted({1, 2, span, span + 1, span + 4}):
            if cap < 1:
                continue
            rep = P.disk_obstruction_report(tau, cap)
            assert rep == legacy_polytope.disk_obstruction_report(tau, cap), (tau, cap)
            assert not any("terms" in c.element.__dict__ for c in rep.candidates[1:])
            matched += sum(c.matched for c in rep.candidates)
            unmatched += sum(not c.matched for c in rep.candidates)
    assert matched > 100 and unmatched > 100 and fresh == len(taus), (matched, unmatched)


def test_disk_report_single_match():
    rep = P.disk_obstruction_report(poly1((0, 1), (1, 1), (2, 1)), 10)
    assert not rep.obstructed
    assert rep.candidates[0].single_match == 3
    assert rep.effective_cap == 3  # capped by the degree span


def test_disk_report_product_match():
    sq = mul(P.cyclic_sum(2), P.cyclic_sum(2))  # 1 + 2t + t^2
    rep = P.disk_obstruction_report(sq, 10)
    assert not rep.obstructed
    assert rep.candidates[0].single_match is None
    assert rep.candidates[0].product_match == (2, 2)


def test_disk_report_obstructed():
    rep = P.disk_obstruction_report(goda_tau(), 10)
    assert rep.obstructed
    assert all(not c.matched for c in rep.candidates)
    assert rep.p_max == 10


def test_disk_report_respects_p_max():
    rep = P.disk_obstruction_report(P.cyclic_sum(6), 3)
    # search stops at p = 3, so the p = 6 match is out of reach
    assert rep.candidates[0].single_match is None
    with pytest.raises(ValueError):
        P.disk_obstruction_report(one(Z2), 5)


def _cyclic_products():
    """Products of one to three cyclic sums, with spans up to 6."""
    for k, top in ((1, 7), (2, 5), (3, 3)):
        for ps in itertools.combinations_with_replacement(range(1, top), k):
            prod = one(Z)
            for p in ps:
                prod = mul(prod, P.cyclic_sum(p))
            yield prod


def test_disk_report_matches_legacy_search():
    shift = poly1((3, -1))  # a unit: -t^3
    nudge = poly1((1, 1))
    unmatched = obstructed = 0
    for prod in _cyclic_products():
        for tau in (prod, prod + nudge, mul(shift, prod), mul(shift, prod + nudge),
                    2 * prod, prod + poly1((9, 1))):
            # past the degree span a larger cap changes only p_max
            span = max(h.free[0] for h in tau.terms) - min(h.free[0] for h in tau.terms)
            for cap in sorted({*range(1, span + 3), 12}):
                rep = P.disk_obstruction_report(tau, cap)
                assert rep == legacy_canonical.disk_obstruction_report(tau, cap), (tau, cap)
                unmatched += sum(not c.matched for c in rep.candidates)
                obstructed += rep.obstructed
    assert unmatched and obstructed


def test_cyclic_sum():
    assert P.cyclic_sum(1).terms == {AbElement((0,), ()): 1}
    assert len(P.cyclic_sum(4).terms) == 4
    with pytest.raises(ValueError):
        P.cyclic_sum(0)


def test_to_tsv():
    out = P.to_tsv(P.support(poly2((1, 0, -2), (0, 0, 1))))
    assert out == "0 0\t1\n1 0\t-2\n"


def test_convex_hull_2d_ccw():
    hull = P.convex_hull_2d([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    assert hull[0] == (0, 0)
    assert set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}
    # counterclockwise orientation: positive signed area
    area2 = sum(hull[i][0] * hull[(i + 1) % 4][1] - hull[(i + 1) % 4][0] * hull[i][1]
                for i in range(4))
    assert area2 > 0


def test_edge_lengths_2d():
    hull = P.convex_hull_2d([(0, 0), (2, 0), (0, 2)])
    lengths = edge_lengths_2d(hull)
    assert sorted(g for _, g in lengths) == [2, 2, 2]
    dirs = [d for d, _ in lengths]
    assert (1, 0) in dirs and (-1, 1) in dirs and (0, -1) in dirs


def test_edge_lengths_2d_degenerate_hulls():
    assert edge_lengths_2d([(0, 0)]) == []
    assert edge_lengths_2d([]) == []
    assert edge_lengths_2d(P.convex_hull_2d([(3, 3), (3, 3)])) == []
    assert edge_lengths_2d([(0, 0), (2, 4)]) == [((1, 2), 2), ((-1, -2), 2)]


def test_to_svg_smoke():
    svg = P.to_svg(P.support(poly2((0, 0, 1), (1, 0, 1), (0, 1, -1))))
    assert svg.startswith("<svg")
    assert "<polygon" in svg
    assert svg.count("<circle") == 3
    svg1 = P.to_svg(P.support(poly1((0, 1), (2, 1))))
    assert svg1.count("<circle") == 2
    G3 = AbelianGroup(3)
    with pytest.raises(ValueError):
        P.to_svg(P.support(one(G3)))


def test_to_svg_reads_the_cached_hull_and_matches_legacy(monkeypatch):
    """to_svg draws S.hull (the chain in the plane, the two extreme points
    on a line) and hulls nothing once the hull is cached; its SVG is the
    legacy SVG byte for byte, on seeded 1-D, planar and collinear planar
    supports and on the supports of T(2,n) and pretzel knots."""
    rng = random.Random(67)
    supports = [P.support(E.torsion(wirtinger_knot(torus_2n_pd(n))).tau) for n in (3, 7)]
    supports.append(P.support(E.torsion(pretzel_even(1, 1, 1)).tau))
    for _ in range(40):
        k = rng.randint(1, 6)
        supports.append(P.support(poly1(*((rng.randint(-5, 5), rng.choice((1, -2, 3)))
                                          for _ in range(k)))))
        supports.append(P.support(poly2(*((rng.randint(-4, 4), rng.randint(-4, 4),
                                           rng.choice((1, -1, 2))) for _ in range(k + 2)))))
        d, o = (rng.randint(-2, 2), rng.randint(1, 2)), (rng.randint(-3, 3), rng.randint(-3, 3))
        supports.append(P.support(poly2(*((o[0] + t * d[0], o[1] + t * d[1], 1)
                                          for t in rng.sample(range(-3, 4), k)))))
    kinds = collections.Counter()
    hulled = []
    hull_2d = P.convex_hull_2d
    monkeypatch.setattr(P, "convex_hull_2d", lambda pts: hulled.append(len(pts)) or hull_2d(pts))
    for S in supports:
        chain = S.hull[1]
        hulled.clear()
        svg = P.to_svg(S)
        assert hulled == [] and svg == legacy_polytope.to_svg(S)
        collinear = S.dim == 2 and len(chain) == 2 and len(S.points) > 2
        kinds["line" if S.dim == 1 else "collinear" if collinear else "plane"] += 1
        kinds["polygon"] += "<polygon" in svg
    assert min(kinds[k] for k in ("line", "collinear", "plane")) >= 10, kinds
    assert kinds["polygon"] >= 60, kinds


def test_pretzel_even_asymmetry():
    S = P.support(E.torsion(pretzel_even(1, 1, 1)).tau)
    assert len(S.points) == 3
    assert not P.is_centrally_symmetric(S)
