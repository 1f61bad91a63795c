import itertools

import legacy_canonical
import pytest

from sutor import engine as E
from sutor import polytope as P
from sutor.abelian import AbElement, AbelianGroup
from sutor.families import cantwell_conlon, goda_tau, pretzel_even
from sutor.groupring import UnsupportedTorsionError, element, monomial, mul, one

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
                    2 * prod):
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
    lengths = P.edge_lengths_2d(hull)
    assert sorted(g for _, g in lengths) == [2, 2, 2]
    dirs = [d for d, _ in lengths]
    assert (1, 0) in dirs and (-1, 1) in dirs and (0, -1) in dirs


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


def test_pretzel_even_asymmetry():
    S = P.support(E.torsion(pretzel_even(1, 1, 1)).tau)
    assert len(S.points) == 3
    assert not P.is_centrally_symmetric(S)
