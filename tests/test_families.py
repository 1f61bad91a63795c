import time

import pytest
from hull_edges import edge_lengths_2d

from sutor import engine as E
from sutor import families as F
from sutor import polytope as P
from sutor.abelian import AbElement, AbelianGroup
from sutor.groupring import augmentation, equal, mul, normalize, sim_equal


def test_solid_torus_values():
    for p in range(1, 5):
        res = E.torsion(F.solid_torus(p))
        assert sim_equal(res.tau, F.cyclic_sum(p))
    with pytest.raises(ValueError):
        F.solid_torus(0)


def test_twisted_band_expected():
    assert equal(F.twisted_band_expected(3, 1), F.cyclic_sum(3))
    tb = F.twisted_band_expected(2, 2)
    # (t^2 - 1)(1 + t) = -1 - t + t^2 + t^3
    assert sorted((h.free[0], c) for h, c in tb.terms.items()) == [
        (0, -1), (1, -1), (2, 1), (3, 1)]
    with pytest.raises(ValueError):
        F.twisted_band_expected(1, 0)


def test_pretzel_odd_matches_oracle():
    for r, s, t in [(1, 1, 1), (2, 1, 3), (3, 3, 3)]:
        res = E.torsion(F.pretzel_odd(r, s, t))
        assert sim_equal(res.tau, F.pretzel_odd_expected(r, s, t))
        assert set(res.tau.terms.values()) == {1}


def test_pretzel_odd_hexagon_sides():
    res = E.torsion(F.pretzel_odd(1, 2, 3))
    S = P.support(res.tau)
    hull = P.convex_hull_2d(list(S.points))
    assert len(hull) == 6
    side_points = sorted(g + 1 for _, g in edge_lengths_2d(hull))
    assert side_points == sorted([2, 2, 3, 3, 4, 4])


def test_pretzel_even_small():
    res = E.torsion(F.pretzel_even(1, 1, 1))
    assert len(res.tau.terms) == 3
    assert not P.is_centrally_symmetric(P.support(res.tau))


def test_cantwell_conlon():
    res = E.torsion(F.cantwell_conlon())
    assert res.H == AbelianGroup(3)
    assert len(res.tau.terms) == 4
    assert {abs(c) for c in res.tau.terms.values()} == {1}
    ev = E.evaluation_check(res.input, res)
    au = E.augmentation_order_check(res.input, res)
    assert ev.passed and au.passed
    assert au.ord == 2


def test_goda_tau_literal():
    tau = F.goda_tau()
    assert sorted((h.free[0], c) for h, c in tau.terms.items()) == [
        (-1, 2), (0, -3), (1, 2)]
    assert augmentation(tau) == 1


def test_goda_input_from_words():
    inp = F.goda_input_from_words("a b a^-1", "b^2")
    assert len(inp.alphabet) == 2
    assert inp.rminus[0].letters == ((0, 1), (1, 1), (0, -1))


def test_wirtinger_trefoil_vs_seifert():
    res = E.torsion(F.wirtinger_knot(F.TREFOIL_PD))
    assert res.H == AbelianGroup(1)
    assert sim_equal(res.tau, F.alexander_from_seifert(F.TREFOIL_SEIFERT))
    assert sorted((h.free[0], c) for h, c in res.tau.terms.items()) == [
        (0, 1), (1, -1), (2, 1)]


def test_wirtinger_figure_eight_vs_seifert():
    res = E.torsion(F.wirtinger_knot(F.FIGURE_EIGHT_PD))
    assert sim_equal(res.tau, F.alexander_from_seifert(F.FIGURE_EIGHT_SEIFERT))
    assert sorted((h.free[0], c) for h, c in res.tau.terms.items()) == [
        (0, 1), (1, -3), (2, 1)]


def test_wirtinger_unknot():
    res = E.torsion(F.wirtinger_knot(F.UNKNOT3_PD))
    assert len(res.tau.terms) == 1


def test_wirtinger_drop_relation_invariance():
    base = E.torsion(F.wirtinger_knot(F.TREFOIL_PD))
    for k in range(3):
        other = E.torsion(F.wirtinger_knot(F.TREFOIL_PD, drop_relation=k))
        assert sim_equal(other.tau, base.tau)


def test_wirtinger_meridian_choice_invariance():
    base = E.torsion(F.wirtinger_knot(F.TREFOIL_PD))
    for edge in range(1, 7):
        other = E.torsion(F.wirtinger_knot(F.TREFOIL_PD, meridian_edge=edge))
        assert sim_equal(other.tau, base.tau)


def test_torus_2n_matches_alternating_oracle():
    assert F.torus_2n_pd(3) == F.TREFOIL_PD
    for n in range(3, 62, 2):
        expected = F.torus_2n_expected(n)
        assert sorted(expected.terms.values()) == [-1] * (n // 2) + [1] * (n // 2 + 1)
        assert sim_equal(E.torsion(F.wirtinger_knot(F.torus_2n_pd(n))).tau, expected), n
    for n in (-3, 0, 1, 2, 4, 10):
        with pytest.raises(ValueError):
            F.torus_2n_pd(n)


def test_torus_2n_torsion_up_to_151():
    """T(2,n) for the odd n the test above stops short of.  The sparse
    determinant updates only the rows a pivot column touches, so T(2,151)
    takes well under a second (the dense Bareiss it replaced took 3 s at
    n = 91)."""
    for n in range(63, 152, 2):
        inp = F.wirtinger_knot(F.torus_2n_pd(n))
        start = time.perf_counter()
        tau = E.torsion(inp).tau
        elapsed = time.perf_counter() - start
        assert sim_equal(tau, F.torus_2n_expected(n)), n
    assert elapsed < 1.0


def test_pd_validation():
    with pytest.raises(F.PDError):
        F.wirtinger_knot(((1, 2, 2, 1),))  # too few crossings
    with pytest.raises(F.PDError):
        F.wirtinger_knot(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 4)))  # bad labels
    with pytest.raises(F.PDError):
        F.wirtinger_knot(((1, 4, 3, 5), (3, 6, 4, 1), (5, 2, 6, 2)))  # under-out break
    with pytest.raises(F.PDError):
        F.wirtinger_knot(((1, 2, 3), (3, 6, 4, 1), (5, 2, 6, 3)))  # arity
    with pytest.raises(F.PDError):
        F.wirtinger_knot(F.TREFOIL_PD, drop_relation=5)
    with pytest.raises(F.PDError, match="over edges must be consecutive"):
        F.wirtinger_knot(((1, 4, 2, 6), (3, 5, 4, 1), (5, 2, 6, 3)))
    with pytest.raises(F.PDError, match="arc count"):
        F.wirtinger_knot(((1, 3, 2, 4), (1, 5, 2, 6), (3, 5, 4, 6)))


def test_alexander_from_seifert_det():
    # genus-1 matrix [[-1, 1], [0, -1]]: det(V - tV^T) = t^2 - t + 1
    tau = F.alexander_from_seifert(F.TREFOIL_SEIFERT)
    assert sorted((h.free[0], c) for h, c in tau.terms.items()) == [
        (0, 1), (1, -1), (2, 1)]


def test_two_bridge_expected_cube():
    tau = F.two_bridge_expected([4, 4, 4])
    assert tau.group == AbelianGroup(3)
    assert len(tau.terms) == 8
    assert set(tau.terms.values()) == {1}
    assert sorted(h.free for h in tau.terms) == sorted(
        (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1))
    assert F.coefficient_mass(tau) == 8


def test_two_bridge_expected_validation():
    with pytest.raises(ValueError):
        F.two_bridge_expected([])
    with pytest.raises(ValueError):
        F.two_bridge_expected([3])
    with pytest.raises(ValueError):
        F.two_bridge_expected([4, 0])
    # a single band with one half twist pair gives the trivial element
    assert len(F.two_bridge_expected([2]).terms) == 1
    assert len(F.two_bridge_expected([-4]).terms) == 2


def test_coefficient_mass_and_pinwheel():
    assert F.coefficient_mass(F.goda_tau()) == 7
    assert F.pinwheel_expected_mass(1) == 4
    assert F.pinwheel_expected_mass(2) == 20
    assert F.pinwheel_expected_mass(3) == 4 * (1 + 4 + 9)
