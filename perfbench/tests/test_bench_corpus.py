"""Corpus generators, oracles and the span recorder of the benchmark.

Run with: python3 -m pytest -q perfbench/tests
"""
import pytest

from perfbench import corpus as C
from perfbench import calibrate, spans, verify
from sutor import families as F
from sutor.engine import torsion


def tau_of(pd):
    return verify.free_terms(torsion(F.wirtinger_knot(pd)).tau)


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_torus_2n_is_alternating(n):
    assert tau_of(C.torus_2n_pd(n)) == verify.canonical(verify.alternating(n))


def test_sigma1_cubed_closure_is_the_trefoil():
    expected = verify.free_terms(F.alexander_from_seifert(F.TREFOIL_SEIFERT))
    assert tau_of(C.braid_closure_pd([1, 1, 1], 2)) == verify.canonical(expected)


def test_figure_eight_braid():
    expected = verify.free_terms(F.alexander_from_seifert(F.FIGURE_EIGHT_SEIFERT))
    assert tau_of(C.braid_closure_pd([1, -2, 1, -2], 3)) == verify.canonical(expected)


@pytest.mark.parametrize("word,strands", [([1, 1], 2), ([1, 1, 1], 3), ([1, 2, 1], 3), ([1, 3], 4)])
def test_links_are_rejected(word, strands):
    with pytest.raises(ValueError):
        C.braid_closure_pd(word, strands)


@pytest.mark.parametrize("workload", sorted(C.CORPORA))
def test_same_seed_same_digest(workload):
    first = C.digest(C.build(workload, 7))
    assert C.digest(C.build(workload, 7)) == first
    assert C.digest(C.build(workload, 8)) != first


def test_random_braids_close_to_knots():
    import random

    rng = random.Random(0)
    for strands in (3, 4, 5):
        word = C.random_braid(rng, strands, 11 if strands == 4 else 10)
        pd = C.braid_closure_pd(word, strands)
        assert sorted(e for x in pd for e in x) == sorted(list(range(1, 2 * len(word) + 1)) * 2)


def test_laurent_oracle_matches_pretzel_oracle():
    inp = F.pretzel_odd(1, 2, 1)
    words = [w.letters for w in inp.rminus]
    expected = verify.free_terms(F.pretzel_odd_expected(1, 2, 1))
    assert verify.canonical(verify.fox_det(words, 2)) == verify.canonical(expected)


def test_hull_checks():
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    points = cube + [(1, 1, 1), (1, 0, 0)]
    assert verify.check_vertices_3d(cube, points) is None
    assert verify.check_vertices_3d(cube[:-1], points) is not None
    assert verify.check_vertices_3d(cube + [(1, 0, 0)], points) is not None
    assert verify.hull_2d([(0, 0), (2, 0), (1, 1), (0, 2), (2, 2), (1, 0)]) == [
        (0, 0), (0, 2), (2, 0), (2, 2)]


def test_self_times_subtract_children():
    tr = spans.Tracer()
    tr.case = 0
    tr.call("outer", lambda: [tr.call("inner", sum, range(1000)) for _ in range(3)])
    times = tr.self_times()
    outer, inner = tr.spans[0], tr.spans[1:]
    assert times[(0, "inner")][1] == 3 and times[(0, "outer")][1] == 1
    total = sum(s for s, _ in times.values())
    assert total == pytest.approx(outer[2] - outer[1])
    assert all(s[3] == 0 for s in inner)


def test_speed_scales_by_the_nearby_samples():
    sp = calibrate.Speed()
    ref = calibrate.REFERENCE_MS / 1e3
    # the host runs at half the reference speed up to t = 10, then at it
    sp.at = [9.8, 9.9, 10.0, 20.0, 20.1, 20.2]
    sp.took = [2 * ref] * 3 + [ref] * 3
    assert sp.scaled(9.95, 0.04) == pytest.approx(0.02)
    assert sp.scaled(20.05, 0.04) == pytest.approx(0.04)
    # with no sample near, the run's median
    assert sp.scaled(15.0, 0.04) == pytest.approx(0.04 / 1.5)
