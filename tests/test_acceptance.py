"""End-to-end acceptance checks.  Each test prints one PASS line on success;
all arithmetic comparisons are exact."""
import itertools
import json
import random
import subprocess
import sys

import pytest

from hull_edges import edge_lengths_2d
from int_matrix import det_int, diagonal
from sutor import engine as E
from sutor import families as F
from sutor import polytope as P
from sutor import words as W
from sutor.abelian import (
    AbElement,
    AbelianGroup,
    IntMatrix,
    abelianize,
    smith_normal_form,
    word_images,
)
from sutor.fox import fox_derivative
from sutor.groupring import (
    GRMatrix,
    add,
    augmentation,
    determinant,
    element,
    equal,
    monomial,
    mul,
    neg,
    normalize,
    one,
    push_forward,
    scalar_mul,
    sim_equal,
    zero,
)
from sutor.words import make_alphabet


def ok(n, msg):
    print(f"PASS criterion {n}: {msg}", flush=True)


def test_criterion_01_handlebody_polytope():
    res = E.torsion(F.cantwell_conlon())
    S = P.support(res.tau)
    assert len(S.points) == 4
    assert {abs(c) for c in S.points.values()} == {1}
    target = {(0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)}
    pts = set(S.points)
    assert any({tuple(x - s for x, s in zip(p, shift)) for p in pts} == target
               for shift in pts)
    dv = set(P.difference_polytope(S))
    expected = set()
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]:
        expected.add(v)
        expected.add(tuple(-x for x in v))
    assert dv == expected
    assert len(dv) == 12
    assert (1, -1, -1) not in dv
    assert not P.point_in_hull((1, -1, -1), list(dv))
    ok(1, "genus-2 handlebody: 4-point support, 12-vertex difference polytope, "
          "(1,-1,-1) excluded")


def test_criterion_02_pretzel_odd_oracle():
    for r, s, t in itertools.product((1, 2, 3), repeat=3):
        res = E.torsion(F.pretzel_odd(r, s, t))
        assert sim_equal(res.tau, F.pretzel_odd_expected(r, s, t)), (r, s, t)
        S = P.support(res.tau)
        assert set(S.points.values()) == {1}, (r, s, t)
        hull = P.convex_hull_2d(list(S.points))
        assert len(hull) == 6, (r, s, t)
        sides = sorted(g + 1 for _, g in edge_lengths_2d(hull))
        assert sides == sorted([r + 1, r + 1, s + 1, s + 1, t + 1, t + 1]), (r, s, t)
    ok(2, "27 odd pretzels: determinant route = cleared-fractions route, "
          "hexagon sides r+1/t+1/s+1, coefficients +1")


def test_criterion_03_solid_torus():
    for p in range(1, 7):
        inp = F.solid_torus(p)
        res = E.torsion(inp)
        assert sim_equal(res.tau, F.cyclic_sum(p)), p
        ev = E.evaluation_check(inp, res)
        assert ev.G == (AbelianGroup(0, (p,)) if p > 1 else AbelianGroup(0)), p
        assert ev.passed and sim_equal(ev.lhs, ev.rhs), p
    ok(3, "solid torus p=1..6: tau ~ 1+t+...+t^(p-1), G = Z/p, image ~ I_G")


def _fixture_pool():
    pool = [F.solid_torus(p) for p in range(1, 7)]
    pool += [F.pretzel_odd(r, s, t)
             for r, s, t in itertools.product((1, 2, 3), repeat=3)]
    pool += [F.pretzel_even(r, s, t)
             for r, s, t in itertools.product((1, 2, 3), repeat=3)]
    pool += [F.cantwell_conlon(),
             F.wirtinger_knot(F.TREFOIL_PD),
             F.wirtinger_knot(F.FIGURE_EIGHT_PD)]
    return pool


def test_criterion_04_evaluation_identity_and_mutation():
    for inp in _fixture_pool():
        res = E.torsion(inp)
        ev = E.evaluation_check(inp, res)
        assert ev.passed, inp.name
        # perturb tau by +1: the identity must break
        proj = res.rminus_projection
        mutated = push_forward(add(res.raw_det, one(res.H)), proj)
        assert not sim_equal(mutated, ev.rhs), inp.name
    ok(4, "evaluation identity holds on all 63 builtin fixtures and every "
          "tau+1 mutation fails it")


def test_criterion_05_knot_fixtures():
    for pd, seifert, coeffs in [
        (F.TREFOIL_PD, F.TREFOIL_SEIFERT, [1, -1, 1]),
        (F.FIGURE_EIGHT_PD, F.FIGURE_EIGHT_SEIFERT, [1, -3, 1]),
    ]:
        inp = F.wirtinger_knot(pd)
        res = E.torsion(inp)
        assert [c for _, c in sorted((h.free, c) for h, c in res.tau.terms.items())] == coeffs
        assert sim_equal(res.tau, F.alexander_from_seifert(seifert))
        au = E.augmentation_order_check(inp, res)
        assert au.passed and au.aug == 1 and au.ord == 1
    ok(5, "trefoil 1-t+t^2 and figure-eight 1-3t+t^2 match the Seifert-matrix "
          "oracle; augmentation +-1")


def test_criterion_06_two_bridge_cube():
    tau = F.two_bridge_expected([4, 4, 4])
    assert len(tau.terms) == 8
    assert set(tau.terms.values()) == {1}
    assert sorted(h.free for h in tau.terms) == sorted(
        (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1))
    assert F.coefficient_mass(tau) == 8
    ok(6, "two-bridge [4,4,4]: 8 unit coefficients on the 2x2x2 cube")


def test_criterion_07_asymmetric_polytopes():
    S1 = P.support(E.torsion(F.pretzel_even(1, 1, 1)).tau)
    assert len(S1.points) == 3
    assert len(P.convex_hull_2d(list(S1.points))) == 3
    assert not P.is_centrally_symmetric(S1)
    S2 = P.support(E.torsion(F.pretzel_even(2, 2, 2)).tau)
    hull = P.convex_hull_2d(list(S2.points))
    assert len(hull) == 6
    lengths = [g for _, g in edge_lengths_2d(hull)]
    assert any(lengths[i] != lengths[(i + 3) % 6] for i in range(3))
    assert not P.is_centrally_symmetric(S2)
    ok(7, "even pretzels: (1,1,1) triangle and (2,2,2) hexagon with unequal "
          "opposite sides, both asymmetric")


def test_criterion_08_disk_obstruction():
    rep = P.disk_obstruction_report(F.goda_tau(), 10)
    assert rep.obstructed
    rep2 = P.disk_obstruction_report(P.cyclic_sum(3), 10)
    assert not rep2.obstructed
    assert rep2.candidates[0].single_match == 3
    rep3 = P.disk_obstruction_report(mul(P.cyclic_sum(2), P.cyclic_sum(2)), 10)
    assert not rep3.obstructed
    assert rep3.candidates[0].product_match == (2, 2)
    ok(8, "2a-3+2a^-1 obstructed; 1+t+t^2 and (1+t)^2 not obstructed")


def _random_word(rng, n_gens, max_len=8, max_exp=3):
    letters = [(rng.randrange(n_gens), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
               for _ in range(rng.randint(0, max_len))]
    return W.free_reduce(letters)


def test_criterion_09a_fox_rules():
    rng = random.Random(2026)
    alphabet = make_alphabet(["a", "b", "c"])
    ab = abelianize(alphabet, [])
    H = ab.group

    def phi(w):
        return monomial(H, word_images(ab, [w])[0])

    for _ in range(1000):
        u = _random_word(rng, 3)
        v = _random_word(rng, 3)
        g = rng.randrange(3)
        # product rule
        lhs = fox_derivative(W.concat(u, v), g, ab)
        rhs = add(fox_derivative(u, g, ab), mul(phi(u), fox_derivative(v, g, ab)))
        assert equal(lhs, rhs)
        # inverse rule
        lhs = fox_derivative(W.invert(u), g, ab)
        rhs = neg(mul(phi(W.invert(u)), fox_derivative(u, g, ab)))
        assert equal(lhs, rhs)
        # fundamental identity
        acc = zero(H)
        for x in range(3):
            factor = add(monomial(H, ab.gen_images[x]), neg(one(H)))
            acc = add(acc, mul(factor, fox_derivative(u, x, ab)))
        assert equal(acc, add(phi(u), neg(one(H))))
    ok("9a", "Fox product/inverse rules and fundamental identity on 1000 "
             "random words each")


def test_criterion_09b_move_invariance():
    rng = random.Random(97)
    for _ in range(1000):
        alphabet = make_alphabet(["a", "b"])
        rminus = (_random_word(rng, 2, max_len=5), _random_word(rng, 2, max_len=5))
        inp = E.SuturedInput(alphabet=alphabet, relators=(), rminus=rminus)
        base = E.torsion(inp)
        moved = inp
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                moved = E.nielsen_move(moved, ("invert", rng.randrange(2)))
            else:
                k = rng.randrange(2)
                moved = E.nielsen_move(moved, ("multiply", k, 1 - k))
        assert sim_equal(E.torsion(moved).tau, base.tau)
        # Tietze extension with a random defining word
        ext = E.tietze_add_generator(inp, _random_word(rng, 2, max_len=4))
        res = E.torsion(ext)
        assert sim_equal(E.transport_tau(base, res), res.tau)
    ok("9b", "Nielsen and Tietze invariance on 1000 random fixture/move pairs")


def test_criterion_09c_snf_postconditions():
    rng = random.Random(541)
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)])
        U, D, V = smith_normal_form(M)
        assert (U @ M @ V).entries == D.entries
        assert abs(det_int(U)) == 1
        assert abs(det_int(V)) == 1
        diag = diagonal(D)
        assert all(D.at(i, j) == 0 for i in range(m) for j in range(n) if i != j)
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            assert b % a == 0 if a else b == 0
    ok("9c", "Smith form postconditions on 500 random matrices up to 6x6")


def _random_element(rng):
    G = AbelianGroup(rng.randint(1, 2), () if rng.random() < 0.7 else (rng.choice([2, 3]),))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        free = tuple(rng.randint(-4, 4) for _ in range(G.rank))
        tor = tuple(rng.randrange(d) for d in G.torsion)
        terms[AbElement(free, tor)] = rng.choice([c for c in range(-5, 6) if c])
    return element(G, terms)


def test_criterion_09d_normalize_orbit():
    rng = random.Random(1123)
    for _ in range(1000):
        p = _random_element(rng)
        n = normalize(p)
        assert equal(normalize(n), n)
        G = p.group
        shift = AbElement(tuple(rng.randint(-4, 4) for _ in range(G.rank)),
                          tuple(rng.randrange(d) for d in G.torsion))
        moved = scalar_mul(rng.choice([1, -1]), mul(monomial(G, shift), p))
        assert equal(normalize(moved), n)
        assert sim_equal(moved, p)
    ok("9d", "normalize is idempotent and orbit-constant on 1000 random elements")


def test_criterion_09e_determinant_antisymmetry():
    rng = random.Random(3301)
    Z2 = AbelianGroup(2)
    for _ in range(40):
        def entry():
            if rng.random() < 0.25:
                return zero(Z2)
            h = AbElement((rng.randint(-2, 2), rng.randint(-2, 2)), ())
            return monomial(Z2, h, rng.choice([-2, -1, 1, 2]))
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        A = GRMatrix.from_rows(rows)
        i, j = rng.sample(range(4), 2)
        swapped = []
        for r in rows:
            r2 = list(r)
            r2[i], r2[j] = r2[j], r2[i]
            swapped.append(r2)
        B = GRMatrix.from_rows(swapped)
        assert equal(determinant(B), neg(determinant(A)))
    ok("9e", "determinant flips sign under column swaps on random 4x4 matrices")


def test_criterion_10_batch_determinism(tmp_path):
    import os
    manifest = os.path.join(os.path.dirname(__file__), "..", "fixtures", "manifest.json")
    outs = []
    for par in ("1", "8"):
        proc = subprocess.run(
            [sys.executable, "-m", "sutor.cli", "batch", manifest, "--parallel", par],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    ok(10, "batch output byte-identical at --parallel 1 and --parallel 8")
