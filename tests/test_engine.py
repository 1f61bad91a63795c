import collections
import dataclasses
import itertools
import json
import os
import random
import re

import legacy_canonical
import legacy_groupring
from legacy_abelian import image_matrix
import pytest

from sutor import engine as E
from sutor import families as F
from sutor import fox, groupring, polytope
from sutor import words as W
from sutor.abelian import (
    INFINITE,
    AbElement,
    AbelianGroup,
    Projection,
    abelianize,
    quotient,
)
from sutor.engine import (
    SuturedInput,
    ValidationError,
    augmentation_order_check,
    dump_input,
    evaluation_check,
    input_from_dict,
    input_to_dict,
    load_input,
    nielsen_move,
    tietze_add_generator,
    torsion,
    transport_tau,
    validate,
)
from sutor.families import cantwell_conlon, pretzel_odd, solid_torus
from sutor.groupring import augmentation, element, equal, normalize, sim_equal
from sutor.polytope import cyclic_sum
from sutor.words import free_reduce, make_alphabet, parse_word


def simple_input(rminus_texts, names=("a", "b"), relator_texts=()):
    alphabet = make_alphabet(list(names))
    return SuturedInput(
        alphabet=alphabet,
        relators=tuple(parse_word(s, alphabet) for s in relator_texts),
        rminus=tuple(parse_word(s, alphabet) for s in rminus_texts),
    )


def test_validate_squareness():
    inp = simple_input(["a b"])
    diags = validate(inp)
    assert any(d.code == "SQUARENESS" and d.blocking for d in diags)
    with pytest.raises(ValidationError):
        torsion(inp)


def test_validate_empty_rminus():
    inp = simple_input([], names=("a",))
    codes = {d.code for d in validate(inp)}
    assert "EMPTY_RMINUS" in codes


def test_validate_duplicate_generator():
    alphabet = (W.Generator("a", 0), W.Generator("a", 1))
    inp = SuturedInput(alphabet=alphabet, relators=(),
                       rminus=(W.Word(((0, 1),)), W.Word(((1, 1),))))
    assert any(d.code == "DUPLICATE_GENERATOR" for d in validate(inp))


def test_validate_reduction_repair():
    alphabet = make_alphabet(["a"])
    raw = W.Word(((0, 1), (0, 2)))  # not reduced
    inp = SuturedInput(alphabet=alphabet, relators=(), rminus=(raw,))
    diags = validate(inp)
    red = [d for d in diags if d.code == "REDUCTION"]
    assert len(red) == 1 and not red[0].blocking
    assert red[0].repaired.rminus == (W.Word(((0, 3),)),)
    # torsion applies the repair silently
    res = torsion(inp)
    assert equal(res.tau, torsion(solid_torus(3)).tau)


def test_torsion_solid_torus():
    res = torsion(solid_torus(3))
    assert res.H == AbelianGroup(1)
    assert len(res.tau.terms) == 3
    assert normalize(res.raw_det).terms == res.tau.terms


def test_evaluation_check_pass_and_mutation():
    inp = solid_torus(4)
    res = torsion(inp)
    ev = evaluation_check(inp, res)
    assert ev.passed
    assert ev.G == AbelianGroup(0, (4,))
    assert sim_equal(ev.lhs, ev.rhs)


def _eval_with_lhs(inp, coeffs):
    """evaluation_check on a result whose raw determinant pushes forward to
    sum(coeffs[i] * g_i) over G = H_1(M, R_-), g_i its elements in order of
    first appearance among the images of a box of exponent vectors in H."""
    res = torsion(inp)
    proj = res.rminus_projection
    lifts = {}
    for v in itertools.product(range(-3, 4), repeat=res.H.rank):
        lifts.setdefault(proj(AbElement(v, ())), AbElement(v, ()))
    hs = list(lifts.values())
    raw = element(res.H, {hs[i]: c for i, c in enumerate(coeffs)})
    return evaluation_check(inp, dataclasses.replace(res, raw_det=raw))


@pytest.mark.parametrize("rminus, coeffs, passed", [
    (["a^6", "b"], [1] * 6, True),
    (["a^6", "b"], [-1] * 6, True),
    (["a^6", "b"], [2] * 6, False),
    (["a^6", "b"], [1] * 5 + [-1], False),
    (["a^6", "b"], [], False),
    (["a^6", "b"], [1], False),
    (["a^2", "b^2"], [1] * 4, True),
    (["a^2", "b^2"], [-1] * 4, True),
    (["a^2", "b^2"], [-1] + [1] * 3, False),
    (["a b a^-1 b^-1", "a^2 b a^-2 b^-1"], [], True),
    (["a b a^-1 b^-1", "a^2 b a^-2 b^-1"], [1], False),
    (["a b a^-1 b^-1", "a^2 b a^-2 b^-1"], [1, -1], False),
])
def test_evaluation_check_matches_sim_equal(rminus, coeffs, passed):
    ev = _eval_with_lhs(simple_input(rminus), coeffs)
    assert len(ev.lhs.terms) == len(coeffs)
    assert ev.passed == legacy_canonical.sim_equal(ev.lhs, ev.rhs) == passed


def test_rminus_quotient_built_once_per_result(monkeypatch):
    calls = []

    def counting_quotient(*args):
        calls.append(args)
        return quotient(*args)

    monkeypatch.setattr(E, "quotient", counting_quotient)
    inp = cantwell_conlon()
    res = torsion(inp)
    assert len(calls) == 0
    proj = res.rminus_projection
    ev = evaluation_check(inp, res)
    au = augmentation_order_check(inp, res)
    assert len(calls) == 1
    assert ev.G == proj.target and ev.passed and au.passed


def test_work_budget_admits_its_bound(monkeypatch):
    """Each check lets exactly WORK_BUDGET through: letters of a power, Fox
    terms, determinant slots (2^n for the chain of n relators
    a_i^2 a_(i+1)^-1) and the term products of a cofactor expansion (on
    diag(a^3, b^4, c^5) over Z^3, 4 * 5 for the minor and 3 * 20 for the
    top line, and on the Fox matrices of handlebodies of genus 3-8).  The
    determinant of a handlebody of genus 5 or more needs no more term
    products than _cofactor alone: the front end leaves it whole.  Only
    words.WORK_BUDGET is set; where a lower budget would trip the Fox-term
    check first, the matrix is built at the default and its determinant
    taken under the lowered one."""
    def budget(n):
        monkeypatch.setattr(W, "WORK_BUDGET", n)

    budget(6)
    alphabet = make_alphabet(["a", "b"])
    assert len(parse_word("(a b)^3", alphabet).letters) == 6
    with pytest.raises(ValueError, match="work budget"):
        parse_word("(a b)^-4", alphabet)
    assert torsion(simple_input(["b"], relator_texts=["a^5"])).H == AbelianGroup(1, (5,))
    with pytest.raises(ValueError, match="7 Fox terms"):
        torsion(simple_input(["b"], relator_texts=["a^-6"]))

    def chain(n):
        inp = input_from_dict({"generators": [f"a{i}" for i in range(n + 1)],
                               "relators": [f"a{i}^2 a{i + 1}^-1" for i in range(n)],
                               "rminus": [f"a{n}"]})
        return fox.fox_matrix(inp.alphabet, inp.relators + inp.rminus,
                              abelianize(inp.alphabet, inp.relators))
    budget(100)
    three, four = chain(3), chain(4)
    budget(8)
    assert len(groupring.determinant(three).packed[1]) == 8
    with pytest.raises(ValueError, match="16 powers of t"):
        groupring.determinant(four)
    cube = input_from_dict({"generators": ["a", "b", "c"], "relators": [],
                            "rminus": ["a^3", "b^4", "c^5"]})
    budget(80)
    assert len(torsion(cube).tau.terms) == 60
    budget(79)
    with pytest.raises(ValueError, match="at least 80 term products"):
        torsion(cube)
    # R_- words handlebody_words(random.Random(100 + g), g, 12) over g
    # generators; at genus 8 tau has 123,858 terms
    from perfbench import corpus

    for g, bound in zip(range(3, 9), (210, 1_364, 8_023, 36_512, 137_542, 866_680)):
        alphabet = make_alphabet("abcdefgh"[:g])
        words = [free_reduce(w) for w in corpus.handlebody_words(random.Random(100 + g), g, 12)]
        budget(100)
        A = fox.fox_matrix(alphabet, words, abelianize(alphabet, []))
        budget(bound)
        det = groupring._cofactor(A)
        if g >= 5:
            assert equal(groupring.determinant(A), det)
        budget(bound - 1)
        with pytest.raises(ValueError, match=f"at least {bound} term products"):
            groupring._cofactor(A)
    assert len(det.packed[1]) == 123_858


def test_one_work_budget_reaches_every_site(monkeypatch):
    """Setting words.WORK_BUDGET alone moves all ten checks, each at its
    bound: the seven refusals, whose messages name the budget set (the
    letters of a power, the Fox terms, a record's coordinates, the slots of
    _lift, _cofactor's term products and block rows, and the facet hull's
    point-facet steps), and the three compares
    (the stop of _peel, the 2 x 2 gate, and the slots check of a whole
    one-variable matrix before the front end)."""
    def budget(n):
        monkeypatch.setattr(W, "WORK_BUDGET", n)

    def refused(what, n, call, *args):
        """call(*args) is refused under a budget of n - 1 and admitted under n."""
        budget(n - 1)
        with pytest.raises(ValueError, match=f"^{what} over the work budget of {n - 1}$"):
            call(*args)
        budget(n)
        return call(*args)

    def matrix(G, rows):  # each entry {free coordinates: coefficient}
        return groupring.GRMatrix.from_rows(
            [[element(G, {AbElement(h, ()): c for h, c in e.items()}) for e in row] for row in rows])

    # the matrices, built under the default budget
    knot = F.wirtinger_knot(F.torus_2n_pd(31))  # 31 rows over Z, 32 slots, codec bound 248
    A = fox.fox_matrix(knot.alphabet, knot.relators + knot.rminus,
                       abelianize(knot.alphabet, knot.relators))
    cube = make_alphabet(["a", "b", "c"])
    cube = fox.fox_matrix(cube, [parse_word(w, cube) for w in ("a^3", "b^4", "c^5")],
                          abelianize(cube, []))
    # rank one: every 2 x 2 minor of t1^(i + j) is zero
    rank_one = matrix(AbelianGroup(2), [[{(i + j, 0): 1} for j in range(4)] for i in range(4)])
    # (1 + t)(1 + t) - t * 1: 5 term products
    two = matrix(AbelianGroup(1), [[{(0,): 1, (1,): 1}, {(1,): 1}],
                                   [{(0,): 1}, {(0,): 1, (1,): 1}]])

    refused("a power of 6 letters is", 6, W.power, W.Word(((0, 1), (1, 1))), -3)
    refused("6 Fox terms are", 6, fox.fox_derivative, W.Word(((0, 6),)), 0,
            abelianize(make_alphabet(["a"]), []))
    refused("a group of 4 coordinates is", 4, groupring.from_records,
            {"group": {"rank": 3, "torsion": [2]}, "terms": []})
    refused("a determinant of 32 powers of t is", 32, groupring._lift, A.packed)
    refused("a cofactor expansion of at least 80 term products is", 80, groupring._cofactor, cube)
    assert not refused("a cofactor expansion of at least 16 block rows is", 16,
                       groupring._cofactor, rank_one)
    # the 3 x 3 x 3 grid: 23 steps assign its points to the first simplex,
    # and each of the 10 points added after it counts its tests and facets
    grid = list(itertools.product(range(3), repeat=3))
    assert refused("a facet hull of 272 point-facet steps is", 272, polytope.hull_vertices,
                   grid) == sorted(itertools.product((0, 2), repeat=3))

    def peel():
        return groupring._peel([dict(row) for row in A.packed], A.packing, 0)

    budget(1274)
    assert len(peel()[0]) == 1 and peel()[3] == 1274
    budget(1273)
    assert len(peel()[0]) == 2 and peel()[3] == 1216
    # the whole matrix's slots are checked before the front end, as 1 + the
    # codec bound is over the budget
    budget(31)
    peels = []
    monkeypatch.setattr(groupring, "_peel", lambda *args: peels.append(args))
    with pytest.raises(ValueError, match="^a determinant of 32 powers of t is over the work "
                                         "budget of 31$"):
        groupring.determinant(A)
    assert peels == []
    # the 2 x 2 gate
    kronecker, cores = groupring._kronecker, []

    def spy(G, rows):
        cores.append(len(rows))
        return kronecker(G, rows)

    monkeypatch.setattr(groupring, "_kronecker", spy)
    budget(5)
    det = groupring.determinant(two)
    assert cores == [] and dict(det.packed[1]) == {0: 1, 1: 1, 2: 1}
    budget(4)
    assert equal(groupring.determinant(two), det) and cores == [2]


def test_solid_torus_2000_torsion_and_eval():
    res = torsion(solid_torus(2000))
    assert equal(res.tau, cyclic_sum(2000))
    assert evaluation_check(res.input, res).passed


def test_augmentation_order_check():
    inp = solid_torus(5)
    res = torsion(inp)
    au = augmentation_order_check(inp, res)
    assert au.passed and au.aug == 5 and au.ord == 5
    # trefoil-like infinite case: kill nothing nontrivial
    inp2 = simple_input(["a b a^-1 b^-1", "a"], relator_texts=[])
    res2 = torsion(inp2)
    au2 = augmentation_order_check(inp2, res2)
    assert au2.ord is INFINITE
    assert au2.passed == (au2.aug == 0)


def test_nielsen_invert_preserves_torsion():
    inp = cantwell_conlon()
    base = torsion(inp)
    for k in range(3):
        moved = nielsen_move(inp, ("invert", k))
        assert sim_equal(torsion(moved).tau, base.tau)


def test_nielsen_multiply_preserves_torsion():
    inp = pretzel_odd(1, 2, 1)
    base = torsion(inp)
    for k, k2 in [(0, 1), (1, 0)]:
        moved = nielsen_move(inp, ("multiply", k, k2))
        assert sim_equal(torsion(moved).tau, base.tau)
    with pytest.raises(ValueError):
        nielsen_move(inp, ("multiply", 0, 0))
    with pytest.raises(ValueError):
        nielsen_move(inp, ("transpose", 0, 1))


def test_tietze_extension_preserves_torsion():
    inp = cantwell_conlon()
    base = torsion(inp)
    w = parse_word("b a^-1", inp.alphabet)
    ext = tietze_add_generator(inp, w)
    assert len(ext.alphabet) == 4
    assert ext.alphabet[3].name == "g"
    res = torsion(ext)
    assert sim_equal(transport_tau(base, res), res.tau)
    with pytest.raises(ValueError):
        tietze_add_generator(inp, w, name="a")


def test_transport_tau_with_torsion_matches_legacy_fold():
    """After a Tietze extension of a presentation whose H has torsion, the
    transported determinant equals the push-forward of the ab_add/ab_scale
    fold through the lifts, and is +-h times the new torsion."""
    inp = simple_input(["a b", "c a^-1"], names=("a", "b", "c"), relator_texts=["a^4 b^-2"])
    base = torsion(inp)
    assert base.H == AbelianGroup(2, (2,))
    res = torsion(tietze_add_generator(inp, parse_word("b a^-3 c^2", inp.alphabet)))
    new_images = res.abelianization.gen_images
    images = tuple(legacy_groupring.combine(res.H, zip(lift, new_images))
                   for lift in base.abelianization.lifts)
    proj = Projection(base.H, res.H, image_matrix(res.H, images))
    expected = legacy_groupring.push_forward(base.raw_det, proj)
    moved = transport_tau(base, res)
    assert moved.terms and equal(moved, expected)
    assert sim_equal(moved, res.tau)


def test_induced_hom_matches_per_lift_images():
    """induced_hom, one dot_map of the padded lifts, gives the matrix the
    parent code built from one Cokernel.from_vector per lift and
    image_matrix, on seeded Tietze extensions by one to three generators of
    presentations whose H has torsion, and on the identity of H."""
    def per_lift(old, new):
        old_ab, new_ab = old.abelianization, new.abelianization
        pad = (0,) * (len(new_ab.gen_images) - len(old_ab.gen_images))
        return Projection(old.H, new.H, image_matrix(new.H, [
            new_ab.from_vector(col + pad) for col in old_ab.lifts]))

    rng = random.Random(26)
    names = ("a", "b", "c")
    seen = collections.Counter()
    for _ in range(25):
        relator = " ".join(f"{rng.choice(names)}^{rng.choice([2, 3, 4, -2, -6])}"
                           for _ in range(rng.randint(1, 3)))
        rminus = [" ".join(f"{rng.choice(names)}^{rng.choice([-2, -1, 1, 3])}"
                           for _ in range(rng.randint(1, 3))) for _ in range(2)]
        inp = simple_input(rminus, names=names, relator_texts=[relator])
        base = torsion(inp)
        seen["torsion"] += bool(base.H.torsion)
        assert E.induced_hom(base, base) == per_lift(base, base)
        ext = inp
        for _ in range(rng.randint(1, 3)):
            w = W.free_reduce([(rng.randrange(len(ext.alphabet)), rng.choice([-2, -1, 1, 2]))
                               for _ in range(rng.randint(0, 4))])
            ext = tietze_add_generator(ext, w)
            res = torsion(ext)
            hom = E.induced_hom(base, res)
            assert hom == per_lift(base, res)
            seen["extension"] += 1
            assert sim_equal(transport_tau(base, res), res.tau)
    assert seen["torsion"] >= 10 and seen["extension"] >= 40, seen


def test_random_moves_transport_tau():
    """Seeded chains of random Tietze extensions and Nielsen moves, on every
    fixture with a square Fox matrix and on presentations whose H has
    torsion: after each move, the first presentation's and the previous
    one's determinants pushed into the new H by transport_tau (the lifts of
    their canonical factors, through induced_hom) are +-h times the new
    tau.  T is an invariant of the sutured manifold, so this checks the
    lifts and the basis of H that cokernel picks against the paper, not
    against a copy of their code."""
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    inputs = []
    for name in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, name)) as f:
            d = json.load(f)
        if "generators" in d:
            inp = input_from_dict(d)
            if not any(diag.blocking for diag in validate(inp)):
                inputs.append(inp)
    names = ("a", "b", "c")
    inputs += [simple_input(["b c a", "c^2 b^-1"], names, ["a^2"]),
               simple_input(["a b c", "c a^-1 b"], names, ["a^6 b^4"]),
               simple_input(["c a^2 b", "a b^-1 c^3"], names, ["a^4 b^-2"]),
               simple_input(["c b^-1"], names, ["a^2", "a^6 b^4"])]
    rng, seen = random.Random(31), collections.Counter()
    for inp in inputs:
        first = old = torsion(inp)
        seen["torsion"] += bool(first.H.torsion)
        for _ in range(6):
            k = len(inp.rminus)
            if rng.random() < 0.5:
                w = W.free_reduce([(rng.randrange(len(inp.alphabet)), rng.choice([-2, -1, 1, 2]))
                                   for _ in range(rng.randint(0, 3))])
                inp = tietze_add_generator(inp, w)
                seen["tietze"] += 1
            elif k > 1 and rng.random() < 0.5:
                inp = nielsen_move(inp, ("multiply", *rng.sample(range(k), 2)))
                seen["multiply"] += 1
            else:
                inp = nielsen_move(inp, ("invert", rng.randrange(k)))
                seen["invert"] += 1
            new = torsion(inp)
            assert sim_equal(transport_tau(old, new), new.tau), input_to_dict(inp)
            assert sim_equal(transport_tau(first, new), new.tau), input_to_dict(inp)
            seen["nonzero"] += bool(new.tau.terms)
            old = new
    assert len(inputs) == 13 and seen["torsion"] == 4, seen
    assert min(seen["tietze"], seen["multiply"], seen["invert"]) >= 10, seen
    assert seen["nonzero"] > 60, seen


def test_tietze_name_round_trips():
    """A given name is held to make_alphabet's rule and message, so every
    extension reads back from its dict: taken, 'x y' would be written as the
    relator "x y a^-3", which input_from_dict refuses."""
    inp = cantwell_conlon()
    w = parse_word("b a^-3", inp.alphabet)
    for name in ("x y", "2x", "x^2", "", "x-1"):
        with pytest.raises(W.WordError, match=f"^invalid generator name {re.escape(repr(name))}$"):
            tietze_add_generator(inp, w, name=name)
    for name in ("x_1", "Y2", None):
        ext = tietze_add_generator(inp, w, name=name)
        back = input_from_dict(input_to_dict(ext))
        assert (back.alphabet, back.relators, back.rminus) == (ext.alphabet, ext.relators,
                                                               ext.rminus)


def test_tietze_fresh_name_avoids_collision():
    inp = simple_input(["a", "g"], names=("a", "g"))
    ext = tietze_add_generator(inp, parse_word("a", inp.alphabet))
    assert ext.alphabet[-1].name == "g2"


def test_json_round_trip(tmp_path):
    inp = cantwell_conlon()
    d = input_to_dict(inp)
    assert d["generators"] == ["a", "b", "c"]
    back = input_from_dict(d)
    assert back.alphabet == inp.alphabet
    assert back.relators == inp.relators
    assert back.rminus == inp.rminus
    assert back.name == inp.name
    path = tmp_path / "cc.json"
    dump_input(inp, str(path))
    loaded = load_input(str(path))
    assert loaded == back
    # defaults
    minimal = input_from_dict({"generators": ["a"], "rminus": ["a"]})
    assert minimal.relators == ()
    assert minimal.claimed_irreducible
    assert not input_from_dict({"generators": ["a"], "rminus": ["a"],
                                "claimed_irreducible": False}).claimed_irreducible


def test_notes_round_trip():
    inp = dataclasses.replace(cantwell_conlon(), notes="the example of section 8")
    d = input_to_dict(inp)
    assert d["notes"] == "the example of section 8"
    assert list(d) == ["generators", "relators", "rminus", "name", "notes", "claimed_irreducible"]
    assert input_from_dict(d) == inp


@pytest.mark.parametrize("d, key", [
    ({"generators": ["a"], "rminus": ["a"], "claimed_irreducible": "false"},
     "claimed_irreducible"),
    ({"generators": ["a"], "rminus": ["a"], "claimed_irreducible": None},
     "claimed_irreducible"),
    ({"generators": ["a"], "rminus": ["a"], "name": ["x"]}, "name"),
    ({"generators": ["a"], "rminus": ["a"], "notes": 3}, "notes"),
    ({"rminus": ["a"]}, "generators"),
])
def test_input_from_dict_rejects_wrong_types(d, key):
    with pytest.raises(ValueError, match=key):
        input_from_dict(d)


def test_torsion_with_relators_trefoil_style():
    alphabet = make_alphabet(["x", "y"])
    inp = SuturedInput(
        alphabet=alphabet,
        relators=(parse_word("x y x y^-1 x^-1 y^-1", alphabet),),
        rminus=(parse_word("x", alphabet),),
    )
    res = torsion(inp)
    assert res.H == AbelianGroup(1)
    n = normalize(res.raw_det)
    assert [c for _, c in sorted(((h.free, c) for h, c in n.terms.items()))] == [1, -1, 1]
