import collections
import dataclasses
import itertools
import json
import random

import legacy_canonical
import legacy_groupring
from legacy_abelian import image_matrix
import pytest

from sutor import engine as E
from sutor import fox, groupring
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
    products than _cofactor alone: the front end leaves it whole."""
    monkeypatch.setattr(W, "WORK_BUDGET", 6)
    alphabet = make_alphabet(["a", "b"])
    assert len(parse_word("(a b)^3", alphabet).letters) == 6
    with pytest.raises(ValueError, match="work budget"):
        parse_word("(a b)^-4", alphabet)
    monkeypatch.setattr(fox, "WORK_BUDGET", 6)
    assert torsion(simple_input(["b"], relator_texts=["a^5"])).H == AbelianGroup(1, (5,))
    with pytest.raises(ValueError, match="7 Fox terms"):
        torsion(simple_input(["b"], relator_texts=["a^-6"]))
    monkeypatch.setattr(fox, "WORK_BUDGET", 100)
    monkeypatch.setattr(groupring, "WORK_BUDGET", 8)

    def chain(n):
        return input_from_dict({"generators": [f"a{i}" for i in range(n + 1)],
                                "relators": [f"a{i}^2 a{i + 1}^-1" for i in range(n)],
                                "rminus": [f"a{n}"]})
    assert len(torsion(chain(3)).tau.terms) == 8
    with pytest.raises(ValueError, match="16 powers of t"):
        torsion(chain(4))
    cube = input_from_dict({"generators": ["a", "b", "c"], "relators": [],
                            "rminus": ["a^3", "b^4", "c^5"]})
    monkeypatch.setattr(groupring, "WORK_BUDGET", 80)
    assert len(torsion(cube).tau.terms) == 60
    monkeypatch.setattr(groupring, "WORK_BUDGET", 79)
    with pytest.raises(ValueError, match="at least 80 term products"):
        torsion(cube)
    # R_- words handlebody_words(random.Random(100 + g), g, 12) over g
    # generators; at genus 8 tau has 123,858 terms
    from perfbench import corpus

    for g, bound in zip(range(3, 9), (210, 1_364, 8_023, 36_512, 137_542, 866_680)):
        alphabet = make_alphabet("abcdefgh"[:g])
        words = [free_reduce(w) for w in corpus.handlebody_words(random.Random(100 + g), g, 12)]
        A = fox.fox_matrix(alphabet, words, abelianize(alphabet, []))
        monkeypatch.setattr(groupring, "WORK_BUDGET", bound)
        det = groupring._cofactor(A)
        if g >= 5:
            assert equal(groupring.determinant(A), det)
        monkeypatch.setattr(groupring, "WORK_BUDGET", bound - 1)
        with pytest.raises(ValueError, match=f"at least {bound} term products"):
            groupring._cofactor(A)
    assert len(det.packed[1]) == 123_858


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
