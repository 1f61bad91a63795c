import json
import random

import pytest

from sutor import engine as E
from sutor import families as F
from sutor import groupring
from sutor import words as W
from sutor.abelian import AbElement, abelianize, word_image
from sutor.cli import main
from sutor.fox import fox_derivative, fox_matrix
from sutor.groupring import add, equal, monomial, mul, neg, one, zero
from sutor.words import make_alphabet, parse_word

AB = make_alphabet(["a", "b"])
FREE = abelianize(AB, [])
H = FREE.group


def phi(w):
    return monomial(H, word_image(FREE, w))


def d(text, gen):
    return fox_derivative(parse_word(text, AB), gen, FREE)


def test_derivative_of_generator():
    assert equal(d("a", 0), one(H))
    assert equal(d("a", 1), zero(H))
    assert equal(d("b", 1), one(H))


def test_derivative_of_inverse():
    # d(a^-1)/da = -a^-1
    assert equal(d("a^-1", 0), monomial(H, AbElement((-1, 0), ()), -1))


def test_power_closed_form():
    # d(a^3)/da = 1 + a + a^2
    expected = add(add(one(H), monomial(H, AbElement((1, 0), ()))),
                   monomial(H, AbElement((2, 0), ())))
    assert equal(d("a^3", 0), expected)
    # d(a^-2)/da = -a^-1 - a^-2
    expected = add(monomial(H, AbElement((-1, 0), ()), -1),
                   monomial(H, AbElement((-2, 0), ()), -1))
    assert equal(d("a^-2", 0), expected)


def test_product_rule_example():
    u = parse_word("a b", AB)
    v = parse_word("b^-1 a^2", AB)
    w = W.concat(u, v)
    for g in (0, 1):
        lhs = fox_derivative(w, g, FREE)
        rhs = add(fox_derivative(u, g, FREE),
                  mul(phi(u), fox_derivative(v, g, FREE)))
        assert equal(lhs, rhs)


def test_inverse_rule_example():
    w = parse_word("a b^-1 a^2 b", AB)
    for g in (0, 1):
        lhs = fox_derivative(W.invert(w), g, FREE)
        rhs = neg(mul(monomial(H, word_image(FREE, W.invert(w))),
                      fox_derivative(w, g, FREE)))
        assert equal(lhs, rhs)


def test_fundamental_identity_example():
    # sum_x (phi(x) - 1) * dw/dx = phi(w) - 1, for every column w of the Fox matrix
    presentations = [
        (["a", "b"], [], ["a^2 b a^-1 b^-3"]),
        # H = Z + Z/2: a = -4b, 2b = 0
        (["a", "b", "c"], ["a^2 b^3 a^-1 b", "b^2 c b^-2 c^-1 b^2"], ["a c^2 b^-1 a^3 c^-1"]),
    ]
    for names, relators, words in presentations:
        alphabet = make_alphabet(names)
        rels = [parse_word(r, alphabet) for r in relators]
        cols = rels + [parse_word(w, alphabet) for w in words]
        ab = abelianize(alphabet, rels)
        G = ab.group
        assert bool(G.torsion) == bool(relators)
        A = fox_matrix(alphabet, cols, ab)
        for j, w in enumerate(cols):
            acc = zero(G)
            for g in alphabet:
                factor = add(monomial(G, ab.gen_images[g.index]), neg(one(G)))
                acc = add(acc, mul(factor, A.entries[g.index][j]))
            assert equal(acc, add(monomial(G, word_image(ab, w)), neg(one(G)))), (names, j)


def test_derivative_sees_quotient_group():
    alphabet = make_alphabet(["a"])
    ab = abelianize(alphabet, [parse_word("a^2", alphabet)])
    # in Z/2, d(a^3)/da = 1 + a + a^2 collapses to 2 + a
    got = fox_derivative(parse_word("a^3", alphabet), 0, ab)
    assert got.terms == {
        AbElement((), (0,)): 2,
        AbElement((), (ab.gen_images[0].tor[0],)): 1,
    }


def test_fox_matrix_shape_and_entries():
    cols = [parse_word("a b a^-1 b^-1", AB), parse_word("a^2", AB)]
    A = fox_matrix(AB, cols, FREE)
    assert A.rows == 2 and A.cols == 2
    assert equal(A.entries[0][1], d("a^2", 0))
    assert equal(A.entries[1][1], zero(H))
    assert equal(A.entries[0][0], d("a b a^-1 b^-1", 0))


def test_generator_object_accepted():
    assert equal(fox_derivative(parse_word("b", AB), AB[1], FREE), one(H))


def test_absent_entries_share_one_empty_element(monkeypatch, tmp_path, capsys):
    """fox_matrix makes every zero entry one shared empty element; no later
    stage writes into it, so it is still empty after torsion, both identity
    checks and polytope --diff, on the one-variable and the cofactor paths."""
    made = []

    def spy(*args):
        made.append(fox_matrix(*args))
        return made[-1]

    monkeypatch.setattr(E, "fox_matrix", spy)
    knot = F.wirtinger_knot(F.torus_2n_pd(7))
    res = E.torsion(knot)
    assert E.evaluation_check(knot, res).passed
    E.augmentation_order_check(knot, res)
    path = tmp_path / "handlebody.json"
    path.write_text(json.dumps({"generators": ["a", "b", "c"], "relators": [],
                                "rminus": ["a b", "b^2 c", "c a^-1 c"]}))
    assert main(["polytope", str(path), "--diff"]) == 0
    assert "difference polytope" in capsys.readouterr().out
    assert [A.group.rank for A in made] == [1, 3]
    for A in made:
        empty = [e for row in A.entries for e in row if not e.terms]
        assert empty and all(e is empty[0] for e in empty)
        assert empty[0].terms == {}


def test_torsion_never_decodes_the_fox_matrix(monkeypatch):
    """torsion and both identity checks read the Fox matrix on its packed
    keys only: entries is never decoded, and the codec decodes no more keys
    than raw_det and tau have terms."""
    made, decoded = [], []

    def spy(*args):
        made.append(fox_matrix(*args))
        return made[-1]

    decode = groupring._Packing.decode

    def counting(self, keys):
        keys = list(keys)
        decoded.append(len(keys))
        return decode(self, keys)

    monkeypatch.setattr(E, "fox_matrix", spy)
    monkeypatch.setattr(groupring._Packing, "decode", counting)
    rng = random.Random(4)
    alphabet = make_alphabet(["a", "b", "c", "d"])
    words = []
    for _ in range(4):  # length 12, no two adjacent letters on one generator
        letters = [(0, 1)]
        while len(letters) < 12:
            g = rng.choice([x for x in range(4) if x != letters[-1][0]])
            letters.append((g, rng.choice((1, -1))))
        words.append(W.Word(tuple(letters)))
    handlebody = E.SuturedInput(alphabet, (), tuple(words))
    for inp in (F.wirtinger_knot(F.torus_2n_pd(31)), handlebody):
        decoded.clear()
        res = E.torsion(inp)
        assert E.evaluation_check(inp, res).passed
        assert E.augmentation_order_check(inp, res).passed
        A = made[-1]
        assert A.rows == len(alphabet if inp is handlebody else inp.alphabet)
        assert "entries" not in A.__dict__
        assert sum(decoded) <= len(res.raw_det.terms) + len(res.tau.terms)
        assert len(res.raw_det.terms) >= 31
