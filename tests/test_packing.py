"""The packed-key codec of groupring, and the loops that use it, against the
AbElement code they replaced (tests/legacy_groupring.py)."""
import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

import legacy_canonical
import legacy_groupring
from sutor import families as F
from sutor import groupring
from sutor.abelian import (
    AbElement,
    AbelianGroup,
    ab_add,
    ab_scale,
    abelianize,
    direct_sum,
    quotient,
)
from sutor.fox import fox_matrix
from sutor.groupring import (
    GRMatrix,
    GroupRingElement,
    _accumulate,
    _cofactor,
    _key,
    _Packing,
    determinant,
    element,
    equal,
    mul,
    normalize,
    push_forward,
    sim_equal,
)
from sutor.words import Word, free_reduce, make_alphabet
from test_abelian import _braid_closure

GROUPS = [AbelianGroup(2), AbelianGroup(1, (3,)), AbelianGroup(2, (2, 4)), AbelianGroup(0, (6,))]


@st.composite
def group_and_elements(draw):
    """G = Z^b + T (b <= 4, chained torsion), a bound, and two elements with
    coordinates up to +-bound."""
    b = draw(st.integers(0, 4))
    torsion = []
    for f in draw(st.lists(st.integers(1, 4), max_size=3)):
        torsion.append(torsion[-1] * f if torsion else f + 1)
    G = AbelianGroup(b, tuple(torsion))
    bound = draw(st.integers(0, 2 ** 40))

    def elements():
        return st.builds(
            AbElement,
            st.tuples(*[st.integers(-bound, bound)] * b),
            st.tuples(*[st.integers(0, d - 1) for d in torsion]))

    return G, bound, draw(elements()), draw(elements())


@settings(max_examples=300, deadline=None)
@given(group_and_elements())
def test_codec_round_trips_orders_and_adds(case):
    G, bound, x, y = case
    pk = _Packing(G, 2 * bound)  # the sum x + y reaches 2 * bound
    s = ab_add(G, x, y)
    terms = {h: c for c, h in enumerate((x, y, s))}
    assert pk.decode_terms(pk.encode_terms(terms)) == terms
    assert (pk.encode(x) < pk.encode(y)) == (_key(x) < _key(y))
    assert (pk.encode(x) < pk.encode(s)) == (_key(x) < _key(s))
    assert pk.fold(pk.encode(x) + pk.encode(y)) == pk.encode(s)
    assert (pk.encode(x) >> pk.tor_bits == pk.encode(y) >> pk.tor_bits) == (x.free == y.free)


def test_codec_at_the_bound():
    G = AbelianGroup(3, (2, 4))
    for bound in (0, 1, 2, 3, 7, 8, 255, 256):
        pk = _Packing(G, bound)
        corners = [AbElement((a, b, -a), (1, 3))
                   for a in (-bound, bound) for b in (-bound, 0, bound)]
        terms = dict.fromkeys(corners, 1)
        assert pk.decode_terms(pk.encode_terms(terms)) == terms
        keys = sorted(corners, key=pk.encode)
        assert keys == sorted(corners, key=_key)


def _random_element(rng, G, spread=3, terms=3):
    return element(G, {
        AbElement(tuple(rng.randint(-spread, spread) for _ in range(G.rank)),
                  tuple(rng.randrange(d) for d in G.torsion)): rng.randint(-3, 3)
        for _ in range(rng.randint(0, terms))
    })


def _same(p: GroupRingElement, q: GroupRingElement) -> bool:
    """Equal, term for term and in the same dict order."""
    return p.group == q.group and list(p.terms.items()) == list(q.terms.items())


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_cofactor_matches_legacy(G):
    rng = random.Random(G.describe())
    for _ in range(30):
        n = rng.randint(2, 4)
        A = GRMatrix.from_rows([[_random_element(rng, G) for _ in range(n)] for _ in range(n)])
        assert _same(_cofactor(A), legacy_groupring._cofactor(A))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_cofactor_at_the_bound(G):
    # lower triangular with diagonal +-(3, ..., 3): det's one term has every
    # free coordinate at +-rows * 3, the codec's bound
    rng = random.Random(5)
    for n, s in ((2, 3), (3, -3), (4, 3)):
        corner = AbElement((s,) * G.rank, tuple(d - 1 for d in G.torsion))
        A = GRMatrix.from_rows([
            [element(G, {corner: 1}) if i == j
             else _random_element(rng, G) if j < i else element(G, {})
             for j in range(n)] for i in range(n)])
        det = _cofactor(A)
        assert _same(det, legacy_groupring._cofactor(A))
        assert [h.free for h in det.terms] == [(n * s,) * G.rank]


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_mul_matches_legacy_products(G):
    rng = random.Random(11)
    for _ in range(40):
        p, q = _random_element(rng, G, terms=5), _random_element(rng, G, terms=5)
        legacy = _accumulate({}, legacy_groupring._products(G, p.terms, q.terms))
        assert _same(mul(p, q), GroupRingElement(G, legacy))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_normalize_matches_legacy_at_the_bound(G):
    # terms at -3 and +3 in every free coordinate: the winning shift moves
    # one of them to the origin and the other to 2 * 3, the codec's bound
    tor = tuple(d - 1 for d in G.torsion)
    p = element(G, {AbElement((-3,) * G.rank, tor): 2,
                    AbElement((3,) * G.rank, (0,) * len(tor)): -1})
    assert _same(normalize(p), legacy_canonical.normalize(p))
    rng = random.Random(3)
    for _ in range(20):
        p = _random_element(rng, G, terms=5)
        assert _same(normalize(p), legacy_canonical.normalize(p))


def _projections(rng, H):
    for _ in range(4):
        killed = [AbElement(tuple(rng.randint(-3, 3) for _ in range(H.rank)),
                            tuple(rng.randrange(d) for d in H.torsion))
                  for _ in range(rng.randint(0, 2))]
        yield quotient(H, killed)
    for other in GROUPS:
        yield direct_sum(H, other)[1]
        yield direct_sum(other, H)[2]


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_push_forward_matches_legacy(G):
    rng = random.Random(17)
    for proj in _projections(rng, G):
        for _ in range(5):
            p = _random_element(rng, G, terms=8)
            assert _same(push_forward(p, proj), legacy_groupring.push_forward(p, proj))


# presentations whose abelianization is each group of GROUPS, with one
# Tietze generator e = a b^2 c^-1 so that generator images mix coordinates
PRESENTATIONS = [
    (["a", "b", "c"], [[(2, -1), (0, 1), (1, 2)]]),                        # Z^2
    (["a", "b", "c"], [[(1, 3)], [(2, -1), (0, 1), (1, 2)]]),              # Z + Z/3
    (["a", "b", "c", "d", "e"], [[(2, 2)], [(3, 4)],
                                 [(4, -1), (0, 1), (1, 2), (2, -1)]]),     # Z^2 + Z/2 + Z/4
    (["a", "b"], [[(0, 6)], [(1, -1), (0, 5)]]),                           # Z/6
]


@pytest.mark.parametrize("names, relators", PRESENTATIONS)
def test_fox_columns_match_legacy(names, relators):
    alphabet = make_alphabet(names)
    ab = abelianize(alphabet, [Word(tuple(r)) for r in relators])
    assert ab.group in GROUPS
    rng = random.Random(len(names))
    m = len(names)
    for _ in range(10):
        words = []
        for _ in range(rng.randint(1, 4)):
            letters = []
            for _ in range(rng.randint(0, 6)):
                g, k = rng.randrange(m), rng.choice([-3, -2, -1, 1, 2, 3])
                if letters and letters[-1][0] == g:
                    continue
                letters.append((g, k))
            words.append(Word(tuple(letters)))
        _assert_fox_matches_legacy(alphabet, words, ab)
    # g^-3 for the generator with the largest image coordinate alone: its
    # last term, g^-3, sits at the bound on one word's prefixes, which the
    # codec's bound multiplies by the rows
    g = max(range(m), key=lambda i: max(map(abs, ab.gen_images[i].free + ab.gen_images[i].tor)))
    _assert_fox_matches_legacy(alphabet, [Word(((g, -3),))], ab)


def _assert_fox_matches_legacy(alphabet, words, ab):
    A = fox_matrix(alphabet, words, ab)
    for j, w in enumerate(words):
        column = legacy_groupring._fox_column(w, ab)
        for g in alphabet:
            assert _same(A.entries[g.index][j], GroupRingElement(ab.group, column.get(g.index, {})))


def test_fox_matrix_encodes_each_image_a_constant_number_of_times(monkeypatch):
    names, relators = PRESENTATIONS[2]
    alphabet = make_alphabet(names)
    ab = abelianize(alphabet, [Word(tuple(r)) for r in relators])
    encode = _Packing.encode
    calls = []

    def spy(self, h):
        calls.append(h)
        return encode(self, h)

    monkeypatch.setattr(groupring._Packing, "encode", spy)
    for ncols in (1, 5, 25):
        calls.clear()
        fox_matrix(alphabet, [Word(((0, 2), (1, -3), (4, 1)))] * ncols, ab)
        assert calls == list(ab.gen_images)


def _handlebody_words(rng, g, length):
    """g seeded words of the given length over g generators, exponents +-1,
    no two adjacent letters on one generator."""
    words = []
    for _ in range(g):
        letters = []
        while len(letters) < length:
            x = rng.randrange(g)
            if not letters or letters[-1][0] != x:
                letters.append((x, rng.choice((1, -1))))
        words.append(Word(tuple(letters)))
    return words


def _random_words(rng, m, count, exponents=(-3, -2, -1, 1, 2, 3)):
    return [free_reduce([(rng.randrange(m), rng.choice(exponents))
                         for _ in range(rng.randint(1, 6))]) for _ in range(count)]


def _packed_det_matches(alphabet, words, ab, seen):
    """determinant of the Fox matrix on its packed keys equals determinant of
    the same entries through from_rows and the AbElement cofactor expansion;
    the Fox matrix is decoded only after its determinant."""
    A = fox_matrix(alphabet, words, ab)
    det = determinant(A)
    assert "entries" not in A.__dict__
    B = GRMatrix.from_rows([[GroupRingElement(e.group, dict(e.terms)) for e in row]
                            for row in A.entries])
    assert A == B and B == A
    assert _same(determinant(B), det)
    legacy = legacy_groupring._cofactor(A)
    G = ab.group
    # the cofactor path keeps the legacy term order; the one-variable path
    # reads its terms off digits, lowest exponent first
    assert _same(det, legacy) if G.rank + len(G.torsion) > 1 else equal(det, legacy)
    seen[G.describe()] += 1
    seen["nonzero"] += bool(det)
    return det


def test_packed_determinant_matches_from_rows_and_legacy():
    seen = collections.Counter()
    for n in range(3, 32, 2):
        inp = F.wirtinger_knot(F.torus_2n_pd(n))
        ab = abelianize(inp.alphabet, inp.relators)
        det = _packed_det_matches(inp.alphabet, list(inp.relators) + list(inp.rminus), ab, seen)
        assert sim_equal(det, F.torus_2n_expected(n))
    rng = random.Random(23)
    for _ in range(12):
        strands = rng.randint(2, 5)
        alphabet, relators = _braid_closure(rng, strands, strands - 1 + 2 * rng.randint(2, 8))
        meridian = Word(((0, 1),))
        words = relators[:-1] + [meridian]
        if len(words) == len(alphabet):
            _packed_det_matches(alphabet, words, abelianize(alphabet, relators[:-1]), seen)
    for g in (3, 4, 5):
        alphabet = make_alphabet("abcde"[:g])
        for _ in range(3):
            _packed_det_matches(alphabet, _handlebody_words(rng, g, 10), abelianize(alphabet, []),
                                seen)
    # H = Z/6, Z + Z/2 and the trivial group; the Fox columns are any words
    for names, relators, group in (
            (["a", "b"], [[(0, 6)], [(1, -1), (0, 5)]], AbelianGroup(0, (6,))),
            (["a", "b", "c"], [[(1, 2)], [(2, -1), (0, 1), (1, 3)]], AbelianGroup(1, (2,))),
            (["a", "b"], [[(0, 1)], [(1, 1), (0, 2)]], AbelianGroup(0))):
        alphabet = make_alphabet(names)
        ab = abelianize(alphabet, [Word(tuple(r)) for r in relators])
        assert ab.group == group
        for _ in range(10):
            _packed_det_matches(alphabet, _random_words(rng, len(names), len(names)), ab, seen)
    assert seen["Z"] >= 15 + 6 and seen["nonzero"] > 40, seen
    assert all(seen[G] >= 3 for G in ("Z + Z + Z", "Z + Z + Z + Z", "Z + Z + Z + Z + Z",
                                      "Z/6", "Z + Z/2", "0")), seen


def test_fox_codec_covers_a_sum_over_rows():
    """Four rows whose Fox terms each reach a^-3, the largest |image
    coordinate| (1) times the longest word's reach (3): the determinant's
    term a^-12 is four times that, so the Fox matrix's codec must be as wide
    as rows x that bound for _cofactor to use its keys as they are."""
    alphabet = make_alphabet(["a", "b", "c", "d", "e"])
    ab = abelianize(alphabet, [Word(((g, 1), (0, -1))) for g in (1, 2, 3)])
    assert ab.group == AbelianGroup(2)
    words = [Word(((g, -3),)) for g in range(4)] + [Word(((4, 1), (0, -3)))]
    det = _packed_det_matches(alphabet, words, ab, collections.Counter())
    a = ab.gen_images[0]
    assert det.terms[ab_scale(ab.group, a, -12)] == 1
    assert sorted(det.terms.values()) == sorted([1, 4, 10, 16, 19, 16, 10, 4, 1])


def test_matrices_with_equal_entries_compare_equal():
    alphabet = make_alphabet(["a", "b", "c"])
    ab = abelianize(alphabet, [Word(((1, 2),))])
    words = [Word(((0, 2), (1, -1), (2, 3))), Word(((2, -2), (0, 1))), Word(((1, 1), (0, -4)))]
    A, A2 = fox_matrix(alphabet, words, ab), fox_matrix(alphabet, words, ab)
    B = GRMatrix.from_rows([[GroupRingElement(e.group, dict(e.terms)) for e in row]
                            for row in A.entries])
    assert A == A2 and A == B and B == A
    assert A.packing.width != B.packing.width  # the codecs differ, the entries do not
    rows = [list(row) for row in B.entries]
    rows[0][0] = rows[0][0] + rows[0][0]
    assert GRMatrix.from_rows(rows) != A
    assert GRMatrix.from_rows(rows[:2]) != A
