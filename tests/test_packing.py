"""The packed-key codec of groupring, and the loops that use it, against the
AbElement code they replaced (tests/legacy_groupring.py)."""
import collections
import dataclasses
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import legacy_canonical
import legacy_groupring
from legacy_abelian import ab_add, ab_neg, ab_scale
from sutor import engine as E
from sutor import families as F
from sutor import abelian, groupring
from sutor.abelian import (
    AbElement,
    AbelianGroup,
    abelianize,
    direct_sum,
    quotient,
    word_images,
)
from sutor.cli import format_element, free_var_names, main
from sutor.fox import fox_derivative, fox_matrix
from sutor.groupring import (
    GRMatrix,
    GroupRingElement,
    _accumulate,
    _cofactor,
    _max_free,
    _Packing,
    add,
    determinant,
    element,
    equal,
    exact_div,
    from_records,
    monomial,
    mul,
    neg,
    normalize,
    one,
    push_forward,
    scalar_mul,
    sim_equal,
    sum_of_all_elements,
    to_records,
    zero,
)
from sutor.polytope import cyclic_sum, extremal_part
from sutor.words import Word, free_reduce, make_alphabet, parse_word
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


def _keys(pk, elements):
    """The key of each element, in order, from one encode_rows call over
    their coordinate rows."""
    return pk.encode_rows(list(zip(*(h.free + h.tor for h in elements))), len(elements))


@settings(max_examples=300, deadline=None)
@given(group_and_elements())
def test_codec_round_trips_orders_and_adds(case):
    G, bound, x, y = case
    pk = _Packing(G, 2 * bound)  # the sum x + y reaches 2 * bound
    s = ab_add(G, x, y)
    terms = {h: c for c, h in enumerate((x, y, s))}
    assert pk.decode_terms(pk.encode_terms(terms)) == terms
    kx, ky, ks = _keys(pk, [x, y, s])
    assert (kx < ky) == ((x.free, x.tor) < (y.free, y.tor))
    assert (kx < ks) == ((x.free, x.tor) < (s.free, s.tor))
    assert pk.fold(kx + ky) == ks
    assert (kx >> pk.tor_bits == ky >> pk.tor_bits) == (x.free == y.free)


def test_codec_at_the_bound():
    G = AbelianGroup(3, (2, 4))
    for bound in (0, 1, 2, 3, 7, 8, 255, 256):
        pk = _Packing(G, bound)
        corners = [AbElement((a, b, -a), (1, 3))
                   for a in (-bound, bound) for b in (-bound, 0, bound)]
        terms = dict.fromkeys(corners, 1)
        assert pk.decode_terms(pk.encode_terms(terms)) == terms
        key = dict(zip(corners, _keys(pk, corners)))
        assert sorted(corners, key=key.get) == sorted(corners, key=lambda h: (h.free, h.tor))


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
def test_normalize_of_a_determinant_at_the_bound(G):
    # lower triangular with diagonal x^3 + x^-3, x = (1, ..., 1): det spans
    # -rows * 3 to rows * 3 in every free coordinate, so normalize's shift
    # takes a term to 2 x rows x 3, the bound of the matrix's own codec
    rng = random.Random(9)
    x = [AbElement((s,) * G.rank, tuple(rng.randrange(d) for d in G.torsion)) for s in (3, -3)]
    for n in (2, 3, 4):
        A = GRMatrix.from_rows([
            [element(G, {x[0]: 1, x[1]: rng.choice((1, -2))}) if i == j
             else _random_element(rng, G) if j < i else element(G, {})
             for j in range(n)] for i in range(n)])
        det = determinant(A)
        canonical = normalize(det)
        assert canonical.packed[0] is A.packing
        assert _same(canonical, legacy_canonical.normalize(det))
        assert max(h.free for h in canonical.terms) == (2 * n * 3,) * G.rank


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
    encode_rows = _Packing.encode_rows
    calls = []

    def spy(self, rows, count):
        calls.append(list(zip(*rows)))  # the coordinates of each key encoded
        return encode_rows(self, rows, count)

    monkeypatch.setattr(groupring._Packing, "encode_rows", spy)
    for ncols in (1, 5, 25):
        calls.clear()
        fox_matrix(alphabet, [Word(((0, 2), (1, -3), (4, 1)))] * ncols, ab)
        assert calls == [[h.free + h.tor for h in ab.gen_images]]


def test_encode_rows_indexes_only_the_nonzero_coordinates():
    """On the coordinate rows of n unit images, encode_rows reads one
    coordinate of each row, so a key costs its nonzero digits, not one
    shift per row."""
    class Indexed(list):
        reads = 0

        def __getitem__(self, i):
            Indexed.reads += 1
            return super().__getitem__(i)

    for n in (1, 30, 300):
        pk = _Packing(AbelianGroup(n), 1)
        Indexed.reads = 0
        keys = pk.encode_rows([Indexed(int(i == j) for j in range(n)) for i in range(n)], n)
        assert Indexed.reads == n and keys == [1 << s for s in pk.shifts]


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
    # every path returns the legacy terms, in the order its path made them
    assert equal(det, legacy)
    assert legacy_groupring.sorted_terms(det) == legacy_groupring.sorted_terms(legacy)
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


# H = Z^3 (handlebody), Z (T(2,n)), Z + Z/2, Z/6 and the trivial group: each
# a presentation and the Fox columns over it.
DET_GROUPS = [
    (["a", "b", "c"], [], AbelianGroup(3)),
    (["a", "b", "c"], [[(1, 2)], [(2, -1), (0, 1), (1, 3)]], AbelianGroup(1, (2,))),
    (["a", "b"], [[(0, 6)], [(1, -1), (0, 5)]], AbelianGroup(0, (6,))),
    (["a", "b"], [[(0, 1)], [(1, 1), (0, 2)]], AbelianGroup(0)),
]


def _determinants(rng):
    """Seeded packed determinants over every group of DET_GROUPS and over Z,
    each fresh from determinant, so nothing of it is decoded yet."""
    for n in (3, 7, 15):
        inp = F.wirtinger_knot(F.torus_2n_pd(n))
        ab = abelianize(inp.alphabet, inp.relators)
        yield determinant(fox_matrix(inp.alphabet, list(inp.relators) + list(inp.rminus), ab))
    for names, relators, group in DET_GROUPS:
        alphabet = make_alphabet(names)
        ab = abelianize(alphabet, [Word(tuple(r)) for r in relators])
        assert ab.group == group
        for _ in range(8):
            words = (_handlebody_words(rng, len(names), 8) if not relators
                     else _random_words(rng, len(names), len(names)))
            yield determinant(fox_matrix(alphabet, words, ab))


def _records_of(rng, p):
    """Records of p that from_records must read back as p: terms shuffled,
    torsion residues moved by multiples of d, and a coefficient split over
    two records."""
    terms = []
    for t in to_records(p)["terms"]:
        tor = [x + d * rng.randint(-2, 2) for x, d in zip(t["tor"], p.group.torsion)]
        if rng.random() < 0.3:
            c = rng.randint(-3, 3)
            terms.append({"coeff": c, "free": t["free"], "tor": tor})
            terms.append({"coeff": t["coeff"] - c, "free": t["free"], "tor": t["tor"]})
        else:
            terms.append({"coeff": t["coeff"], "free": t["free"], "tor": tor})
    rng.shuffle(terms)
    return {"group": to_records(p)["group"], "terms": terms}


def test_packed_normalize_matches_legacy_on_determinants_and_records():
    """normalize on the determinant's own keys, and on an element read back
    from records (which decodes nothing until its terms are read), against
    the search over every shift it replaced; to_records must agree byte for
    byte."""
    rng = random.Random(31)
    seen = collections.Counter()
    for det in _determinants(rng):
        G = det.group
        canonical = normalize(det)
        assert "terms" not in det.__dict__ and canonical.packed is not None
        legacy = legacy_canonical.normalize(det)
        assert _same(canonical, legacy)
        text = json.dumps(to_records(legacy))
        assert json.dumps(to_records(canonical)) == text
        read = from_records(_records_of(rng, det))
        assert read.packed is not None and "terms" not in read.__dict__ and equal(read, det)
        assert read.terms == det.terms  # decoded on first read
        assert _same(normalize(read), legacy)
        assert json.dumps(to_records(normalize(read))) == text
        assert _same(normalize(canonical), legacy)
        seen[G.describe()] += 1
        seen["nonzero"] += bool(det)
    assert seen["nonzero"] > 25, seen
    assert all(seen[G] >= 3 for G in ("Z", "Z + Z + Z", "Z + Z/2", "Z/6", "0")), seen


def _targets(G):
    """Projections out of G onto targets of rank 0 (G mod its free part, and
    G mod everything) and of rank > 0 (G itself, and G plus Z + Z/2)."""
    free_basis = [AbElement(tuple(int(i == j) for j in range(G.rank)), (0,) * len(G.torsion))
                  for i in range(G.rank)]
    everything = free_basis + [AbElement((0,) * G.rank, tuple(int(i == j) for j in range(
        len(G.torsion)))) for i in range(len(G.torsion))]
    return [quotient(G, free_basis), quotient(G, everything), quotient(G, []),
            direct_sum(G, AbelianGroup(1, (2,)))[1]]


def test_packed_push_forward_matches_legacy():
    """push_forward reads the determinant's coordinates off its digits and
    a decoded element's out of its terms; both equal the per-term legacy map,
    term for term and in order, on targets of rank 0 and rank > 0, and on
    the zero element in both forms."""
    rng = random.Random(37)
    ranks = collections.Counter()
    for det in _determinants(rng):
        G = det.group
        decoded = GroupRingElement(G, dict(GroupRingElement(G, packed=det.packed).terms))
        zeros = [GroupRingElement(G, {}), GroupRingElement(G, packed=(det.packed[0], {}))]
        for proj in _targets(G):
            legacy = legacy_groupring.push_forward(decoded, proj)
            assert _same(push_forward(det, proj), legacy)
            assert _same(push_forward(decoded, proj), legacy)
            for z in zeros:
                assert _same(push_forward(z, proj), GroupRingElement(proj.target, {}))
            ranks["rank 0" if proj.target.rank == 0 else "rank > 0"] += bool(det)
        assert "terms" not in det.__dict__
    assert ranks["rank 0"] > 40 and ranks["rank > 0"] > 40, ranks


@pytest.mark.parametrize("rminus", [["a^6", "b"], ["a^2", "b^2"], ["a b a^-1 b^-1", "a^2 b"],
                                    ["a b a^-1 b^-1", "a^2 b a^-2 b^-1"]])
def test_push_forward_of_a_replaced_raw_det_matches_legacy(rminus):
    """The decoded raw_det that a caller puts in a TorsionResult with
    dataclasses.replace goes through the evaluation check as the legacy map
    sends it."""
    alphabet = make_alphabet(["a", "b"])
    res = E.torsion(E.SuturedInput(alphabet, (), tuple(parse_word(w, alphabet)
                                                        for w in rminus)))
    rng = random.Random(len(rminus[0]))
    for _ in range(5):
        raw = _random_element(rng, res.H, terms=6)
        ev = E.evaluation_check(res.input, dataclasses.replace(res, raw_det=raw))
        assert _same(ev.lhs, legacy_groupring.push_forward(raw, res.rminus_projection))


def _count_decodes(monkeypatch):
    decoded = []
    decode_terms = _Packing.decode_terms

    def counting(self, keys):
        decoded.append(len(keys))
        return decode_terms(self, keys)

    monkeypatch.setattr(groupring._Packing, "decode_terms", counting)
    return decoded


def _spy_inputs():
    alphabet = make_alphabet(["a", "b", "c", "d"])
    rng = random.Random(8)
    yield E.SuturedInput(alphabet, (), tuple(_handlebody_words(rng, 4, 12)))
    yield F.wirtinger_knot(F.torus_2n_pd(21))
    yield F.pretzel_odd(3, 3, 3)
    yield F.solid_torus(5)
    alphabet = make_alphabet(["a", "b", "c"])
    yield E.SuturedInput(alphabet, (Word(((1, 2),)),),
                         (Word(((2, -1), (0, 1), (1, 3))), Word(((0, 2), (2, 1)))))


def test_torsion_and_checks_decode_no_term_of_tau(monkeypatch):
    """torsion and both identity checks read raw_det and tau on their packed
    keys only; the first read of terms decodes each once, a second read
    decodes nothing."""
    decoded = _count_decodes(monkeypatch)
    for inp in _spy_inputs():
        decoded.clear()
        res = E.torsion(inp)
        assert E.evaluation_check(inp, res).passed
        assert E.augmentation_order_check(inp, res).passed
        assert decoded == []
        assert "terms" not in res.raw_det.__dict__ and "terms" not in res.tau.__dict__
        n = len(res.tau.terms)
        assert n and decoded == [n]
        assert res.tau.terms is res.tau.terms and decoded == [n]
        assert len(res.raw_det.terms) == n and decoded == [n, n]
        res.raw_det.terms
        assert decoded == [n, n]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_compute_decodes_tau_exactly_once(monkeypatch, tmp_path, capsys, flags):
    """sutor compute formats tau, and compute --json serializes it, from its
    packed keys: no term of tau is decoded, and the output is the legacy
    writers' on the decoded terms."""
    for i, inp in enumerate(_spy_inputs()):
        path = tmp_path / f"in{i}.json"
        E.dump_input(inp, str(path))
        res = E.torsion(inp)
        tau = res.tau
        assert tau
        capsys.readouterr()
        decoded = _count_decodes(monkeypatch)
        assert main(["compute", *flags, str(path)]) == 0
        assert decoded == []
        monkeypatch.undo()
        out = capsys.readouterr().out
        if flags:
            assert json.loads(out)["tau"] == legacy_groupring.to_records(tau)
        else:
            assert f"tau ~ {legacy_groupring.format_element(tau, free_var_names(res))}\n" in out


def test_elements_are_immutable():
    """Assigning or deleting an attribute raises on a decoded element and on
    a packed one, before and after its terms are decoded, so the cached
    terms cannot fall out of step with the packed keys."""
    inp = next(_spy_inputs())
    tau = E.torsion(inp).tau
    given = dict(tau.terms)
    decoded = GroupRingElement(tau.group, given)
    for p in (E.torsion(inp).tau, tau, decoded):
        for name in ("group", "packed", "terms", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(p, name)
        assert p == decoded
    assert tau.packed is not None and decoded.packed is not None and decoded.terms is given


def _constructed(rng, G):
    """(path, element) for each way a caller makes an element of Z[G], on
    seeded operands: terms whose free coordinates reach +-9 on both sides,
    so a normalize shift doubles them."""
    h = AbElement(tuple(rng.randint(-9, 9) for _ in range(G.rank)),
                  tuple(rng.randrange(d) for d in G.torsion))
    p, q = _random_element(rng, G, terms=5), _random_element(rng, G, terms=5)
    yield "element", element(G, {h: 2, ab_neg(G, h): -1, **p.terms})
    yield "zero", zero(G)
    yield "one", one(G)
    yield "monomial", monomial(G, h, -3)
    yield "from_records", from_records(_records_of(rng, add(p, monomial(G, h))))
    yield "add", add(p, monomial(G, h))
    yield "neg", neg(add(q, monomial(G, h)))
    yield "scalar_mul", scalar_mul(-2, add(p, q))
    yield "mul", mul(add(p, monomial(G, h)), q)
    yield "sum_of_all_elements", sum_of_all_elements(G)
    if not G.torsion and q:
        yield "exact_div", exact_div(mul(add(p, monomial(G, h)), q), q)
    if not G.torsion and G.rank and p:
        alpha = [rng.randint(-2, 2) for _ in range(G.rank)]
        yield "extremal_part", extremal_part(add(p, monomial(G, h)), alpha)


def test_every_constructor_packs_under_a_codec_normalize_can_shift(monkeypatch):
    """Whatever makes an element, it comes out packed, under a codec whose
    free digits hold twice its largest |free coordinate| (a term minus a
    support point), and normalize on it equals the legacy search over every
    shift, term for term.  Reading GRMatrix.entries decodes no key."""
    rng = random.Random(47)
    made = []
    for G in GROUPS + [AbelianGroup(0), AbelianGroup(1)]:
        for _ in range(6):
            made += _constructed(rng, G)
    made += [("cyclic_sum", cyclic_sum(p)) for p in (1, 2, 5, 9)]
    for names, relators in PRESENTATIONS:
        alphabet = make_alphabet(names)
        ab = abelianize(alphabet, [Word(tuple(r)) for r in relators])
        words = _random_words(rng, len(names), len(names))
        made += [("fox_derivative", fox_derivative(w, g, ab)) for w in words for g in alphabet]
        A = fox_matrix(alphabet, words, ab)
        decoded = _count_decodes(monkeypatch)
        entries = A.entries
        assert decoded == []
        monkeypatch.undo()
        made += [("GRMatrix.entries", e) for row in entries for e in row]
    seen = collections.Counter()
    for path, p in made:
        assert p.packed is not None, path
        pk, keys = p.packed
        assert len(keys) == len(p.terms), path
        assert 2 ** (pk.width - 1) > 2 * _max_free(p.terms), path
        assert _same(normalize(p), legacy_canonical.normalize(p)), path
        seen[path] += 1
        seen["nonzero"] += bool(p)
    assert len(seen) == 16 and min(seen.values()) >= 4 and seen["nonzero"] > 300, seen


# ---------------------------------------------------------------------------
# The identity checks on packed keys, equal on packed keys, and the
# cofactor expansion that peels singleton lines


def _check_inputs(rng):
    """Presentations whose G = H_1(M, R_-) is infinite, trivial or finite of
    several orders, over H = Z^g and over H with torsion: the spy inputs,
    T(2,n) knots, seeded handlebodies (one-letter words give trivial G, a
    repeated letter infinite G), and R_- words drawn over the relators of
    DET_GROUPS."""
    yield from _spy_inputs()
    for n in (3, 7, 15):
        yield F.wirtinger_knot(F.torus_2n_pd(n))
    for g in (2, 3, 4):
        alphabet = make_alphabet("abcd"[:g])
        for length in (1, 1, 2, 3, 5, 6):
            yield E.SuturedInput(alphabet, (), tuple(_handlebody_words(rng, g, length)))
    for names, relators, _ in DET_GROUPS:
        alphabet = make_alphabet(names)
        rels = tuple(Word(tuple(r)) for r in relators)[:len(names) - 1]
        for _ in range(6):
            yield E.SuturedInput(alphabet, rels,
                                 tuple(_random_words(rng, len(names), len(names) - len(rels))))


def test_evaluation_check_counts_keys_as_the_legacy_comparison_decides():
    """evaluation_check decides passed by counting lhs's keys; that equals
    the legacy push-forward compared with +I_G and -I_G, and lhs equals that
    push-forward term for term and in order.  raw_det + 1 goes through the
    same comparison and fails wherever raw_det passes.  rhs is I_G, built on
    read, and EvalCheck equality does not depend on it."""
    rng = random.Random(41)
    seen = collections.Counter()
    for inp in _check_inputs(rng):
        res = E.torsion(inp)
        mutated = dataclasses.replace(res, raw_det=add(res.raw_det, one(res.H)))
        base_passed = None
        for r in (res, mutated):
            ev = E.evaluation_check(r.input, r)
            assert "rhs" not in ev.__dict__
            I_G = sum_of_all_elements(ev.G)
            legacy = legacy_groupring.push_forward(r.raw_det, r.rminus_projection)
            assert _same(ev.lhs, legacy)
            assert ev.passed == (equal(legacy, I_G) or equal(neg(legacy), I_G))
            assert ev.rhs == I_G and ev == E.evaluation_check(r.input, r)
            if r is res:
                base_passed = ev.passed
                seen["infinite" if ev.G.rank else "trivial" if not ev.G.torsion else "finite"] += 1
            else:
                assert not (base_passed and ev.passed)
            seen["passed" if ev.passed else "failed"] += 1
    assert min(seen.values()) >= 5 and set(seen) == {"infinite", "trivial", "finite", "passed",
                                                     "failed"}, seen


def test_rminus_projection_maps_every_word_in_one_dot_map(monkeypatch):
    """The R_- words' exponent sums are the columns of one dot_map call, not
    one call per word, and the projection equals the quotient by the word
    images one at a time."""
    dot_map = abelian.dot_map
    counts = []

    def counting(M, columns, count):
        counts.append(count)
        return dot_map(M, columns, count)

    for inp in _spy_inputs():
        res = E.torsion(inp)
        monkeypatch.setattr(abelian, "dot_map", counting)
        counts.clear()
        proj = res.rminus_projection
        assert counts == [len(inp.rminus)]
        monkeypatch.undo()
        words = [word_images(res.abelianization, [w])[0] for w in res.input.rminus]
        assert proj == quotient(res.H, words)


def test_equal_compares_packed_keys_without_decoding(monkeypatch):
    """equal on two packed elements decodes nothing: under codecs of one
    width it compares the key dicts, otherwise it encodes the narrower
    one's coordinates in the wider codec.  Its answer is the comparison of
    the decoded terms.  (normalize returns 0 as it is, so a 0 read from
    records stays decoded and is left out.)"""
    rng = random.Random(43)
    cases = []
    for det in _determinants(rng):
        if not det:
            continue
        canonical = normalize(det)
        read = normalize(from_records(to_records(canonical)))
        pk, keys = canonical.packed
        k0 = next(iter(keys))
        changed = [GroupRingElement(det.group, packed=(pk, x)) for x in (
            dict(keys), {**keys, k0: keys[k0] + 1}, {k: c for k, c in keys.items() if k != k0})]
        cases += [(det, canonical), (canonical, read), (read, canonical)]
        cases += [(x, y) for x in changed for y in (canonical, read)]
    decoded = _count_decodes(monkeypatch)
    answers = [equal(p, q) for p, q in cases]
    assert decoded == []
    monkeypatch.undo()
    seen = collections.Counter()
    for (p, q), answer in zip(cases, answers):
        assert answer == (p.terms == q.terms) == (p == q)
        same = p.packed[0].width == q.packed[0].width
        seen[("same width" if same else "other width", answer)] += 1
    assert len(seen) == 4 and min(seen.values()) >= 5, seen


def test_batch_decodes_each_tau_once_and_no_expected_tau(monkeypatch, tmp_path):
    """sutor batch compares each result with its expected tau on packed keys
    and formats tau from its keys, so no entry decodes a term."""
    entries, sizes = [], []
    for i, inp in enumerate(_spy_inputs()):
        path = tmp_path / f"in{i}.json"
        E.dump_input(inp, str(path))
        tau = E.torsion(inp).tau
        entries.append({"path": str(path), "expected_tau": to_records(tau)})
        sizes.append(len(tau.terms))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    decoded = _count_decodes(monkeypatch)
    assert main(["batch", str(manifest)]) == 0
    assert all(sizes) and decoded == []


def _same_packed(p: GroupRingElement, q: GroupRingElement) -> bool:
    """The same codec width and bound, and the same keys in the same order."""
    (pk, a), (qk, b) = p.packed, q.packed
    return (p.group == q.group and (pk.width, pk.bound) == (qk.width, qk.bound)
            and list(a.items()) == list(b.items()))


@pytest.mark.parametrize("names, relators", PRESENTATIONS + [DET_GROUPS[3][:2]])
def test_helpers_and_writers_on_keys_match_the_per_term_legacy(monkeypatch, names, relators):
    """add, neg, scalar_mul, mul, GRMatrix.from_rows, to_records and
    format_element on packed keys against their per-term legacy versions,
    over every group of GROUPS and over Z^0: random elements built from
    terms, Fox determinants under the Fox matrix's wider codec, the same
    determinants read back from records, and zero.  None of them decodes a
    term of a packed operand.  mul and from_rows keep the legacy codecs and
    keys; add keeps the wider operand codec, neg and scalar_mul the
    operand's, with the legacy terms in the legacy order."""
    alphabet = make_alphabet(names)
    ab = abelianize(alphabet, [Word(tuple(r)) for r in relators])
    G = ab.group
    rng = random.Random("keys " + G.describe())
    dets = [determinant(fox_matrix(alphabet, _random_words(rng, len(names), len(names)), ab))
            for _ in range(6)]
    read = [from_records(to_records(d)) for d in dets]
    made = [_random_element(rng, G, terms=5) for _ in range(6)] + dets + read + [zero(G)]
    assert not any("terms" in p.__dict__ for p in dets + read)
    var = [f"x{i + 1}" for i in range(G.rank)]
    pairs = [(p, q) for p in made for q in made  # products of up to 2,000 terms
             if len(p.packed[1]) * len(q.packed[1]) <= 2000]
    grids = [[[rng.choice(made) for _ in range(n)] for _ in range(n)]
             for n in (1, 2, 3, 3, 4) for _ in range(4)]
    decoded = _count_decodes(monkeypatch)
    unary = [(p, neg(p), [scalar_mul(k, p) for k in (0, 1, -3)], to_records(p),
              format_element(p, var)) for p in made]
    binary = [(add(p, q), mul(p, q)) for p, q in pairs]
    matrices = [GRMatrix.from_rows(grid) for grid in grids]
    assert decoded == []
    monkeypatch.undo()
    seen = collections.Counter()
    for p, n, scaled, records, text in unary:
        assert _same(n, legacy_groupring.neg(p)) and n.packed[0] is p.packed[0]
        for k, s in zip((0, 1, -3), scaled):
            assert _same(s, legacy_groupring.scalar_mul(k, p)) and s.packed[0] is p.packed[0]
        assert json.dumps(records) == json.dumps(legacy_groupring.to_records(p))
        assert text == legacy_groupring.format_element(p, var)
        seen["nonzero"] += bool(p)
    for (p, q), (s, m) in zip(pairs, binary):
        assert _same(s, legacy_groupring.add(p, q))
        assert s.packed[0].width == max(p.packed[0].width, q.packed[0].width)
        assert 2 ** (s.packed[0].width - 1) > 2 * _max_free(s.terms)
        assert _same_packed(m, legacy_groupring.mul(p, q))
        seen["other width" if p.packed[0].width != q.packed[0].width else "same width"] += 1
    for grid, A in zip(grids, matrices):
        L = legacy_groupring.from_rows(grid)
        assert (A.packing.width, A.packing.bound) == (L.packing.width, L.packing.bound)
        assert (A.rows, A.cols) == (L.rows, L.cols)
        # the same columns and the same keys, each in the same order
        assert [[(j, list(e.items())) for j, e in row.items()] for row in A.packed] == \
            [[(j, list(e.items())) for j, e in row.items()] for row in L.packed]
        assert A.entries == L.entries
    # on Z^b, b > 0, the Fox codec is wider than a codec of terms; with no
    # free coordinate every codec of G has one width
    assert seen["nonzero"] >= 12 and seen["same width"] >= 50, seen
    assert seen["other width"] >= 50 if G.rank else not seen["other width"], seen


def test_codec_constants_equal_the_sums_of_shifted_digits():
    """_Packing builds its free-digit offset and its torsion divisors as one
    binary numeral each; they equal the sums of shifted digits they
    replaced, on seeded groups of rank 0-8 with torsion and bounds of up to
    80 bits."""
    rng = random.Random(53)
    for _ in range(300):
        torsion = []
        for _ in range(rng.randint(0, 3)):
            torsion.append(torsion[-1] * rng.randint(1, 5) if torsion else rng.randint(2, 9))
        G = AbelianGroup(rng.randint(0, 8), tuple(torsion))
        pk = _Packing(G, rng.choice((0, 1, rng.randint(2, 99), rng.getrandbits(80))))
        assert pk._offset == sum(pk._half << s for s in pk.free_shifts)
        assert pk._divisors == sum(d << s for s, d in pk.torsion)


def _monomial(rng, G):
    h = AbElement(tuple(rng.randint(-3, 3) for _ in range(G.rank)),
                  tuple(rng.randrange(d) for d in G.torsion))
    return element(G, {h: rng.choice((1, -1, 2))})


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_cofactor_with_singleton_lines_matches_legacy(G):
    """Random sparse matrices, some of whose rows and columns hold one
    nonzero entry: peeling those lines gives the legacy expansion's terms
    in the legacy order."""
    rng = random.Random("peel " + G.describe())
    empty = element(G, {})
    singletons = 0
    for _ in range(25):
        n = rng.randint(3, 7)
        rows = [[_random_element(rng, G) if rng.random() < 0.5 else empty for _ in range(n)]
                for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            j = rng.randrange(n)
            if rng.random() < 0.5:
                rows[i] = [_monomial(rng, G) if k == j else empty for k in range(n)]
            else:
                for k in range(n):
                    rows[k][i] = _monomial(rng, G) if k == j else empty
        A = GRMatrix.from_rows(rows)
        singletons += sum(sum(map(bool, row)) == 1 for row in rows)
        assert _same(_cofactor(A), legacy_groupring._cofactor(A))
    assert singletons > 25


def _identity_input(n):
    names = [f"a{i}" for i in range(1, n + 1)]
    return E.input_from_dict({"generators": names, "relators": [], "rminus": names})


class _CountingRows(list):
    """A matrix's rows that count every row read: each index, and each row
    an iteration yields."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


def test_cofactor_reads_each_row_of_the_identity_a_constant_number_of_times():
    """The n x n identity Fox matrix peels one singleton line at a time, so
    the expansion reads O(n) rows in all; the expansion it replaced recounted
    the nonzeros of every surviving line at each of its n levels."""
    for n in (50, 100, 200):
        inp = _identity_input(n)
        A = fox_matrix(inp.alphabet, list(inp.rminus), abelianize(inp.alphabet, ()))
        A.packed = rows = _CountingRows(A.packed)
        assert _cofactor(A).packed[1] == {0: 1}
        assert rows.reads <= 4 * n, (n, rows.reads)


def test_identity_presentation_of_1200_generators_under_the_default_recursion_limit():
    """The determinant and both identity checks of the 1200 x 1200 identity
    Fox matrix need no recursion; the recursive expansion failed here."""
    inp = _identity_input(1200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = E.torsion(inp)
        ev, au = E.evaluation_check(inp, res), E.augmentation_order_check(inp, res)
    finally:
        sys.setrecursionlimit(limit)
    assert res.H == AbelianGroup(1200) and res.tau.terms == {AbElement((0,) * 1200, ()): 1}
    assert ev.passed and au.passed and ev.G == AbelianGroup(0)


def test_fox_matrix_and_determinant_allocate_nothing_per_zero_entry():
    """The 1200 x 1200 identity Fox matrix has 1200 nonzero entries.  Built
    as sparse rows and taken through determinant, each stays under half a
    pointer per entry of the dense grid, which a list per row takes alone
    (8 bytes per entry)."""
    n = 1200
    inp = _identity_input(n)
    ab = abelianize(inp.alphabet, ())
    tracemalloc.start()
    try:
        A = fox_matrix(inp.alphabet, list(inp.rminus), ab)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        det = determinant(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert det.packed[1] == {0: 1} and "entries" not in A.__dict__
    assert max(built, peak) < 4 * n * n, (built, peak)


def test_bidiagonal_chain_of_1200_rows_reaches_the_cofactor_expansion():
    """Upper bidiagonal over Z^n, n = 1200: 2 x_i on the diagonal and 3 x_(i+1)
    above it.  No entry is a unit, so the front end takes no step, and the
    cofactor expansion meets a chain of n lines with one entry each: the
    last row, then the last row of its minor, and so on.  det = 2^n x_1 ...
    x_n, under the default recursion limit and within the block count.  The
    matrix is built as sparse rows on packed keys: through from_rows, 1.44
    million entries take seconds."""
    n = 1200
    G = AbelianGroup(n)
    pk = _Packing(G, 2 * n)  # the from_rows bound: 2 x rows x 1
    x = [1 << s for s in pk.shifts]
    packed = [{j: {x[j]: 2 if j == i else 3} for j in (i, i + 1) if j < n} for i in range(n)]
    assert sum(map(len, packed)) == 2 * n - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        dets = [determinant(GRMatrix(G, pk, packed, n)), _cofactor(GRMatrix(G, pk, packed, n))]
    finally:
        sys.setrecursionlimit(limit)
    for det in dets:
        assert det.packed[1] == {sum(x): 2 ** n}
