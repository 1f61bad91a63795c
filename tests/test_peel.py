"""The unit-pivot front end of groupring.determinant (_peel) against the
cofactor expansion and the Kronecker core that take what it leaves, and
against the oracles of families: each input goes through every path."""
import json
import random

import pytest

import legacy_canonical
import legacy_groupring
from legacy_groupring import _max_free, encode_terms
from legacy_abelian import ab_add, ab_scale
from sutor import engine as E
from sutor import families as F
from sutor import groupring
from sutor import words as W
from sutor.abelian import AbElement, AbelianGroup, abelianize, quotient
from sutor.fox import fox_matrix
from sutor.groupring import (
    GRMatrix,
    GroupRingElement,
    _cofactor,
    _kronecker,
    _Packing,
    _peel,
    add,
    determinant,
    element,
    equal,
    exact_div,
    monomial,
    mul,
    normalize,
    one,
    push_forward,
    sim_equal,
    zero,
)
from test_packing import GROUPS


def torus_link(n: int) -> E.SuturedInput:
    """The T(2, n) torus link for even n: generators a1..an, relators
    a_i a_(i-1) a_i^-1 a_(i+1)^-1 for i = 1..n-1 (indices mod n), R_- word
    a1.  H = Z^2: the odd and the even generators go to the meridians of the
    two components."""
    names = [f"a{i}" for i in range(1, n + 1)]
    relators = [f"a{i} a{(i - 2) % n + 1} a{i}^-1 a{i % n + 1}^-1" for i in range(1, n)]
    return E.input_from_dict({"generators": names, "relators": relators, "rminus": ["a1"]})


def torus_link_expected(H: AbelianGroup, t1: AbElement, t2: AbElement, n: int):
    """(1 - t1)(1 + t1 t2 + ... + (t1 t2)^(n/2 - 1)), the tau observed for
    torus_link(n); test_torus_link_meets_torres checks it before any other
    test uses it as an oracle."""
    t12 = ab_add(H, t1, t2)
    run = element(H, {ab_scale(H, t12, i): 1 for i in range(n // 2)})
    return mul(add(one(H), monomial(H, t1, -1)), run)


def _fox(inp: E.SuturedInput) -> GRMatrix:
    ab = abelianize(inp.alphabet, inp.relators)
    return fox_matrix(inp.alphabet, list(inp.relators) + list(inp.rminus), ab)


def _every_path(A: GRMatrix) -> GroupRingElement:
    """det A by determinant, equal to _cofactor on the whole matrix and, when
    H has one generator at most, to the Kronecker core on the whole matrix;
    normalize puts its keys in ascending order."""
    det = determinant(A)
    keys = list(normalize(det).packed[1])
    assert keys == sorted(keys)
    assert equal(det, _cofactor(A))
    G = A.group
    if G.rank + len(G.torsion) <= 1 and A.rows > 1:
        core = _kronecker(G, A.packed)
        assert equal(det, GroupRingElement(G, packed=(A.packing, core)))
    return det


def test_front_end_matches_cofactor_and_kronecker_on_the_seed_1_corpora(monkeypatch):
    from perfbench import corpus

    peeled = []
    peel = groupring._peel

    def spy(rows, pk, work):
        peeled.append(len(rows))
        return peel(rows, pk, work)

    monkeypatch.setattr(groupring, "_peel", spy)
    for workload in ("knots", "surfaces", "polytope"):
        for case in corpus.build(workload, 1):
            A = _fox(E.input_from_dict(json.loads(case.text)))
            _every_path(A)
    assert len(peeled) >= 100  # the gate lets the knots through


def _ordered(core):
    """The core rows as lists, so that == compares the order of columns and
    of keys too."""
    return [[(j, list(e.items())) for j, e in row.items()] for row in core]


def test_front_end_matches_the_legacy_front_end(monkeypatch):
    """_peel, which reads the pivot column in one loop, against
    legacy_groupring._peel, which built the column, its units and the rows
    below as three lists: the same core (rows, columns and keys in the same
    order), sign, shift and work count on every matrix the front end gets
    from the seed-1 corpora, T(2, n) for odd n <= 61, the torus links and
    random matrices over every group, and on T(2, 31) with a budget that
    stops the front end partway."""
    from perfbench import corpus

    peel, cores = groupring._peel, []

    def both(rows, pk, work):
        old = legacy_groupring._peel([dict(row) for row in rows], pk, work)
        new = peel(rows, pk, work)
        assert (_ordered(new[0]),) + new[1:] == (_ordered(old[0]),) + old[1:]
        cores.append(len(new[0]))
        return new

    monkeypatch.setattr(groupring, "_peel", both)
    for workload in ("knots", "surfaces", "polytope"):
        for case in corpus.build(workload, 1):
            determinant(_fox(E.input_from_dict(json.loads(case.text))))
    for n in range(3, 62, 2):
        determinant(_fox(F.wirtinger_knot(F.torus_2n_pd(n))))
    for n in (4, 6, 8, 16, 64, 200, 256):
        determinant(_fox(torus_link(n)))
    rng = random.Random("legacy front end")
    for G in GROUPS:
        for _ in range(10):
            n = rng.randint(5, 8)
            determinant(GRMatrix.from_rows([[_entry(rng, G) for _ in range(n)]
                                            for _ in range(n)]))
    assert len(cores) >= 150 and max(cores) > 1
    cores.clear()
    monkeypatch.setattr(W, "WORK_BUDGET", 400)
    determinant(_fox(F.wirtinger_knot(F.torus_2n_pd(31))))
    assert len(cores) == 1 and 4 <= cores[0] < 31


def _seifert_form(V):
    """V - t V^T over Z[t^+-1], whose determinant is the Alexander
    polynomial (families.alexander_from_seifert)."""
    Z = AbelianGroup(1)
    t, origin = AbElement((1,), ()), AbElement((0,), ())
    return GRMatrix.from_rows([[add(element(Z, {origin: V[i][j]}), monomial(Z, t, -V[j][i]))
                                for j in range(len(V))] for i in range(len(V))])


def test_front_end_on_torus_knots_and_seifert_matrices():
    for n in range(3, 62, 2):
        assert sim_equal(_every_path(_fox(F.wirtinger_knot(F.torus_2n_pd(n)))),
                         F.torus_2n_expected(n)), n
        # -1 on the diagonal and 1 above it: a Seifert matrix of T(2, n)
        V = [[-1 if i == j else int(j == i + 1) for j in range(n - 1)] for i in range(n - 1)]
        det = _every_path(_seifert_form(V))
        assert sim_equal(det, F.torus_2n_expected(n)) and equal(det, F.alexander_from_seifert(V))
    rng = random.Random(61)
    for _ in range(30):
        g = rng.randint(5, 7)
        V = [[rng.choice((-1, 0, 0, 1)) for _ in range(g)] for _ in range(g)]
        assert equal(_every_path(_seifert_form(V)), F.alexander_from_seifert(V))


@pytest.mark.parametrize("cf", [[2, 4, 2, 6, 2], [4, 2, 2, 4, 2, 2, 6]])
def test_front_end_on_two_bridge_bands(cf):
    """One band per term of the continued fraction: generator a_i and R_-
    word a_i^(c_i / 2), whose torsion two_bridge_expected gives; c_i = 2 is a
    unit on the diagonal."""
    names = [f"a{i}" for i in range(1, len(cf) + 1)]
    A = _fox(E.input_from_dict({"generators": names, "relators": [],
                                "rminus": [f"{a}^{c // 2}" for a, c in zip(names, cf)]}))
    assert sim_equal(_every_path(A), F.two_bridge_expected(cf))


@pytest.mark.parametrize("seed", [103, 104, 105])
def test_front_end_on_handlebodies(seed):
    from perfbench import corpus

    for g in (3, 4, 5, 6):
        words = corpus.handlebody_words(random.Random(seed), g, 12)
        inp = E.SuturedInput(W.make_alphabet("abcdef"[:g]), (),
                             tuple(W.free_reduce(w) for w in words))
        A = _fox(inp)
        assert equal(_every_path(A), legacy_groupring._cofactor(A))


def _entry(rng, G, density=0.5):
    """Zero, a unit +-h, a monomial 2h, or two or three terms."""
    r = rng.random()
    if r >= density:
        return zero(G)
    terms = {}
    for _ in range(1 if r < density * 0.6 else rng.randint(2, 3)):
        h = AbElement(tuple(rng.randint(-2, 2) for _ in range(G.rank)),
                      tuple(rng.randrange(d) for d in G.torsion))
        terms[h] = rng.choice((1, -1, 1, -1, 2))
    return element(G, terms)


@pytest.mark.parametrize("G", GROUPS + [AbelianGroup(1), AbelianGroup(0), AbelianGroup(0, (5,))],
                         ids=lambda G: G.describe())
def test_front_end_over_every_group(G):
    rng = random.Random("front end " + G.describe())
    for _ in range(25):
        n = rng.randint(5, 8)
        A = GRMatrix.from_rows([[_entry(rng, G) for _ in range(n)] for _ in range(n)])
        assert equal(_every_path(A), legacy_groupring._cofactor(A))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_front_end_at_the_codec_bound(G):
    """Lower triangular, with units at the corner h = (s, ..., s) on the
    diagonal: det is one term with every free coordinate at rows * s, half
    the codec's bound.  With x^s - x^-s, x = (1, ..., 1), at every other
    diagonal place, det spans the free coordinates from (u - m) s to
    (u + m) s for u units and m binomials, and normalize shifts its terms
    to 0 .. 2 m s.  The front end works in the matrix's codec."""
    rng = random.Random(7)
    for n, s in ((5, 3), (6, -3), (8, 3)):
        corner = AbElement((s,) * G.rank, tuple(d - 1 for d in G.torsion))
        A = GRMatrix.from_rows([
            [element(G, {corner: rng.choice((1, -1))}) if i == j
             else _entry(rng, G) if j < i else zero(G)
             for j in range(n)] for i in range(n)])
        det = _every_path(A)
        assert equal(det, legacy_groupring._cofactor(A))
        assert [h.free for h in det.terms] == [(n * s,) * G.rank]
        x = [AbElement((v,) * G.rank, tuple(d - 1 for d in G.torsion)) for v in (s, -s)]
        B = GRMatrix.from_rows([
            [(element(G, {corner: 1}) if i % 2 else element(G, {x[0]: 1, x[1]: -1})) if i == j
             else _entry(rng, G) if j < i else zero(G)
             for j in range(n)] for i in range(n)])
        det = _every_path(B)
        assert equal(det, legacy_groupring._cofactor(B))
        canonical = normalize(det)
        assert canonical.packed[0] is B.packing
        assert equal(canonical, legacy_canonical.normalize(det))
        top = max(h.free for h in canonical.terms)
        assert top == (2 * ((n + 1) // 2) * abs(s),) * G.rank


def _narrow(G: AbelianGroup, rows):
    """The matrix of the rows' entries under a codec only just wide enough
    for them and for their determinant, that determinant by _cofactor
    under the codec of from_rows, and whether a Schur sum of the front end
    leaves the narrow codec's half-range: read off the core the front end
    leaves under a codec of 3 x the from_rows bound, which holds every such
    sum."""
    A = GRMatrix.from_rows(rows)
    det = _cofactor(A)
    pk = _Packing(G, max(_max_free(h for row in rows for e in row for h in e.terms),
                         _max_free(det.terms)))
    wide = _Packing(G, 3 * A.packing.bound)
    core = _peel(_encoded(wide, rows), wide, 0)[0]
    past = any(abs(x) >= 1 << (pk.width - 1) for row in core for e in row.values()
               for h in wide.decode_terms(e) for x in h.free)
    return GRMatrix(G, pk, _encoded(pk, rows), len(rows)), det, past


def _encoded(pk: _Packing, rows):
    """The sparse rows of the entries' terms under pk: {column: keys} over
    the nonzero entries."""
    return [{j: encode_terms(pk, e.terms) for j, e in enumerate(row) if e} for row in rows]


@pytest.mark.parametrize("G", [AbelianGroup(2), AbelianGroup(3), AbelianGroup(1, (2,)),
                               AbelianGroup(2, (3,))], ids=lambda G: G.describe())
def test_front_end_sums_past_the_codec_range(G):
    """Packed-key addition (with fold on the torsion digits) is a group
    homomorphism, so the front end is exact in a codec that holds the
    entries and det but not the sums a Schur step forms.  On diag(B, 1, 1,
    1) with B = [[y^-3, y^3], [y^3, 1 + x]] (x, y the first and the last
    free generator) the pivot y^-3 leaves the core
    1 + x - y^9, past the half-range 8 of a codec for |coordinates| up to
    6, while det = y^-3 (1 + x) - y^6 is inside it.  Seeded random
    matrices with scaled coordinates must match _cofactor too, and the
    cores of some of them must leave the range as well."""
    def mono(i, v):  # {x_i^v: 1}
        return {AbElement(tuple(v * (k == i) for k in range(G.rank)), (0,) * len(G.torsion)): 1}

    y = G.rank - 1  # y = x on Z + Z/2
    B = [[mono(y, -3), mono(y, 3)], [mono(y, 3), {**mono(0, 0), **mono(0, 1)}]]
    rows = [[element(G, B[i][j]) if i < 2 and j < 2 else one(G) if i == j else zero(G)
             for j in range(5)] for i in range(5)]
    N, det, past = _narrow(G, rows)
    assert (N.packing.bound, N.packing.width, past) == (6, 4, True)
    assert N.packing.decode_terms(determinant(N).packed[1]) == det.terms
    rng = random.Random("narrow " + G.describe())
    outside = 0
    for _ in range(60):
        n, s = rng.randint(5, 7), rng.choice((2, 3, 5))
        rows = [[element(G, {AbElement(tuple(s * x for x in h.free), h.tor): c
                             for h, c in _entry(rng, G, 0.6).terms.items()})
                 for _ in range(n)] for _ in range(n)]
        N, det, past = _narrow(G, rows)
        outside += past
        assert N.packing.decode_terms(determinant(N).packed[1]) == det.terms
    assert outside >= 2


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_torus_link_meets_torres(n):
    """tau = (1 - t1) Delta, and by the Torres formula Delta(x, 1) = (x^lk -
    1)/(x - 1) Delta_O(x) = 1 + x + ... + x^(n/2 - 1): both components are
    unknots and lk = n/2.  Only then is the closed form an oracle."""
    res = E.torsion(torus_link(n))
    H, t1, t2 = res.H, res.gen_map[0], res.gen_map[1]
    assert H == AbelianGroup(2) and res.gen_map[2] == t1 and res.gen_map[3] == t2
    delta = exact_div(res.tau, add(one(H), monomial(H, t1, -1)))
    at_one = quotient(H, [t2])
    x = at_one(t1)
    torres = element(at_one.target, {ab_scale(at_one.target, x, i): 1 for i in range(n // 2)})
    assert sim_equal(push_forward(delta, at_one), torres)
    assert sim_equal(res.tau, torus_link_expected(H, t1, t2, n))
    assert equal(_every_path(_fox(torus_link(n))), res.raw_det)


def test_torus_links_past_the_cofactor_budget():
    """At n = 200 and 256 _cofactor alone is refused by WORK_BUDGET; the
    front end leaves a core of at most one row."""
    for n in (64, 200, 256):
        res = E.torsion(torus_link(n))
        H, t1, t2 = res.H, res.gen_map[0], res.gen_map[1]
        assert sim_equal(res.tau, torus_link_expected(H, t1, t2, n)), n
        assert len(res.tau.terms) == n


def test_front_end_counts_its_term_products(monkeypatch):
    """A Schur step counts len(A_iq) x len(A_pj) products before it makes
    them.  On one variable, a step past WORK_BUDGET ends the front end and
    the Kronecker core takes the rest; on other H, _cofactor goes on from
    the front end's count."""
    A = _fox(F.wirtinger_knot(F.torus_2n_pd(31)))
    whole = determinant(A)
    cores = []
    det_sparse = groupring.det_sparse

    def spy(rows):
        cores.append(len(rows))
        return det_sparse(rows)

    monkeypatch.setattr(groupring, "det_sparse", spy)
    assert equal(determinant(A), whole) and cores == []  # peeled to one row
    monkeypatch.setattr(W, "WORK_BUDGET", 400)
    assert equal(determinant(A), whole) and len(cores) == 1 and 4 <= cores[0] < 31

    B = _fox(torus_link(16))
    continued = []
    cofactor = groupring._cofactor

    def cofactor_spy(M, work=0):
        continued.append(work)
        return cofactor(M, work)

    monkeypatch.setattr(groupring, "_cofactor", cofactor_spy)
    monkeypatch.setattr(W, "WORK_BUDGET", 60)
    with pytest.raises(ValueError, match="term products is over the work budget of 60"):
        determinant(B)
    assert continued and 0 < continued[0] <= 60
