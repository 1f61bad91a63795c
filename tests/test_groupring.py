import collections
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import legacy_canonical
import legacy_groupring
from sutor import groupring
from sutor.abelian import AbElement, AbelianGroup, quotient, zero_element
from sutor.groupring import (
    GRMatrix,
    GroupMismatchError,
    GroupRingElement,
    NotDivisibleError,
    UnsupportedTorsionError,
    _cofactor,
    _kronecker,
    add,
    augmentation,
    determinant,
    element,
    equal,
    exact_div,
    external_product,
    from_records,
    monomial,
    mul,
    neg,
    normalize,
    one,
    scalar_mul,
    sim_equal,
    sorted_columns,
    sum_of_all_elements,
    to_records,
    zero,
)

Z = AbelianGroup(1)
Z2 = AbelianGroup(2)


def t(k, c=1):
    return monomial(Z, AbElement((k,), ()), c)


def poly(*pairs):
    return element(Z, {AbElement((k,), ()): c for k, c in pairs})


def test_ring_axioms_on_examples():
    p = poly((0, 1), (1, 2))
    q = poly((0, -1), (2, 3))
    assert equal(add(p, q), poly((1, 2), (2, 3)))
    assert equal(p + q, add(p, q))
    assert equal(p - p, zero(Z))
    assert equal(neg(p), -p)
    assert equal(mul(p, q), mul(q, p))
    assert equal(p * one(Z), p)
    assert equal(2 * p, poly((0, 2), (1, 4)))
    assert equal(scalar_mul(0, p), zero(Z))


def test_mul_collects_and_drops_zeros():
    # (1 - t)(1 + t) = 1 - t^2
    assert equal(mul(poly((0, 1), (1, -1)), poly((0, 1), (1, 1))), poly((0, 1), (2, -1)))


def test_group_mismatch():
    with pytest.raises(GroupMismatchError):
        add(one(Z), one(Z2))
    with pytest.raises(GroupMismatchError, match="different groups"):
        GRMatrix.from_rows([[one(Z), one(Z2)]])
    with pytest.raises(GroupMismatchError, match="projection source"):
        groupring.push_forward(one(Z), quotient(Z2, []))


def test_augmentation_is_ring_hom():
    p = poly((0, 2), (3, -5))
    q = poly((-1, 1), (1, 1))
    assert augmentation(p) == -3
    assert augmentation(mul(p, q)) == augmentation(p) * augmentation(q)
    assert augmentation(add(p, q)) == augmentation(p) + augmentation(q)


def test_exact_div_basics():
    num = poly((0, -1), (2, 1))  # t^2 - 1
    den = poly((0, -1), (1, 1))  # t - 1
    assert equal(exact_div(num, den), poly((0, 1), (1, 1)))
    # Laurent offsets are preserved
    num2 = mul(t(-3), num)
    assert equal(exact_div(num2, den), mul(t(-3), poly((0, 1), (1, 1))))
    assert equal(exact_div(zero(Z), den), zero(Z))


def test_exact_div_failures():
    with pytest.raises(NotDivisibleError):
        exact_div(poly((0, 1), (1, 1)), poly((0, 2)))
    with pytest.raises(NotDivisibleError):
        exact_div(poly((0, 1), (1, 1)), poly((0, 1), (2, 1)))
    with pytest.raises(ZeroDivisionError):
        exact_div(one(Z), zero(Z))
    T = AbelianGroup(0, (2,))
    with pytest.raises(UnsupportedTorsionError):
        exact_div(one(T), one(T))


def test_exact_div_multivariate():
    x = monomial(Z2, AbElement((1, 0), ()))
    y = monomial(Z2, AbElement((0, 1), ()))
    p = (one(Z2) + x) * (one(Z2) - y) * (x + y)
    assert equal(exact_div(p, one(Z2) + x), (one(Z2) - y) * (x + y))
    assert equal(exact_div(p, x + y), (one(Z2) + x) * (one(Z2) - y))


def _laurent(rank):
    return st.dictionaries(st.tuples(*[st.integers(-3, 3)] * rank),
                           st.integers(-4, 4).filter(bool), max_size=5)


def _element(G, d):
    return element(G, {AbElement(k, ()): c for k, c in d.items()})


def _divide(div, p, q):
    """div(p, q), or NotDivisibleError when it raises that."""
    try:
        return div(p, q)
    except NotDivisibleError:
        return NotDivisibleError


@given(st.sampled_from([0, 1, 2, 3]).flatmap(
    lambda b: st.tuples(st.just(AbelianGroup(b)), _laurent(b), _laurent(b), _laurent(b))))
@settings(deadline=None, max_examples=300)
def test_exact_div_matches_legacy(case):
    """The division on packed keys against the graded-lex division on
    decoded terms it replaced (tests/legacy_groupring.py), over Z^0 to Z^3:
    a product f * q divides back to f, zero numerator included, and f
    reaches every side of the quotient box in every coordinate; f * q plus
    a perturbation r gives the same quotient, or NotDivisibleError, in both."""
    G, f, q, r = case
    f, q, r = _element(G, f), _element(G, q), _element(G, r)
    if not q:
        with pytest.raises(ZeroDivisionError):
            exact_div(f, q)
        return
    p = mul(f, q)
    assert equal(exact_div(p, q), f) and equal(legacy_groupring.exact_div(p, q), f)
    if f:
        cols = [groupring.sorted_columns(x)[0] for x in (f, p, q)]
        for fi, pi, qi in zip(*cols):
            assert (min(fi), max(fi)) == (min(pi) - min(qi), max(pi) - max(qi))
    p = add(p, r)
    new, old = _divide(exact_div, p, q), _divide(legacy_groupring.exact_div, p, q)
    assert new is old is NotDivisibleError or equal(new, old)


def test_exact_div_rank_zero_and_box_sides():
    """Over Z^0 division is integer division.  Over Z^2, three pairs whose
    second candidate leaves the box, each through another side: below it in
    x, below it in y and above it in y (in x the first candidate is the top
    of the box, and later ones are lex smaller).  Both divisions refuse them."""
    Z0 = AbelianGroup(0)
    assert equal(exact_div(one(Z0) * 6, one(Z0) * -3), one(Z0) * -2)
    with pytest.raises(NotDivisibleError):
        exact_div(one(Z0) * 5, one(Z0) * 3)

    def z2(*terms):
        return element(Z2, {AbElement(h, ()): c for h, c in terms})

    for p, q in [(z2(((0, 0), 1), ((1, 0), -1)), z2(((0, 1), 1), ((1, 1), 1))),  # x low
                 (z2(((-1, -1), -1), ((1, 0), 1)), z2(((0, -1), -1), ((1, 0), -1))),  # y low
                 (z2(((-1, 0), 1), ((1, -1), -1)), z2(((0, 0), -1), ((1, -1), 1)))]:  # y high
        for div in (exact_div, legacy_groupring.exact_div):
            with pytest.raises(NotDivisibleError):
                div(p, q)


def test_exact_div_wide_box_ends_fast():
    """(1 + x^M y^M) / (1 - x^-1 y), M = 10^9: the box is [1, M] x [0, M - 1]
    and the first candidate x^M y^M lies above it in y, so the division
    raises at once.  Lex order is no well-order on Z^2: past the box, the
    candidates x^(M-k) y^(M+k) would go on descending (and the graded-lex
    division of the old code walks M steps)."""
    M = 10 ** 9
    p = add(one(Z2), monomial(Z2, AbElement((M, M), ())))
    q = add(one(Z2), monomial(Z2, AbElement((-1, 1), ()), -1))
    start = time.perf_counter()
    with pytest.raises(NotDivisibleError):
        exact_div(p, q)
    assert time.perf_counter() - start < 1.0


def test_term_constructor_refuses_coordinates_outside_the_group():
    """A term with another coordinate count, or a torsion coordinate outside
    [0, d), is refused.  Let through, s^5 in Z/3 packed to a key of its own,
    unequal to s^2, and to_records wrote tor 5 and 7 for s^5 + s^-1."""
    Z3 = AbelianGroup(0, (3,))
    for h in (AbElement((), (5,)), AbElement((), (-1,)), AbElement((), (3,)),
              AbElement((1,), (0,)), AbElement((), ()), AbElement((), (0, 0))):
        with pytest.raises(ValueError, match="term coordinates"):
            monomial(Z3, h)
    with pytest.raises(ValueError):
        GroupRingElement(Z3, {AbElement((), (2,)): 1, AbElement((), (5,)): 1})
    for h in (AbElement((1,), ()), AbElement((1, 0, 5), ()), AbElement((1, 0), (5,))):
        with pytest.raises(ValueError):
            element(Z2, {h: 1})
    assert to_records(monomial(Z3, AbElement((), (2,))))["terms"] == [
        {"coeff": 1, "free": [], "tor": [2]}]
    assert equal(GroupRingElement(Z3, {}), zero(Z3))


def test_normalize_picks_orbit_representative():
    p = poly((2, -1), (3, 1))  # t^3 - t^2 ~ t - 1 ~ 1 - t
    n = normalize(p)
    assert equal(n, poly((0, 1), (1, -1)))
    assert equal(normalize(n), n)
    assert equal(normalize(neg(p)), n)
    assert equal(normalize(mul(t(-5), p)), n)


def test_normalize_with_torsion_translates():
    G = AbelianGroup(0, (3,))
    s = monomial(G, AbElement((), (1,)))
    p = add(one(G), scalar_mul(2, s))
    for k in range(3):
        shifted = mul(monomial(G, AbElement((), (k,))), p)
        assert equal(normalize(shifted), normalize(p))
        assert equal(normalize(neg(shifted)), normalize(p))


def _random_element(rng, G):
    """Up to 8 terms with free coordinates in [-1, 1], so that several
    support points often share the least free part."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        h = AbElement(tuple(rng.randint(-1, 1) for _ in range(G.rank)),
                      tuple(rng.randrange(d) for d in G.torsion))
        terms[h] = rng.choice([-3, -2, -1, 1, 2, 3])
    return element(G, terms)


@pytest.mark.parametrize("G", [
    AbelianGroup(0, (2,)), AbelianGroup(0, (6,)), AbelianGroup(0, (2, 4)),
    AbelianGroup(0, (3, 3)), Z, Z2, AbelianGroup(1, (2,)), AbelianGroup(1, (6,)),
    AbelianGroup(2, (2, 4)), AbelianGroup(1, (3, 3)),
], ids=str)
def test_normalize_matches_exhaustive_shift_search(G):
    rng = random.Random(G.rank * 100 + sum(G.torsion))
    negative_lead = ties = 0
    for _ in range(150):
        p = _random_element(rng, G)
        low = min(h.free for h in p.terms)
        ties += sum(h.free == low for h in p.terms) > 1
        negative_lead += min(p.terms.items(), key=lambda t: (t[0].free, t[0].tor))[1] < 0
        assert equal(normalize(p), legacy_canonical.normalize(p)), p
    assert negative_lead
    assert ties or not G.torsion  # distinct points of Z^b have distinct free parts


def test_sim_equal():
    assert sim_equal(poly((0, 1), (1, 1)), mul(t(4), poly((0, 1), (1, 1))))
    assert sim_equal(poly((0, 1)), neg(poly((7, 1))))
    assert not sim_equal(poly((0, 1), (1, 1)), poly((0, 1), (1, -1)))
    assert not sim_equal(poly((0, 1), (1, 2)), poly((0, 2), (1, 1)))


def test_determinant_2x2():
    A = GRMatrix.from_rows([[t(1), one(Z)], [one(Z), t(1)]])
    assert equal(determinant(A), poly((2, 1), (0, -1)))
    with pytest.raises(ValueError):
        determinant(GRMatrix.from_rows([[one(Z), one(Z)]]))


def test_determinant_column_swap_antisymmetry():
    rows = [[t(1), t(2), one(Z)], [one(Z), t(-1), zero(Z)], [t(3), one(Z), t(1)]]
    A = GRMatrix.from_rows(rows)
    B = GRMatrix.from_rows([[r[1], r[0], r[2]] for r in rows])
    assert equal(determinant(B), neg(determinant(A)))


def _leibniz(A):
    """Independent oracle: the signed sum over all permutations."""
    n = A.rows
    acc = zero(A.group)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = one(A.group)
        for i in range(n):
            term = mul(term, A.entries[i][perm[i]])
        acc = add(acc, neg(term) if inversions % 2 else term)
    return acc


@pytest.mark.parametrize(
    "G", [Z2, AbelianGroup(1, (3,)), AbelianGroup(0), Z, AbelianGroup(0, (6,))],
    ids=["Z^2", "Z x Z/3", "1", "Z", "Z/6"])
def test_determinant_matches_leibniz(G):
    rng = random.Random(31)

    def entry(density):
        if rng.random() >= density:
            return zero(G)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            h = AbElement(tuple(rng.randint(-2, 2) for _ in range(G.rank)),
                          tuple(rng.randrange(d) for d in G.torsion))
            terms[h] = rng.choice([-2, -1, 1, 2])
        return element(G, terms)

    column_cases = 0
    for n in range(1, 6):
        for trial in range(8):
            rows = [[entry(0.5) for _ in range(n)] for _ in range(n)]
            if n >= 3 and trial % 2:
                # dense rows, one column with a single entry: a column is the sparsest line
                rows = [[entry(1.0) for _ in range(n)] for _ in range(n)]
                c, keep = rng.randrange(n), rng.randrange(n)
                for r in range(n):
                    if r != keep:
                        rows[r][c] = zero(G)
                row_nz = min(sum(1 for e in row if e) for row in rows)
                col_nz = min(sum(1 for row in rows if row[j]) for j in range(n))
                assert col_nz < row_nz
                column_cases += 1
            A = GRMatrix.from_rows(rows)
            assert equal(determinant(A), _leibniz(A)), (n, trial)
    assert column_cases == 12


def _cyclic(G, x):
    """t^x in Z[G] for G = 1, Z or Z/d."""
    return AbElement((x,) * G.rank, tuple(x % d for d in G.torsion))


@pytest.mark.parametrize(
    "G", [AbelianGroup(0), Z, AbelianGroup(0, (2,)), AbelianGroup(0, (6,))],
    ids=["1", "Z", "Z/2", "Z/6"])
def test_one_variable_determinant_matches_cofactor(G, monkeypatch):
    """The Kronecker/Bareiss path for H with at most one generator against
    the cofactor expansion that every other H still uses.  A matrix of 3 or
    4 rows takes that path whole: one det_sparse call unless a row is zero,
    and a 2-row matrix whose products fit is a*d - b*c, with none.  From 5
    rows on the unit-pivot front end may go first, and what is left makes at
    most one call.  normalize puts every result in ascending key order."""
    rng = random.Random(53)
    seen = collections.Counter()
    det_sparse = groupring.det_sparse

    def spy(rows):
        seen["det_sparse"] += 1
        if 0 not in rows[0] and any(0 in r for r in rows):
            seen["leading_swap"] += 1
        return det_sparse(rows)

    monkeypatch.setattr(groupring, "det_sparse", spy)

    def entry(density, cmax):
        if rng.random() >= density:
            return zero(G)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            x = rng.randint(-3, 3)
            seen["negative_exponent"] += x < 0 and G.rank == 1
            terms[_cyclic(G, x)] = rng.choice([-1, 1]) * rng.randint(1, cmax)
        return element(G, terms)

    widest = 0
    for n in range(2, 11):
        for trial in range(6):
            cmax = 1000 if trial % 2 else 2
            rows = [[entry(0.45, cmax) for _ in range(n)] for _ in range(n)]
            if trial == 1:
                rows[rng.randrange(n)] = [zero(G)] * n
                seen["zero_row"] += 1
            elif trial == 2:
                rows[0][0] = zero(G)
                rows[rng.randrange(1, n)][0] = entry(1.0, cmax)
            A = GRMatrix.from_rows(rows)
            before = seen["det_sparse"]
            d = determinant(A)
            calls = seen["det_sparse"] - before
            if n == 2:
                assert calls == 0, (n, trial)
            elif n <= 4:
                assert calls == all(any(row) for row in rows), (n, trial)
            else:
                assert calls <= 1, (n, trial)
                seen["core_calls"] += calls
            assert equal(d, _cofactor(A)), (n, trial)
            keys = list(normalize(d).packed[1])
            assert keys == sorted(keys), (n, trial)
            seen["nonzero"] += bool(d)
            widest = max([widest] + [abs(c) for c in d.terms.values()])
    # Sylvester's 8x8 Hadamard matrix, entry (i, j) times t^(i+j): |det| is
    # the coefficient bound itself, 8^4 = 4096, at t^56
    H = [[1]]
    for _ in range(3):
        H = [r + r for r in H] + [r + [-x for x in r] for r in H]
    A = GRMatrix.from_rows([[monomial(G, _cyclic(G, i + j), H[i][j]) for j in range(8)]
                            for i in range(8)])
    assert equal(determinant(A), monomial(G, _cyclic(G, 56), 4096))
    assert equal(_cofactor(A), monomial(G, _cyclic(G, 56), 4096))
    # its entries are all units, so determinant peels it whole; the Kronecker
    # core, called on it directly, meets the coefficient bound at full width
    before = seen["det_sparse"]
    core = _kronecker(G, A.packed)
    assert equal(GroupRingElement(G, packed=(A.packing, core)), monomial(G, _cyclic(G, 56), 4096))
    assert seen["det_sparse"] == before + 1 and seen["core_calls"] > 0
    assert seen["leading_swap"] >= 6 and seen["zero_row"] == 9 and seen["nonzero"] >= 25
    assert (seen["negative_exponent"] > 0) == (G.rank == 1)
    assert widest > 10 ** 12  # many base-2^k digits wider than 40 bits


def test_one_variable_determinant_of_long_entries():
    """An entry with tens of thousands of terms, as the Fox derivative of a^N
    has, and a row spanning N degrees: packing and reading the digits stay
    near-linear in the degree."""
    N = 30001
    run = element(Z, {AbElement((x,), ()): 1 for x in range(N)})
    A = GRMatrix.from_rows([[run, t(5, 2)], [t(-N), poly((0, 1), (1, -1))]])
    assert equal(determinant(A), poly((0, 1), (N, -1), (5 - N, -2)))


def test_from_rows_rejects_ragged_rows():
    a = monomial(Z2, AbElement((1, 0), ()))
    b = monomial(Z2, AbElement((0, 1), ()))
    for rows in ([[a, b], [b, a, one(Z2)]], [[a, b], [b]]):
        with pytest.raises(ValueError, match="ragged rows"):
            GRMatrix.from_rows(rows)


SPARSE_GROUPS = [AbelianGroup(0), Z, AbelianGroup(0, (5,)), Z2, AbelianGroup(1, (3,))]


@pytest.mark.parametrize("G", SPARSE_GROUPS, ids=lambda G: G.describe())
def test_sparse_rows_keep_a_trailing_zero_column(G):
    """A GRMatrix row holds its nonzero entries only, so a last column of
    zeros is in no row: from_rows keeps cols from the grid, entries gives
    the grid back, and the same rows given cols give the same entries.  det
    is 0 on determinant, _cofactor and, on one variable, _kronecker, for
    matrices below the front end's 5 rows and for matrices it peels."""
    rng = random.Random("trailing " + G.describe())
    h = AbElement((1,) * G.rank, tuple(d - 1 for d in G.torsion))
    for n in (2, 3, 4, 5, 6, 8):
        grid = [[zero(G) if j == n - 1 else monomial(G, h, rng.choice((1, -1))) if j == i % (n - 1)
                 else rng.choice((zero(G), monomial(G, h, 2))) for j in range(n)] for i in range(n)]
        A = GRMatrix.from_rows(grid)
        assert (A.rows, A.cols) == (n, n) and all(A.packed)
        assert not any(n - 1 in row for row in A.packed)
        assert A.entries == tuple(map(tuple, grid))
        B = GRMatrix(G, A.packing, A.packed, A.cols)
        assert "entries" not in B.__dict__ and B.entries == A.entries and B == A
        assert all(len(row) == n and not row[-1] for row in B.entries)
        assert not determinant(A) and not _cofactor(A)
        if G.rank + len(G.torsion) <= 1:
            assert _kronecker(G, A.packed) == {}


def test_determinant_refuses_a_non_square_grid():
    """cols is the grid's width, also when its last columns are zero, so a
    matrix that is not square is refused whatever its rows hold; a 0 x 0
    matrix is refused too."""
    a, o = one(Z2), zero(Z2)
    for grid in ([[a, o, o], [a, a, o]], [[a, a], [a, o], [o, a]], [[o] * 3] * 2, [[a, o]]):
        A = GRMatrix.from_rows(grid)
        assert (A.rows, A.cols) == (len(grid), len(grid[0]))
        with pytest.raises(ValueError, match="non-square"):
            determinant(A)
    with pytest.raises(ValueError, match="non-square"):
        determinant(GRMatrix(Z2, A.packing, [{0: {0: 1}}, {1: {0: 1}}], 3))
    with pytest.raises(ValueError, match="empty matrix"):
        determinant(GRMatrix.from_rows([]))


@pytest.mark.parametrize("G", SPARSE_GROUPS, ids=lambda G: G.describe())
def test_front_end_can_leave_a_zero_one_row_core(G):
    """Units on the diagonal of the first four rows, a fifth row that
    repeats the first and a last column of zeros: the front end peels the
    four units and leaves a 1 x 1 core whose one entry is zero, an empty
    row, so det is 0 on every path."""
    h = AbElement((1,) * G.rank, tuple(d - 1 for d in G.torsion))
    grid = [[monomial(G, h, -1) if j == i % 4 else zero(G) for j in range(5)] for i in range(5)]
    A = GRMatrix.from_rows(grid)
    assert groupring._peel([dict(row) for row in A.packed], A.packing, 0)[0] == [{}]
    assert not determinant(A) and not _cofactor(A)
    if G.rank + len(G.torsion) <= 1:
        assert _kronecker(G, A.packed) == {}


@pytest.mark.parametrize("G", SPARSE_GROUPS, ids=lambda G: G.describe())
def test_determinant_leaves_the_rows_it_peels_as_they_were(G):
    """The front end edits its rows in place, so determinant hands it a
    shallow copy of each: after det, every row holds the same entries, in
    the same order and unchanged, and det again gives the same keys in the
    same order."""
    rng = random.Random("rows " + G.describe())
    steps = 0
    for n in (5, 6, 8):
        grid = [[monomial(G, AbElement(tuple(rng.randint(-2, 2) for _ in range(G.rank)),
                                       tuple(rng.randrange(d) for d in G.torsion)),
                          rng.choice((1, -1, 2))) if rng.random() < 0.25 or i == j else zero(G)
                 for j in range(n)] for i in range(n)]
        A = GRMatrix.from_rows(grid)
        assert sum(map(len, A.packed)) <= 4 * n  # past the front end's gate
        before = [[(j, e, dict(e)) for j, e in row.items()] for row in A.packed]
        det = determinant(A)
        assert [[(j, e, dict(e)) for j, e in row.items()] for row in A.packed] == before
        assert all(e is f for row, was in zip(A.packed, before) for e, (_, f, _) in
                   zip(row.values(), was))
        assert list(determinant(A).packed[1].items()) == list(det.packed[1].items())
        assert equal(det, _cofactor(A))
        steps += n - len(groupring._peel([dict(row) for row in A.packed], A.packing, 0)[0])
    assert steps >= 6


def test_from_records_of_a_huge_rank_allocates_nothing_per_coordinate():
    """A record of rank WORK_BUDGET with no terms: the coordinate rows are
    the records' coordinates zipped and the codec's shifts a range, so
    reading it allocates the codec's constants only, about 1 MB, not a list
    and a shift per coordinate (over 100 MB)."""
    rank = groupring.WORK_BUDGET
    tracemalloc.start()
    try:
        p = from_records({"group": {"rank": rank, "torsion": []}, "terms": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.group == AbelianGroup(rank) and not p
    assert len(p.packed[0].shifts) == rank
    assert peak < 8 * 2 ** 20, peak


def test_sum_of_all_elements():
    assert equal(sum_of_all_elements(Z), zero(Z))
    G = AbelianGroup(0, (2, 2))
    I = sum_of_all_elements(G)
    assert len(I.terms) == 4
    assert all(c == 1 for c in I.terms.values())
    assert equal(sum_of_all_elements(AbelianGroup(0)), one(AbelianGroup(0)))


def test_external_product():
    p = poly((0, 1), (1, 1))
    q = poly((0, 1), (1, -1))
    r = external_product(p, q)
    assert r.group == AbelianGroup(2)
    assert r.terms == {
        AbElement((0, 0), ()): 1,
        AbElement((0, 1), ()): -1,
        AbElement((1, 0), ()): 1,
        AbElement((1, 1), ()): -1,
    }
    assert augmentation(r) == augmentation(p) * augmentation(q)


def test_records_round_trip():
    G = AbelianGroup(1, (2,))
    p = element(G, {
        AbElement((0,), (0,)): 3,
        AbElement((-2,), (1,)): -1,
    })
    rec = to_records(p)
    assert rec["group"] == {"rank": 1, "torsion": [2]}
    assert equal(from_records(rec), p)
    with pytest.raises(ValueError):
        from_records({"group": {"rank": 2, "torsion": []},
                      "terms": [{"coeff": 1, "free": [1], "tor": []}]})


def test_records_reduce_torsion_and_collect():
    G = AbelianGroup(0, (3,))
    rec = {"group": {"rank": 0, "torsion": [3]},
           "terms": [{"coeff": 2, "free": [], "tor": [4]},
                     {"coeff": -1, "free": [], "tor": [1]},
                     {"coeff": 5, "free": [], "tor": [-1]}]}
    assert equal(from_records(rec), element(G, {AbElement((), (1,)): 1,
                                                AbElement((), (2,)): 5}))


@pytest.mark.parametrize("obj", [
    [1], "terms group", {"terms": 5, "group": 3}, {"terms": [], "group": {"rank": "1"}},
    {"terms": [], "group": {"rank": 1}}, {"terms": [], "group": {"rank": 0, "torsion": [1.5]}},
    {"terms": [1], "group": {"rank": 0, "torsion": []}},
    {"terms": [{"coeff": 1, "free": "a", "tor": []}], "group": {"rank": 1, "torsion": []}},
    {"terms": [{"coeff": 1.0, "free": [0], "tor": []}], "group": {"rank": 1, "torsion": []}},
    {"terms": [{"free": [0], "tor": []}], "group": {"rank": 1, "torsion": []}},
])
def test_from_records_rejects_malformed_shapes(obj):
    with pytest.raises(ValueError):
        from_records(obj)


@pytest.mark.parametrize("group, term, message", [
    ({"rank": True, "torsion": []}, {"coeff": 1, "free": [0], "tor": []}, "integer rank"),
    ({"rank": 0, "torsion": [True]}, {"coeff": 1, "free": [], "tor": [0]},
     "torsion must be a list of integers"),
    ({"rank": 1, "torsion": []}, {"coeff": 1, "free": [False], "tor": []},
     "free must be a list of integers"),
    ({"rank": 0, "torsion": [2]}, {"coeff": 1, "free": [], "tor": [True]},
     "tor must be a list of integers"),
    ({"rank": 1, "torsion": []}, {"coeff": True, "free": [0], "tor": []},
     "coeff must be an integer"),
], ids=["rank", "torsion", "free", "tor", "coeff"])
def test_from_records_rejects_booleans(group, term, message):
    """JSON true and false are not integers, in any field."""
    with pytest.raises(ValueError, match=message):
        from_records({"group": group, "terms": [term]})


def test_sorted_terms_deterministic():
    p = poly((3, 1), (-1, 2), (0, -4))
    assert sorted_columns(p) == ([[-1, 0, 3]], [2, -4, 1])


small_poly = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=5,
).map(lambda d: element(Z2, {AbElement(k, ()): c for k, c in d.items()}))


@given(small_poly, small_poly)
@settings(deadline=None)
def test_product_divides_back(p, q):
    prod = mul(p, q)
    if prod.terms:
        assert equal(exact_div(prod, q), p)
        assert equal(exact_div(prod, p), q)


@given(small_poly, st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.sampled_from([1, -1]))
@settings(deadline=None)
def test_normalize_orbit_constant(p, shift, sign):
    moved = scalar_mul(sign, mul(monomial(Z2, AbElement(shift, ())), p))
    assert equal(normalize(moved), normalize(p))
    assert sim_equal(moved, p)


def test_term_constructor_refuses_zero_coefficients():
    """Coefficients are nonzero.  A zero one let through made t^3 with
    coefficient 0 a truthy element unequal to 0 whose record wrote coeff 0,
    and normalize shifted {1: 0, t^2: -1} by its zero term, so that -t^2 was
    not ~ 1.  element() drops zeros instead."""
    for terms in ({AbElement((3,), ()): 0}, {AbElement((0,), ()): 0, AbElement((2,), ()): -1}):
        with pytest.raises(ValueError, match="coefficient 0"):
            GroupRingElement(Z, terms)
    assert not element(Z, {AbElement((3,), ()): 0})
    p = element(Z, {AbElement((0,), ()): 0, AbElement((2,), ()): -1})
    assert sim_equal(p, one(Z))
    assert to_records(p)["terms"] == [{"coeff": -1, "free": [2], "tor": []}]
