import collections
import inspect
import random
import sys
import time
from fractions import Fraction

import pytest

import legacy_abelian
import legacy_groupring
from legacy_abelian import ab_add, ab_neg, ab_scale, element
from int_matrix import det_int, diagonal
from sutor import abelian
from sutor import engine as E
from sutor import families as F
from sutor import words as W
from sutor.abelian import (
    INFINITE,
    AbElement,
    AbelianGroup,
    IntMatrix,
    abelianize,
    cokernel,
    det_sparse,
    direct_sum,
    order,
    quotient,
    smith_normal_form,
    word_images,
    zero_element,
)
from sutor.words import make_alphabet, parse_word


def test_int_matrix_basics():
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert M.at(1, 0) == 3
    assert M.to_rows() == [[1, 2], [3, 4]]
    I = IntMatrix.identity(2)
    assert (I @ M).entries == M.entries
    assert diagonal(M) == [1, 4]
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="entry count"):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        I @ IntMatrix.identity(3)


def test_identity_is_its_unit_rows():
    for n in range(40):
        I = IntMatrix.identity(n)
        assert (I.rows, I.cols) == (n, n)
        assert I.entries == tuple(int(i == j) for i in range(n) for j in range(n))
        assert I.to_rows() == [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def test_bareiss_pivot_matches_fraction_elimination():
    """After each fraction-free pivot every updated entry is the rational
    elimination's entry times den (the last pivot), for
    legacy_abelian.bareiss_pivot: over the whole matrix when every other
    row is eliminated (from row and column 0, the Gauss-Jordan step of the
    integer LP legacy_polytope._farkas), over the trailing block when only
    the rows below are (the step of the dense det_int oracle)."""
    rng = random.Random(6)
    zero_rows = 0
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(2, 8)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        # Gauss-Jordan: pivot rows are normalized over Q, left as they are over Z
        T = [list(r) for r in rows]
        F = [[Fraction(v) for v in r] for r in rows]
        den, free = 1, list(range(m))
        for c in rng.sample(range(n), n):
            cand = [r for r in free if T[r][c]]
            if not cand:
                continue
            k = rng.choice(cand)
            free.remove(k)
            zero_rows += sum(1 for i in range(m) if i != k and T[i][c] == 0)
            legacy_abelian.bareiss_pivot(T, k, c, den, 0, 0)
            den = T[k][c]
            F[k] = [v / F[k][c] for v in F[k]]
            for i in range(m):
                if i != k:
                    F[i] = [v - F[i][c] * w for v, w in zip(F[i], F[k])]
            assert T == [[v * den for v in r] for r in F], rows
        # Bareiss: rows below k, columns right of k; column k is left stale
        T = [list(r) for r in rows]
        F = [[Fraction(v) for v in r] for r in rows]
        den = 1
        for k in range(min(m, n) - 1):
            if T[k][k] == 0:
                break
            above = [list(r) for r in T[:k + 1]]
            legacy_abelian.bareiss_pivot(T, k, k, den, k + 1, k + 1)
            den = T[k][k]
            for i in range(k + 1, m):
                F[i] = [v - F[i][k] / F[k][k] * w for v, w in zip(F[i], F[k])]
            assert T[:k + 1] == above
            for i in range(k + 1, m):
                assert T[i][k + 1:] == [v * den for v in F[i][k + 1:]], rows
    assert zero_rows > 50


def test_det_int():
    assert det_int(IntMatrix.identity(3)) == 1
    assert det_int(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert det_int(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det_int(IntMatrix.from_rows([[2, 4], [1, 2]])) == 0
    M = IntMatrix.from_rows([[3, 1, 0], [0, 2, 5], [1, 1, 1]])
    assert det_int(M) == 3 * (2 - 5) - 1 * (0 - 5) + 0
    with pytest.raises(ValueError):
        det_int(IntMatrix.from_rows([[1, 2]]))


def _permutation_matrix(perm):
    return IntMatrix.from_rows([[int(perm[i] == j) for j in range(len(perm))]
                                for i in range(len(perm))])


def test_det_sparse_matches_dense_bareiss():
    """The sparse lazy-rescaled Bareiss behind det_int against the dense
    Bareiss it replaced, on seeded sparse matrices: singular ones, 0x0 and
    1x1, and row and column permutations, whose sign it must carry."""
    rng = random.Random(11)
    seen = collections.Counter()
    for trial in range(360):
        n = rng.choice([0, 1, 2, 3, 4, 5, 6, 8, 10, 13])
        density = rng.choice([0.35, 0.5, 0.7])
        cmax = rng.choice([1, 3, 10 ** 6])
        rows = [[rng.choice([-1, 1]) * rng.randint(1, cmax) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(n)]
        if n >= 3 and trial % 5 == 1:  # a row that combines two others
            i, j, k = rng.sample(range(n), 3)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        M = IntMatrix.from_rows(rows) if n else IntMatrix(0, 0, ())
        want = legacy_abelian.det_int(M)
        sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
        before = [dict(r) for r in sparse]
        assert det_int(M) == want == det_sparse(sparse), rows
        assert sparse == before  # the caller's rows are left as they were
        seen["singular"] += want == 0
        seen[f"{n}x{n}"] += 1
        seen["wide"] += abs(want) > 10 ** 12
        if n >= 2:
            p, q = rng.sample(range(n), n), rng.sample(range(n), n)
            permuted = IntMatrix.from_rows([[rows[p[i]][q[j]] for j in range(n)]
                                            for i in range(n)])
            sign = (legacy_abelian.det_int(_permutation_matrix(p))
                    * legacy_abelian.det_int(_permutation_matrix(q)))
            assert det_int(permuted) == sign * want == legacy_abelian.det_int(permuted)
            seen["odd"] += sign < 0 and want != 0
    assert seen["0x0"] > 20 and seen["1x1"] > 20
    assert seen["singular"] > 60 and 360 - seen["singular"] > 150
    assert seen["odd"] > 50 and seen["wide"] > 20
    assert det_sparse([{0: 0, 1: 2}, {0: 3, 1: 0}]) == -6  # explicit zeros are absent entries


def test_det_sparse_rescales_banded_rows_lazily(monkeypatch):
    """Only the rows with a nonzero in the pivot column are updated, and on
    a matrix of half-bandwidth b the Markowitz pivots find at most b of them
    besides the pivot row, so the kernel updates at most b * n rows; dense
    Bareiss rescales every row below the pivot at every step, n (n - 1) / 2
    of them."""
    updates = collections.Counter()
    eliminate = abelian._eliminate

    def spy(*args):
        updates["rows"] += 1
        return eliminate(*args)

    monkeypatch.setattr(abelian, "_eliminate", spy)
    rng = random.Random(12)
    for n in (25, 50, 100):
        for b in (1, 2, 3):
            M = IntMatrix.from_rows([[rng.choice([-2, -1, 1, 2]) if abs(i - j) <= b else 0
                                      for j in range(n)] for i in range(n)])
            updates.clear()
            assert det_int(M) == legacy_abelian.det_int(M)
            assert updates["rows"] <= b * n, (n, b)


def _sparse(rows):
    """The rows of a dense matrix as cokernel takes them, {column: value}."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def _matches_the_blocks(ck, rows, m, n):
    """ck, the cokernel of the m x n matrix rows, and smith_normal_form of
    rows equal what the elimination that carried its transforms as blocks
    of its rows gives (legacy_abelian.block_cokernel and
    block_smith_normal_form): the group, the image matrix, U read on
    demand, the factor rows and the lifts, and U, D and V."""
    assert (ck.group, ck.matrix, ck.U, ck.factor_rows, ck.lifts) == \
        legacy_abelian.block_cokernel(rows, m, n), rows
    M = IntMatrix(m, n, tuple(v for r in rows for v in r))
    assert [X.to_rows() for X in smith_normal_form(M)] == \
        list(legacy_abelian.block_smith_normal_form(M)), rows


def test_smith_matches_the_full_pivot_scan():
    """_smith stops its pivot scan at the first unit, skips the divisibility
    scan for a unit pivot and logs its operations in place of carrying U
    and V; smith_normal_form's U, D and V stay those of the full scan, and
    the cokernel's lifts the columns of its Ui, on matrices with unit and
    non-unit pivots and with torsion."""
    rng = random.Random(13)
    seen = collections.Counter()
    for trial in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        scale = rng.choice([1, 1, 2, 3, 6])
        rows = [[scale * rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(m)]
        U, _, D, V = legacy_abelian._smith([list(r) for r in rows], m, n)
        got = smith_normal_form(IntMatrix.from_rows(rows))
        assert [M.to_rows() for M in got] == [U, D, V], rows
        ck = cokernel(_sparse(rows), m, n)
        assert (ck.group, ck.gen_images, ck.lifts) == legacy_abelian.cokernel(rows, m, n), rows
        diag = [D[i][i] for i in range(min(m, n))]
        seen["torsion"] += any(d >= 2 for d in diag)
        seen["unit"] += 1 in diag
        seen["non_unit_pivot"] += min((abs(v) for r in rows for v in r if v), default=1) > 1
    assert seen["torsion"] > 100 and seen["unit"] > 100 and seen["non_unit_pivot"] > 50


def test_smith_skips_the_lines_it_has_cleared():
    """_smith eliminates below and right of each pivot only, on the rows
    with an entry in the pivot column.  smith_normal_form's U, D and V and
    the cokernel's group, images and lifts equal those of the legacy
    elimination over every row and column, and the block elimination's
    matrix, U and factor rows too, on matrices up to 9 x 9 whose entries
    share factors, so that a pivot leaves remainders (the dirty path) and
    fails to divide a later entry (the fold path); both paths are seen to
    run, and so are the 0 x 0, 0 x 2 and 2 x 0 shapes."""
    source, first = inspect.getsourcelines(abelian._smith)
    at = {what: first + next(i for i, line in enumerate(source) if what in line) + after
          for what, after in (("if dirty or len(left) > 1:", 1),
                              ("row_ops.append((i0, bad, 1))", 0))}
    code, ran = abelian._smith.__code__, collections.Counter()

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_lineno] += 1
        return lines

    rng, cases = random.Random(29), [([], 0, 0), ([], 0, 2), ([[], []], 2, 0)]
    for trial in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((2, 3, 4, 6, 9, 10)) * rng.randint(-4, 4) if rng.random() < 0.7
                 else rng.choice((0, 1, -1)) for _ in range(n)] for _ in range(m)]
        cases.append((rows, m, n))
    got = []
    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: lines if frame.f_code is code else None)
    try:
        for rows, m, n in cases:
            M = IntMatrix(m, n, tuple(v for r in rows for v in r))
            ck = cokernel(_sparse(rows), m, n)
            got.append(([X.to_rows() for X in smith_normal_form(M)],
                        (ck.group, ck.gen_images, ck.lifts), ck))
    finally:
        sys.settrace(old)
    for (rows, m, n), (snf, images, ck) in zip(cases, got):
        U, _, D, V = legacy_abelian._smith([list(r) for r in rows], m, n)
        assert snf == [U, D, V], rows
        assert images == legacy_abelian.cokernel(rows, m, n), rows
        _matches_the_blocks(ck, rows, m, n)
    ran_dirty, ran_fold = (ran[at[what]] for what in at)
    assert ran_dirty > 20 and ran_fold > 20, ran


def _braid_closure(rng, strands, crossings):
    """The Wirtinger presentation of the closure of a seeded random braid
    whose closure is a knot: one generator per arc, one relator
    o u_in o^-eps u_out^-1 per crossing sigma_i^eps, where the strand from
    position i passes over."""
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
        perm = list(range(strands))
        for g in word:
            i = abs(g) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        p, cycle = perm[0], 1
        while p != 0:
            p, cycle = perm[p], cycle + 1
        if cycle == strands:
            break
    cur, crossings_at = list(range(strands)), []
    arcs = strands
    for g in word:
        i = abs(g) - 1
        over, under = cur[i], cur[i + 1]
        crossings_at.append((over, under, arcs, 1 if g > 0 else -1))
        cur[i], cur[i + 1] = arcs, over
        arcs += 1
    parent = list(range(arcs))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for p, a in enumerate(cur):  # the closure joins the top of each position to its bottom
        parent[root(a)] = root(p)
    ids = {}
    for a in range(arcs):
        ids.setdefault(root(a), len(ids))
    arc = lambda a: ids[root(a)]
    relators = [W.free_reduce([(arc(o), e), (arc(u), 1), (arc(o), -e), (arc(new), -1)])
                for o, u, new, e in crossings_at]
    return make_alphabet([f"x{a}" for a in range(len(ids))]), relators


def test_cokernel_matches_legacy_at_knot_sizes(monkeypatch):
    """Every cokernel that abelianize, quotient and direct_sum build matches
    the block elimination (_matches_the_blocks), and up to 31 generators
    the group, gen_images and lifts of the legacy full-scan cokernel too:
    T(2, n) Wirtinger knots for odd n <= 201, seeded braid closures,
    relator-free handlebodies (zero columns) and their R_- quotients, and
    direct sums with torsion."""
    real, seen = abelian.cokernel, collections.Counter()

    def checked(rel_rows, m, n):
        rows = [[r.get(j, 0) for j in range(n)] for r in rel_rows]
        ck = real(rel_rows, m, n)
        _matches_the_blocks(ck, rows, m, n)
        if m <= 31:
            assert (ck.group, ck.gen_images, ck.lifts) == legacy_abelian.cokernel(rows, m, n)
        seen["calls"] += 1
        seen["largest"] = max(seen["largest"], m)
        seen["zero_columns"] += n == 0 and m > 0
        seen["torsion"] += bool(ck.group.torsion)
        return ck

    monkeypatch.setattr(abelian, "cokernel", checked)
    for n in range(3, 202, 2):
        inp = F.wirtinger_knot(F.torus_2n_pd(n))
        assert abelianize(inp.alphabet, inp.relators).group == AbelianGroup(1)
    rng = random.Random(17)
    for _ in range(20):
        strands = rng.randint(2, 5)  # a knot needs crossings = strands - 1 mod 2
        alphabet, relators = _braid_closure(rng, strands, strands - 1 + 2 * rng.randint(2, 11))
        assert abelianize(alphabet, relators).group == AbelianGroup(1)
    for g in range(1, 6):
        alphabet = make_alphabet([f"x{i}" for i in range(g)])
        ck = abelianize(alphabet, [])
        for _ in range(4):
            words = [W.free_reduce([(rng.randrange(g), rng.choice([-2, -1, 1, 2, 3]))
                                    for _ in range(rng.randint(1, 4))]) for _ in range(g)]
            quotient(ck.group, list(word_images(ck, words)))
    for _ in range(30):
        G1 = AbelianGroup(rng.randint(0, 2), rng.choice([(), (2,), (3,), (2, 4), (6, 12)]))
        G2 = AbelianGroup(rng.randint(0, 2), rng.choice([(), (4,), (3, 9), (2, 6)]))
        S, _, _ = direct_sum(G1, G2)
        quotient(S, [element(S, [rng.randint(-3, 3) for _ in range(S.rank)],
                             [rng.randint(0, 11) for _ in S.torsion])])
    assert seen["largest"] >= 201 and seen["zero_columns"] >= 5 and seen["torsion"] > 40, seen


def test_lifts_are_derived_on_first_read(monkeypatch):
    """No cokernel built by abelianize, quotient, direct_sum, torsion or the
    two identity checks computes its lifts or its full U; the Tietze
    transport reads the lifts through induced_hom."""
    real, made = abelian.cokernel, []
    monkeypatch.setattr(abelian, "cokernel", lambda *a: made.append(real(*a)) or made[-1])
    alphabet = make_alphabet(["a", "b"])
    abelianize(alphabet, [parse_word("a^2 b^4", alphabet)])
    G, _, _ = direct_sum(AbelianGroup(1, (2,)), AbelianGroup(0, (4,)))
    quotient(G, [element(G, [2], [1, 1])])
    for inp in (F.cantwell_conlon(), F.solid_torus(3), F.pretzel_odd(1, 1, 1),
                F.wirtinger_knot(F.TREFOIL_PD)):
        result = E.torsion(inp)
        assert E.evaluation_check(inp, result).passed
        assert E.augmentation_order_check(inp, result).passed
    assert len(made) >= 11
    assert not any("lifts" in ck.__dict__ or "U" in ck.__dict__ for ck in made)
    old = E.torsion(inp)
    E.induced_hom(old, E.torsion(E.tietze_add_generator(inp, W.Word(((0, 2),)))))
    assert "lifts" in old.abelianization.__dict__ and "U" not in old.abelianization.__dict__


def check_snf(M):
    U, D, V = smith_normal_form(M)
    assert (U @ M @ V).entries == D.entries
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    diag = diagonal(D)
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.at(i, j) == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_snf_known():
    assert check_snf(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]
    assert check_snf(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == [2, 2, 156]
    assert check_snf(IntMatrix.from_rows([[0, 0], [0, 0]])) == [0, 0]
    check_snf(IntMatrix.from_rows([[1, 2, 3]]))
    check_snf(IntMatrix.from_rows([[1], [2], [3]]))


def test_snf_random_small():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
        check_snf(M)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    assert AbelianGroup(2, (2, 4)).describe() == "Z + Z + Z/2 + Z/4"
    assert AbelianGroup(0).describe() == "0"


def test_element_arithmetic():
    G = AbelianGroup(1, (3,))
    x = element(G, [2], [2])
    y = element(G, [1], [2])
    assert ab_add(G, x, y) == AbElement((3,), (1,))
    assert ab_neg(G, x) == AbElement((-2,), (1,))
    assert ab_scale(G, y, 3) == AbElement((3,), (0,))
    assert zero_element(G) == AbElement((0,), (0,))


def test_cokernel_and_lifts():
    # Z^2 / <(2, 0)> = Z + Z/2
    ck = cokernel([{0: 2}, {}], 2, 1)
    assert ck.group == AbelianGroup(1, (2,))
    for i in range(2):
        v = [0, 0]
        v[i] = 1
        assert ck.from_vector(v) == ck.gen_images[i]
    # the lifts of the canonical factors give a section of from_vector
    for x in [element(ck.group, [5], [1]), element(ck.group, [-2], [0])]:
        v = [sum(c * lift[i] for c, lift in zip(x.free + x.tor, ck.lifts)) for i in range(2)]
        assert ck.from_vector(v) == x


def test_maps_refuse_vectors_of_the_wrong_shape():
    """Projection.__call__ and Cokernel.from_vector refuse an element or a
    vector whose coordinate counts are not the source's; dot_map would drop
    the extra coordinates or read the missing ones as 0."""
    Z2 = AbelianGroup(2)
    proj = quotient(Z2, [AbElement((1, 1), ())])
    assert proj(AbElement((1, 0), ())) == proj(AbElement((0, -1), ()))
    for x in (AbElement((1,), ()), AbElement((1, 0, 5), ()), AbElement((1, 0), (5,))):
        with pytest.raises(ValueError, match="not an element"):
            proj(x)
    with pytest.raises(ValueError, match="not an element"):
        quotient(Z2, [AbElement((1,), ())])
    ck = cokernel([{0: 2}, {}], 2, 1)
    for v in ([1], [1, 0, 0], []):
        with pytest.raises(ValueError, match="coordinates for 2 generators"):
            ck.from_vector(v)


def test_dot_map_matches_legacy_fold():
    """word_images of one word, Cokernel.from_vector and
    Projection.__call__ equal the ab_add/ab_scale fold they replaced, on
    seeded groups with torsion, for negative exponents, exponents >= d and
    generators absent from a word; word_images maps a batch of words as it
    maps each one alone."""
    rng = random.Random(12)
    alphabet = make_alphabet(["a", "b", "c", "d"])
    fold = legacy_groupring.combine
    seen = collections.Counter()
    for _ in range(60):
        relators = [W.Word(((rng.randrange(4), rng.choice([2, 3, 4, 6])),))]
        relators += [W.free_reduce([(rng.randrange(4), rng.choice([-3, -2, -1, 1, 2, 3]))
                                    for _ in range(rng.randint(1, 4))])
                     for _ in range(rng.randint(0, 2))]
        ck = abelianize(alphabet, relators)
        G = ck.group
        if not G.torsion:
            continue
        seen["torsion"] += 1
        d = G.torsion[0]
        batch = []
        for _ in range(8):
            used = rng.sample(range(4), rng.randint(1, 3))
            w = W.free_reduce([(rng.choice(used), rng.choice([-1, 1]) * rng.randint(1, 2 * d + 1))
                               for _ in range(rng.randint(0, 6))])
            seen["negative"] += any(e < 0 for _, e in w.letters)
            seen["at least d"] += any(abs(e) >= d for _, e in w.letters)
            seen["absent"] += len({g for g, _ in w.letters}) < 4
            assert word_images(ck, [w])[0] == fold(G, ((e, ck.gen_images[g]) for g, e in w.letters))
            batch.append(w)
            v = [rng.randint(-2 * d, 2 * d) for _ in range(4)]
            assert ck.from_vector(v) == fold(G, zip(v, ck.gen_images))
        assert word_images(ck, batch) == tuple(word_images(ck, [w])[0] for w in batch)
        killed = [element(G, [rng.randint(-3, 3) for _ in range(G.rank)],
                          [rng.randrange(t) for t in G.torsion]) for _ in range(rng.randint(0, 2))]
        projections = [quotient(G, killed), *direct_sum(G, AbelianGroup(1, (2,)))[1:]]
        for proj in projections:
            for _ in range(4):
                x = element(proj.source, [rng.randint(-9, 9) for _ in range(proj.source.rank)],
                            [rng.randrange(t) for t in proj.source.torsion])
                assert proj(x) == fold(proj.target, zip(x.free + x.tor, proj.images))
    assert min(seen.values()) > 20, seen


def test_abelianize_free_group():
    ab = abelianize(make_alphabet(["a", "b"]), [])
    assert ab.group == AbelianGroup(2)
    assert ab.gen_images == (AbElement((1, 0), ()), AbElement((0, 1), ()))


def test_abelianize_with_relator():
    alphabet = make_alphabet(["a", "b"])
    ab = abelianize(alphabet, [parse_word("a^2 b^-2", alphabet)])
    assert ab.group.rank == 1
    w = parse_word("a b", alphabet)
    img = word_images(ab, [w])[0]
    # a and b agree in H up to torsion, so a*b has even free coordinate
    assert word_images(ab, [parse_word("a b^-1", alphabet)])[0].free == (0,)
    assert img == ab_add(ab.group, ab.gen_images[0], ab.gen_images[1])


def test_quotient_orders():
    Z2 = AbelianGroup(2)
    proj = quotient(Z2, [AbElement((3, 0), ()), AbElement((1, 2), ())])
    assert order(proj.target) == 6
    proj2 = quotient(AbelianGroup(1), [AbElement((3,), ())])
    assert proj2.target == AbelianGroup(0, (3,))
    assert proj2(AbElement((4,), ())) == element(proj2.target, [], [proj2.images[0].tor[0] * 4 % 3])
    proj3 = quotient(Z2, [AbElement((1, 1), ())])
    assert proj3.target == AbelianGroup(1)
    assert order(proj3.target) is INFINITE


def test_quotient_is_surjective_hom():
    H = AbelianGroup(1, (4,))
    proj = quotient(H, [element(H, [2], [1])])
    x = element(H, [1], [3])
    y = element(H, [0], [2])
    assert proj(ab_add(H, x, y)) == ab_add(proj.target, proj(x), proj(y))
    # killed element maps to zero
    assert proj(element(H, [2], [1])) == zero_element(proj.target)


def test_direct_sum():
    G, i1, i2 = direct_sum(AbelianGroup(0, (2,)), AbelianGroup(0, (3,)))
    assert G == AbelianGroup(0, (6,))
    a = i1(element(AbelianGroup(0, (2,)), [], [1]))
    b = i2(element(AbelianGroup(0, (3,)), [], [1]))
    assert ab_scale(G, a, 2) == zero_element(G)
    assert ab_scale(G, b, 3) == zero_element(G)
    G2, j1, j2 = direct_sum(AbelianGroup(1), AbelianGroup(1))
    assert G2 == AbelianGroup(2)


def test_order():
    assert order(AbelianGroup(0)) == 1
    assert order(AbelianGroup(0, (2, 6))) == 12
    assert order(AbelianGroup(1, (5,))) is INFINITE


def test_lifts_of_a_601_generator_cokernel_within_five_seconds():
    """Each lift replays the logged row operations backwards on one unit
    vector, so no m x m matrix is formed (a product of two took about 19 s
    at m = 601 on a 2-vCPU VM).  Each lift goes back to its factor."""
    inp = F.wirtinger_knot(F.torus_2n_pd(601))
    ck = abelianize(inp.alphabet, inp.relators)
    start = time.perf_counter()
    lifts = ck.lifts
    assert time.perf_counter() - start < 5.0
    assert len(lifts) == 1 and len(lifts[0]) == 601
    assert ck.from_vector(lifts[0]) == AbElement((1,), ())
