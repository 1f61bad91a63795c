"""Integer matrix normal forms, abelianization, and quotients of f.g. abelian groups.

Groups are presented in Smith normal form: rank b plus a divisor chain
d_1 | d_2 | ... with every d_i >= 2.  Elements are exponent vectors
(free part) together with reduced torsion residues.  AbElement is such an
element as a value that crosses the API only; nothing here adds or scales
one.  Computation is on coordinates: coordinate rows through dot_map here,
packed keys in groupring.

A homomorphism into such a group is its matrix (ImageMatrix): row i holds
target coordinate i of the image of every basis element.  cokernel reads it
straight off the factor rows of the Smith U block, and quotient and
direct_sum hand it to their Projection; the images as AbElements are
derived from it only when read.  dot_map is the one place that maps
coordinate vectors through such a matrix: it takes them as coordinate
columns and returns coordinate rows, so word_images maps all its words,
groupring.push_forward every term of an element, and engine.induced_hom
every lift of a canonical factor, in one call, without an AbElement per
vector; a single vector is a batch of one, and Cokernel.from_vector and
Projection.__call__ refuse one whose coordinate count is not the source's.

_smith is the one Smith normal form.  It works in place on a list of rows,
and the transforms ride in blocks beside and below the matrix: cokernel
reads U to the right of the relation rows, and smith_normal_form also reads
V below them.  U^-1, whose columns lift the canonical factors back to
generator vectors, is not tracked; Cokernel.lifts derives its factor
columns on first read, from _smith of U itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Dict, List, Sequence, Set, Tuple

from .words import Generator, Word


class _Infinite:
    """Sentinel for the order of an infinite group."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: Tuple[int, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in r)
        return cls(rows, cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        # unit row i is [0] * i + [1] + [0] * (n - i - 1), so the rows laid
        # end to end are 1 followed by n zeros, n - 1 times, then a last 1
        return cls(n, n, tuple(([1] + [0] * n) * (n - 1) + [1]) if n else ())

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> List[List[int]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = [[sum(a[i][k] * b[k][j] for k in range(self.cols))
                for j in range(other.cols)] for i in range(self.rows)]
        return IntMatrix.from_rows(out) if self.rows else IntMatrix(0, other.cols, ())


def det_sparse(rows: Sequence[Dict[int, int]]) -> int:
    """Exact determinant of the n x n integer matrix whose row i is rows[i],
    given as {column: value} with columns in range(n); absent entries are 0.

    Fraction-free Bareiss elimination (Bareiss 1968) on sparse rows with
    Markowitz pivots: each step takes the column with the fewest nonzeros
    and in it the row with the fewest (lowest index on ties), and updates
    only the rows with a nonzero in that column.  The others are rescaled
    lazily.  A row last updated at step L still holds its step-L values v;
    Bareiss would have multiplied them by p_m / p_(m-1) at each skipped step
    m, which telescopes to v * p_(s-1) / p_L.  So the step-s update
    (v' * p_s - f' * w) / p_(s-1) of that row is (v * p_s - f * w) / p_L,
    where w is the pivot row brought up to step s - 1; the division is exact
    because the result is a minor.  det is the last pivot times the signs of
    the row and the column pivot orders."""
    n = len(rows)
    rows = [{j: v for j, v in r.items() if v} for r in rows]
    cols: Dict[int, Set[int]] = {j: set() for j in range(n)}
    for i, r in enumerate(rows):
        for j in r:
            cols[j].add(i)
    step = [0] * n  # the step whose values rows[i] holds
    piv = [1]  # piv[s] is the pivot of step s
    row_order, col_order = [], []
    for s in range(1, n + 1):
        least = min(map(len, cols.values()))
        c = next(j for j, rs in cols.items() if len(rs) == least)
        below = cols.pop(c)
        if not below:
            return 0
        r = min(below, key=lambda i: (len(rows[i]), i))
        below.remove(r)
        pr, last = rows[r], step[r]
        if last < s - 1:
            q, d = piv[s - 1], piv[last]
            pr = {j: v * q // d for j, v in pr.items()}
        p = pr.pop(c)
        for j in pr:
            cols[j].discard(r)
        for i in below:
            rows[i] = new = _eliminate(rows[i], pr, c, p, piv[step[i]])
            step[i] = s
            for j in pr:
                if j in new:
                    cols[j].add(i)
                else:
                    cols[j].discard(i)
        piv.append(p)
        row_order.append(r)
        col_order.append(c)
    return _sign(row_order) * _sign(col_order) * piv[n]


def _eliminate(row: Dict[int, int], pr: Dict[int, int], c: int, p: int,
               den: int) -> Dict[int, int]:
    """(row * p - row[c] * pr) // den without column c and without zeros;
    pr is the pivot row without its pivot p at column c."""
    f = row[c]
    new = {j: v * p for j, v in row.items() if j != c}
    for j, w in pr.items():
        new[j] = new.get(j, 0) - f * w
    return {j: v // den for j, v in new.items() if v}


def _sign(perm: Sequence[int]) -> int:
    """The sign of a permutation of range(len(perm)), from its cycles."""
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            seen[i] = True
            j = perm[i]
            while j != i:  # each further element of the cycle is a transposition
                seen[j] = True
                sign = -sign
                j = perm[j]
    return sign


def bareiss_pivot(rows: List[List[int]], k: int, c: int, den: int) -> None:
    """One fraction-free pivot on p = rows[k][c] (Edmonds 1967, Bareiss 1968).

    Every row i other than k becomes (rows[i] * p - rows[i][c] * rows[k]) // den,
    rows with a 0 in column c included; the pivot row stays as it is.  den
    is the previous pivot (1 before the first).  The updated entries are
    minors of the starting matrix, so every division is exact, and they
    equal the rational elimination's entries times p."""
    pr = rows[k]
    p = pr[c]
    for i, row in enumerate(rows):
        if i != k:
            f = row[c]
            if f:
                row[:] = [(v * p - f * w) // den for v, w in zip(row, pr)]
            else:
                row[:] = [v * p // den for v in row]


def _smith(A: List[List[int]], m: int, n: int) -> None:
    """Bring the top-left m x n block M of the rows A to Smith form D in place.

    Row operations act on the whole of rows 0..m-1 and column operations on
    columns 0..n-1 of every row of A, so blocks placed beside and below M
    carry the transforms of U*M*V = D: I_m to the right of the first m rows
    ends as U (cokernel reads it there), and I_n below them ends as V
    (smith_normal_form and Cokernel.lifts read both).

    Once step s is done, row s and column s of M are zero off the diagonal,
    and no later operation refills them: step t eliminates below and right
    of its pivot only, and swaps columns and adds them on rows t onward
    (the V block included), since the rows above are zero there."""

    def row_add(i, j, c):  # row_i += c * row_j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]

    def col_add(i, j, c):  # col_i += c * col_j, on rows t onward
        for row in A[t:]:
            row[i] += c * row[j]

    t = 0
    while t < min(m, n):
        # pick the first nonzero entry of minimal absolute value in row-major
        # order as pivot; a unit is minimal, so the scan stops at the first
        piv, least = None, 0
        for i in range(t, m):
            for j in range(t, n):
                a = abs(A[i][j])
                if a and (piv is None or a < least):
                    piv, least = (i, j), a
                    if a == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        i, j = piv
        A[t], A[i] = A[i], A[t]
        if j != t:
            for row in A[t:]:
                row[t], row[j] = row[j], row[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        p = A[t][t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t] != 0:
                q = A[i][t] // p
                if q:
                    row_add(i, t, -q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j] != 0:
                q = A[t][j] // p
                if q:
                    col_add(j, t, -q)
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        bad = None
        if p != 1:  # 1 divides every entry
            bad = next((i for i in range(t + 1, m)
                        if any(A[i][j] % p for j in range(t + 1, n))), None)
        if bad is None:
            t += 1
        else:
            # fold a row the pivot does not divide into row t and pivot again
            row_add(t, bad, 1)


def _unit_rows(k: int) -> List[List[int]]:
    """The rows of the k x k identity matrix, built as rows."""
    rows = [[0] * k for _ in range(k)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """U, D, V with U*M*V = D diagonal, d_i | d_{i+1}, d_i >= 0, U and V unimodular."""
    m, n = M.rows, M.cols
    A = [r + e for r, e in zip(M.to_rows(), _unit_rows(m))] + _unit_rows(n)
    _smith(A, m, n)
    mk = lambda rows, r, c: IntMatrix(r, c, tuple(x for row in rows for x in row))
    return (mk([r[n:] for r in A[:m]], m, m), mk([r[:n] for r in A[:m]], m, n),
            mk(A[m:], n, n))


@dataclass(frozen=True)
class AbelianGroup:
    rank: int
    torsion: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        # d >= 2 first, so that the chain test never divides by 0
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion divisors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion divisors must form a chain")

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class AbElement:
    free: Tuple[int, ...] = ()
    tor: Tuple[int, ...] = ()


def zero_element(G: AbelianGroup) -> AbElement:
    return AbElement((0,) * G.rank, (0,) * len(G.torsion))


ImageMatrix = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[Tuple[int, ...], int], ...]]
CoordinateRows = Tuple[List[List[int]], List[List[int]]]


def dot_map(M: ImageMatrix, columns: Sequence[Sequence[int]], count: int) -> CoordinateRows:
    """The coordinates of sum_j v[j] * images[j] for each of count vectors
    v, given as coordinate columns: columns[j] holds v[j] of every v, in
    order.  They come back as coordinate rows, free rows then torsion rows:
    row i holds target coordinate i of every image, in order.  Each row is
    built column by column over the nonzero entries of its row of M only
    (compress skips the others without a Python step each), and reduced
    mod d on torsion ones."""
    free, tor = M

    def image(row: Sequence[int]) -> List[int]:
        out = [0] * count
        for a, col in compress(zip(row, columns), row):
            out = [x + a * y for x, y in zip(out, col)]
        return out

    return [image(row) for row in free], [[x % d for x in image(row)] for row, d in tor]


def _elements(free: Sequence[Sequence[int]], tor: Sequence[Sequence[int]],
             count: int) -> Tuple[AbElement, ...]:
    """The AbElement of each of the count columns of the coordinate rows."""
    return tuple(map(AbElement, zip(*free) if free else repeat((), count),
                     zip(*tor) if tor else repeat((), count)))


def _map_vector(M: ImageMatrix, v: Sequence[int]) -> AbElement:
    """dot_map of the one vector v, which has a coordinate per column of M."""
    return _elements(*dot_map(M, [(x,) for x in v], 1), 1)[0]


def _coordinates(G: AbelianGroup, x: AbElement) -> Tuple[int, ...]:
    """x.free + x.tor, once x has the coordinate counts of G."""
    if len(x.free) != G.rank or len(x.tor) != len(G.torsion):
        raise ValueError(f"{x} is not an element of {G.describe()}")
    return x.free + x.tor


@dataclass(frozen=True)
class Cokernel:
    """The cokernel Z^m / im(M) of a relation matrix, with generator images.

    U is the row transform of the Smith form U*M*V = D, and factor_rows are
    the rows of D that give the canonical factors, free ones first; matrix
    holds the generator images, read straight off those rows of U."""

    group: AbelianGroup
    matrix: ImageMatrix
    U: Tuple[Tuple[int, ...], ...]
    factor_rows: Tuple[int, ...]

    @cached_property
    def gen_images(self) -> Tuple[AbElement, ...]:
        free, tor = self.matrix
        return _elements(free, [row for row, _ in tor], len(self.U))

    @cached_property
    def lifts(self) -> Tuple[Tuple[int, ...], ...]:
        """An integer lift back to Z^m of each canonical factor: the column of
        U^-1 at its factor row.  Derived on first read, as U^-1 = V2*U2 from
        the Smith form U2*U*V2 = I of the unimodular U: _smith runs on [U | I]
        over I, and only the factor columns of U2 are mapped through V2, in
        one dot_map, so no m x m product is formed."""
        m, rs = len(self.U), self.factor_rows
        A = [list(r) + e for r, e in zip(self.U, _unit_rows(m))] + _unit_rows(m)
        _smith(A, m, m)
        lifted, _ = dot_map((A[m:], ()), [[row[m + r] for r in rs] for row in A[:m]], len(rs))
        return tuple(zip(*lifted))

    def from_vector(self, v: Sequence[int]) -> AbElement:
        if len(v) != len(self.U):  # dot_map would drop or zero-fill the others
            raise ValueError(f"a vector of {len(v)} coordinates for {len(self.U)} generators")
        return _map_vector(self.matrix, v)


def cokernel(rel_rows: Sequence[Sequence[int]], m: int, n: int) -> Cokernel:
    A = [list(r) + e for r, e in zip(rel_rows, _unit_rows(m))]
    _smith(A, m, n)
    diag = [A[i][i] for i in range(min(m, n))]
    tor_rows = [i for i, d in enumerate(diag) if d >= 2]
    free_rows = [i for i, d in enumerate(diag) if d == 0] + list(range(len(diag), m))
    G = AbelianGroup(len(free_rows), tuple(diag[i] for i in tor_rows))
    U = tuple(tuple(row[n:]) for row in A)
    # free factor rows of U as they are, torsion ones mod d
    matrix = (tuple(U[r] for r in free_rows),
              tuple((tuple(x % diag[r] for x in U[r]), diag[r]) for r in tor_rows))
    return Cokernel(G, matrix, U, tuple(free_rows + tor_rows))


def _exponent_sums(words: Sequence[Word], m: int) -> List[List[int]]:
    """Row g holds generator g's exponent sum in every word, in order."""
    rows = [[0] * len(words) for _ in range(m)]
    for j, w in enumerate(words):
        for g, e in w.letters:
            rows[g][j] += e
    return rows


def abelianize(alphabet: Sequence[Generator], relators: Sequence[Word]) -> Cokernel:
    """H = cokernel of the exponent-sum matrix (rows = generators, cols = relators)."""
    return cokernel(_exponent_sums(relators, len(alphabet)), len(alphabet), len(relators))


def word_images(ck: Cokernel, words: Sequence[Word]) -> Tuple[AbElement, ...]:
    """phi extended multiplicatively to each word: the words' exponent sums
    are the columns of one dot_map."""
    sums = _exponent_sums(words, len(ck.U))
    return _elements(*dot_map(ck.matrix, sums, len(words)), len(words))


@dataclass(frozen=True)
class Projection:
    """The homomorphism source -> target of the given matrix, whose column i
    is the image of canonical source factor i (free then torsion)."""

    source: AbelianGroup
    target: AbelianGroup
    matrix: ImageMatrix

    @cached_property
    def images(self) -> Tuple[AbElement, ...]:
        free, tor = self.matrix
        return _elements(free, [row for row, _ in tor],
                        self.source.rank + len(self.source.torsion))

    def __call__(self, x: AbElement) -> AbElement:
        return _map_vector(self.matrix, _coordinates(self.source, x))


def _torsion_relations(G: AbelianGroup, at: int, m: int) -> List[List[int]]:
    """The relation d * e_(at + rank + j) in Z^m of each torsion factor Z/d
    of G, for G's coordinates placed from position at on."""
    return [[d if i == at + G.rank + j else 0 for i in range(m)]
            for j, d in enumerate(G.torsion)]


def quotient(H: AbelianGroup, killed: Sequence[AbElement]) -> Projection:
    """G = H / <killed>, with the canonical surjection."""
    m = H.rank + len(H.torsion)
    cols = _torsion_relations(H, 0, m)
    cols.extend(list(_coordinates(H, x)) for x in killed)
    ck = cokernel([[col[i] for col in cols] for i in range(m)], m, len(cols))
    return Projection(H, ck.group, ck.matrix)


def direct_sum(G1: AbelianGroup, G2: AbelianGroup) -> Tuple[AbelianGroup, Projection, Projection]:
    """G1 + G2 in canonical form, with the two inclusion maps."""
    m1 = G1.rank + len(G1.torsion)
    m = m1 + G2.rank + len(G2.torsion)
    cols = _torsion_relations(G1, 0, m) + _torsion_relations(G2, m1, m)
    ck = cokernel([[col[i] for col in cols] for i in range(m)], m, len(cols))
    free, tor = ck.matrix

    def columns(lo: int, hi: int) -> ImageMatrix:
        return tuple(row[lo:hi] for row in free), tuple((row[lo:hi], d) for row, d in tor)

    G = ck.group
    return G, Projection(G1, G, columns(0, m1)), Projection(G2, G, columns(m1, m))


def order(G: AbelianGroup):
    """Group order; INFINITE when the rank is positive."""
    if G.rank > 0:
        return INFINITE
    n = 1
    for d in G.torsion:
        n *= d
    return n
