"""Integer matrix normal forms, abelianization, and quotients of f.g. abelian groups.

Groups are presented in Smith normal form: rank b plus a divisor chain
d_1 | d_2 | ... with every d_i >= 2.  Elements are exponent vectors
(free part) together with reduced torsion residues.

A homomorphism into such a group is the images of a basis.  dot_map, on the
image_matrix each Cokernel or Projection builds once, is the one place that
maps a coordinate vector through them.

_smith is the one Smith normal form.  It works in place on a list of rows,
and the transforms ride in blocks beside and below the matrix: cokernel
reads U to the right of the relation rows, and smith_normal_form also reads
V below them.  U^-1, whose columns lift the canonical factors back to
generator vectors, is not tracked; Cokernel.lifts derives it on first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
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

    def diagonal(self) -> List[int]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]


def det_int(M: IntMatrix) -> int:
    """Exact determinant: det_sparse of the nonzero entries of each row."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n, e = M.cols, M.entries
    return det_sparse([{j: v for j, v in enumerate(e[i * n:(i + 1) * n]) if v}
                       for i in range(n)])


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
    (smith_normal_form reads both)."""

    def row_add(i, j, c):  # row_i += c * row_j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]

    def col_add(i, j, c):  # col_i += c * col_j
        for row in A:
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
            for row in A:
                row[t], row[j] = row[j], row[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        p = A[t][t]
        dirty = False
        for i in range(m):
            if i != t and A[i][t] != 0:
                q = A[i][t] // p
                if q:
                    row_add(i, t, -q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(n):
            if j != t and A[t][j] != 0:
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


def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """U, D, V with U*M*V = D diagonal, d_i | d_{i+1}, d_i >= 0, U and V unimodular."""
    m, n = M.rows, M.cols
    A = ([r + e for r, e in zip(M.to_rows(), IntMatrix.identity(m).to_rows())]
         + IntMatrix.identity(n).to_rows())
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
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion divisors must form a chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion divisors must be >= 2")

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class AbElement:
    free: Tuple[int, ...] = ()
    tor: Tuple[int, ...] = ()


def zero_element(G: AbelianGroup) -> AbElement:
    return AbElement((0,) * G.rank, (0,) * len(G.torsion))


def ab_add(G: AbelianGroup, x: AbElement, y: AbElement) -> AbElement:
    return AbElement(
        tuple(a + b for a, b in zip(x.free, y.free)),
        tuple((a + b) % d for a, b, d in zip(x.tor, y.tor, G.torsion)),
    )


def ab_neg(G: AbelianGroup, x: AbElement) -> AbElement:
    return AbElement(
        tuple(-a for a in x.free),
        tuple((-a) % d for a, d in zip(x.tor, G.torsion)),
    )


def ab_scale(G: AbelianGroup, x: AbElement, k: int) -> AbElement:
    return AbElement(
        tuple(k * a for a in x.free),
        tuple((k * a) % d for a, d in zip(x.tor, G.torsion)),
    )


def element(G: AbelianGroup, free: Sequence[int] = (), tor: Sequence[int] = ()) -> AbElement:
    free = tuple(free) + (0,) * (G.rank - len(free))
    tor = tuple(tor) + (0,) * (len(G.torsion) - len(tor))
    if len(free) != G.rank or len(tor) != len(G.torsion):
        raise ValueError("coordinate length mismatch")
    return AbElement(free, tuple(t % d for t, d in zip(tor, G.torsion)))


ImageMatrix = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[Tuple[int, ...], int], ...]]


def image_matrix(G: AbelianGroup, images: Sequence[AbElement]) -> ImageMatrix:
    """The matrix of the homomorphism Z^len(images) -> G sending e_j to
    images[j] (row i holds coordinate i of every image), split into its
    free rows and its (torsion row, d) pairs."""
    vs = [img.free + img.tor for img in images]
    rows = [tuple(v[i] for v in vs) for i in range(G.rank + len(G.torsion))]
    return tuple(rows[:G.rank]), tuple(zip(rows[G.rank:], G.torsion))


def dot_map(M: ImageMatrix, v: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The (free, tor) coordinates of sum_j v[j] * images[j]: one integer dot
    product per target coordinate, reduced mod d on torsion ones."""
    free, tor = M
    return (tuple(sum(map(mul, v, row)) for row in free),
            tuple(sum(map(mul, v, row)) % d for row, d in tor))


@dataclass(frozen=True)
class Cokernel:
    """The cokernel Z^m / im(M) of a relation matrix, with generator images.

    U is the row transform of the Smith form U*M*V = D, and factor_rows are
    the rows of D that give the canonical factors, free ones first."""

    group: AbelianGroup
    gen_images: Tuple[AbElement, ...]
    U: Tuple[Tuple[int, ...], ...]
    factor_rows: Tuple[int, ...]

    @cached_property
    def matrix(self) -> ImageMatrix:
        return image_matrix(self.group, self.gen_images)

    @cached_property
    def lifts(self) -> Tuple[Tuple[int, ...], ...]:
        """An integer lift back to Z^m of each canonical factor: the column of
        U^-1 at its factor row.  Derived on first read, as U^-1 = V2*U2 from
        the Smith form U2*U*V2 = I of the unimodular U."""
        U2, _, V2 = smith_normal_form(IntMatrix.from_rows(self.U))
        inverse = (V2 @ U2).to_rows()
        return tuple(tuple(row[r] for row in inverse) for r in self.factor_rows)

    def from_vector(self, v: Sequence[int]) -> AbElement:
        return AbElement(*dot_map(self.matrix, v))


def cokernel(rel_rows: Sequence[Sequence[int]], m: int, n: int) -> Cokernel:
    A = [list(r) + e for r, e in zip(rel_rows, IntMatrix.identity(m).to_rows())]
    _smith(A, m, n)
    diag = [A[i][i] for i in range(min(m, n))]
    tor_rows = [i for i, d in enumerate(diag) if d >= 2]
    free_rows = [i for i, d in enumerate(diag) if d == 0] + list(range(len(diag), m))
    G = AbelianGroup(len(free_rows), tuple(diag[i] for i in tor_rows))
    U = tuple(tuple(row[n:]) for row in A)
    gen_images = tuple(
        AbElement(
            tuple(U[r][i] for r in free_rows),
            tuple(U[r][i] % diag[r] for r in tor_rows),
        )
        for i in range(m)
    )
    return Cokernel(G, gen_images, U, tuple(free_rows + tor_rows))


def abelianize(alphabet: Sequence[Generator], relators: Sequence[Word]) -> Cokernel:
    """H = cokernel of the exponent-sum matrix (rows = generators, cols = relators)."""
    m = len(alphabet)
    rows = [[0] * len(relators) for _ in range(m)]
    for j, w in enumerate(relators):
        for g, e in w.letters:
            rows[g][j] += e
    return cokernel(rows, m, len(relators))


def word_image(ck: Cokernel, w: Word) -> AbElement:
    """phi extended multiplicatively to words: the word's exponent sum per
    generator, mapped once."""
    v = [0] * len(ck.gen_images)
    for g, e in w.letters:
        v[g] += e
    return ck.from_vector(v)


@dataclass(frozen=True)
class Projection:
    source: AbelianGroup
    target: AbelianGroup
    images: Tuple[AbElement, ...]  # image of each canonical source factor (free then torsion)

    @cached_property
    def matrix(self) -> ImageMatrix:
        return image_matrix(self.target, self.images)

    def __call__(self, x: AbElement) -> AbElement:
        return AbElement(*dot_map(self.matrix, x.free + x.tor))


def _torsion_relations(G: AbelianGroup, at: int, m: int) -> List[List[int]]:
    """The relation d * e_(at + rank + j) in Z^m of each torsion factor Z/d
    of G, for G's coordinates placed from position at on."""
    return [[d if i == at + G.rank + j else 0 for i in range(m)]
            for j, d in enumerate(G.torsion)]


def quotient(H: AbelianGroup, killed: Sequence[AbElement]) -> Projection:
    """G = H / <killed>, with the canonical surjection."""
    m = H.rank + len(H.torsion)
    cols = _torsion_relations(H, 0, m)
    for x in killed:
        if len(x.free) != H.rank or len(x.tor) != len(H.torsion):
            raise ValueError("killed element not in the group")
        cols.append(list(x.free + x.tor))
    ck = cokernel([[col[i] for col in cols] for i in range(m)], m, len(cols))
    return Projection(H, ck.group, ck.gen_images)


def direct_sum(G1: AbelianGroup, G2: AbelianGroup) -> Tuple[AbelianGroup, Projection, Projection]:
    """G1 + G2 in canonical form, with the two inclusion maps."""
    m1 = G1.rank + len(G1.torsion)
    m = m1 + G2.rank + len(G2.torsion)
    cols = _torsion_relations(G1, 0, m) + _torsion_relations(G2, m1, m)
    ck = cokernel([[col[i] for col in cols] for i in range(m)], m, len(cols))
    incl1 = Projection(G1, ck.group, ck.gen_images[:m1])
    incl2 = Projection(G2, ck.group, ck.gen_images[m1:])
    return ck.group, incl1, incl2


def order(G: AbelianGroup):
    """Group order; INFINITE when the rank is positive."""
    if G.rank > 0:
        return INFINITE
    n = 1
    for d in G.torsion:
        n *= d
    return n
