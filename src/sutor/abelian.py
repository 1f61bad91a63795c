"""Integer matrix normal forms, abelianization, and quotients of f.g. abelian groups.

Groups are presented in Smith normal form: rank b plus a divisor chain
d_1 | d_2 | ... with every d_i >= 2.  Elements are exponent vectors
(free part) together with reduced torsion residues.  AbElement is such an
element as a value that crosses the API only; nothing here adds or scales
one.  Computation is on coordinates: coordinate rows through dot_map here,
packed keys in groupring.

A homomorphism into such a group is its matrix (ImageMatrix): row i holds
target coordinate i of the image of every basis element.  cokernel reads it
straight off the factor rows of U, the row transform of the Smith form, and
quotient and direct_sum hand it to their Projection; the images as
AbElements are derived from it only when read.  dot_map is the one place
that maps coordinate vectors through such a matrix: it takes them as
coordinate columns and returns coordinate rows, so word_images maps all its
words, groupring.push_forward every term of an element, and
engine.induced_hom every lift of a canonical factor, in one call, without
an AbElement per vector; a single vector is a batch of one, and
Cokernel.from_vector and Projection.__call__ refuse one whose coordinate
count is not the source's.

_smith is the one Smith normal form.  It reduces sparse rows ({column:
value}) in place and carries no transform: it logs its row and column
operations, and a transform is replayed from the log where it is read.
cokernel replays only the factor rows of U, which give the generator
images; Cokernel.U and Cokernel.lifts (the factor columns of U^-1, which
lift the canonical factors back to generator vectors) are replayed on first
read, and smith_normal_form replays U and V whole.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


Op = Tuple[int, int, int]  # (a, b, c), the elementary matrix I + c * e_a * e_b^T


def _smith(R: List[Dict[int, int]], m: int, n: int
           ) -> Tuple[List[int], List[int], List[int], List[Op], List[Op]]:
    """The Smith form D = U*M*V of the m x n matrix M whose row i is R[i],
    given as {column: value}; R is reduced in place.  Returns (diag, at,
    cat, row_ops, col_ops).

    Rows and columns keep their ids, and a swap moves ids between positions
    only: at[p] and cat[p] are the row and the column id at position p, and
    diag[p] the entry there, for p < min(m, n).  No transform is carried;
    each operation is logged as an elementary matrix Op instead: row a +=
    c * row b is (a, b, c) in row_ops, row a negated (a, a, -2), and column
    b += c * column a is (a, b, c) in col_ops.  So U' = E_k ... E_1 and
    V' = F_1 ... F_l give U'*M*V' = D with rows and columns at their ids:
    U's row p is row at[p] of U', and V's column q is column cat[q] of V'
    (_times replays them).

    Step t takes, over the rows and columns at positions t onward, the first
    nonzero entry of least |value| in row-major order of positions (a unit
    is least, so the scan stops at the first row that holds one), moves it
    to (t, t), makes it positive and clears its column and then its row by
    floor quotients.  A remainder left behind (dirty) repeats the step;
    else the first later row that the pivot does not divide is folded into
    row t and the step repeats, and when there is none step t is done: row
    and column t are zero off the diagonal, and no later operation touches
    them.  cols[j] holds every row with an entry in column j, and maybe
    some that lost it, so a step reads only the rows it changes."""
    cols: List[Set[int]] = [set() for _ in range(n)]
    for i, r in enumerate(R):
        for j in r:
            cols[j].add(i)
    at, cat, cpos = list(range(m)), list(range(n)), list(range(n))
    row_ops: List[Op] = []
    col_ops: List[Op] = []
    t, k = 0, min(m, n)
    while t < k:
        piv, least = None, 0
        for pos in range(t, m):
            r = R[at[pos]]
            if r:
                a = min(map(abs, r.values()))
                if piv is None or a < least:
                    piv, least = pos, a
                    if a == 1:
                        break
        if piv is None:
            break
        i0 = at[piv]
        at[piv], at[t] = at[t], i0
        pr = R[i0]
        pos = n
        for j, v in pr.items():
            if (v == least or v == -least) and cpos[j] < pos:
                pos = cpos[j]
        c0 = cat[pos]
        if pos != t:
            c1 = cat[t]
            cat[pos], cat[t], cpos[c1], cpos[c0] = c1, c0, pos, t
        # row t is s * pr, with s the sign that makes the pivot positive
        s = 1
        p = pr[c0]
        if p < 0:
            s, p = -1, -p
            row_ops.append((i0, i0, -2))
        dirty = []
        for i in cols[c0]:
            if i != i0:
                ri = R[i]
                a = ri.get(c0)
                if a:
                    q = a // p
                    if q:
                        row_ops.append((i, i0, -q))
                        q *= s
                        for j, v in pr.items():
                            w = ri.get(j)
                            if w is None:
                                ri[j] = -q * v
                                cols[j].add(i)
                            else:
                                w -= q * v
                                if w:
                                    ri[j] = w
                                else:
                                    del ri[j]
                    if c0 in ri:
                        dirty.append(i)
        # clear row t: it keeps the remainders, and the column operations
        # reach only the dirty rows, the others with an entry in column c0
        R[i0] = left = {c0: p}
        for j, a in pr.items():
            if j != c0:
                a *= s
                q = a // p
                if q:
                    for i in dirty:
                        ri = R[i]
                        w = ri.get(j)
                        if w is None:
                            ri[j] = -q * ri[c0]
                            cols[j].add(i)
                        else:
                            w -= q * ri[c0]
                            if w:
                                ri[j] = w
                            else:
                                del ri[j]
                    col_ops.append((c0, j, -q))
                    a -= q * p
                if a:
                    left[j] = a
        if dirty or len(left) > 1:  # a remainder is left: pivot again
            continue
        if p != 1:
            rem = p.__rmod__
            bad = next((i for i in at[t + 1:] if any(map(rem, R[i].values()))), None)
            if bad is not None:
                row_ops.append((i0, bad, 1))
                left.update(R[bad])  # row t is {c0: p}, and row bad has nothing in c0
                for j in R[bad]:
                    cols[j].add(i0)
                continue
        t += 1
    diag = [R[at[pos]][cat[pos]] for pos in range(t)] + [0] * (k - t)
    return diag, at, cat, row_ops, col_ops


def _times(ops: Sequence[Op], size: int, ids: Sequence[int]) -> List[List[int]]:
    """Row i of the product of the elementary matrices ops, in order, for
    each i of ids: e_i * ops[0] * ops[1] * ..., one op at a time."""
    out = []
    for i in ids:
        x = [0] * size
        x[i] = 1
        for a, b, c in ops:
            if x[a]:
                x[b] += c * x[a]
        out.append(x)
    return out


def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """U, D, V with U*M*V = D diagonal, d_i | d_{i+1}, d_i >= 0, U and V
    unimodular: _smith's logs replayed onto the rows of the identity."""
    m, n = M.rows, M.cols
    diag, at, cat, row_ops, col_ops = _smith(
        [{j: v for j, v in enumerate(r) if v} for r in M.to_rows()], m, n)
    U = _times(row_ops[::-1], m, at)
    V = [[x[j] for j in cat] for x in _times(col_ops, n, range(n))]
    D = [0] * (m * n)
    for p, d in enumerate(diag):
        D[p * n + p] = d
    return (IntMatrix(m, m, tuple(x for r in U for x in r)), IntMatrix(m, n, tuple(D)),
            IntMatrix(n, n, tuple(x for r in V for x in r)))


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

    For the Smith form U*M*V = D, factor_rows are the positions of the rows
    of D that give the canonical factors, free ones first, and matrix holds
    the generator images: the rows of U at those positions, torsion ones
    mod d.  generators is m.  The cokernel keeps _smith's row ids (_at) and
    row operations (_ops), and derives U and the lifts from them on first
    read only; cokernel replays just the factor rows of U."""

    group: AbelianGroup
    matrix: ImageMatrix
    factor_rows: Tuple[int, ...]
    generators: int
    _at: List[int] = field(repr=False, compare=False)
    _ops: List[Op] = field(repr=False, compare=False)

    @cached_property
    def U(self) -> Tuple[Tuple[int, ...], ...]:
        """The row transform of the Smith form, all m rows."""
        return tuple(map(tuple, _times(self._ops[::-1], self.generators, self._at)))

    @cached_property
    def gen_images(self) -> Tuple[AbElement, ...]:
        free, tor = self.matrix
        return _elements(free, [row for row, _ in tor], self.generators)

    @cached_property
    def lifts(self) -> Tuple[Tuple[int, ...], ...]:
        """An integer lift back to Z^m of each canonical factor: the column of
        U^-1 at its factor row.  U^-1 undoes the logged row operations, last
        to first, so the column is a row of its transpose, which _times
        replays: the transposed inverse of Op (a, b, c) is (b, a, -c), and a
        negation (a, a, -2) is its own."""
        at, undo = self._at, [(b, a, -c) if a != b else (a, b, c)
                              for a, b, c in reversed(self._ops)]
        return tuple(map(tuple, _times(undo, self.generators,
                                       [at[p] for p in self.factor_rows])))

    def from_vector(self, v: Sequence[int]) -> AbElement:
        if len(v) != self.generators:  # dot_map would drop or zero-fill the others
            raise ValueError(f"a vector of {len(v)} coordinates for {self.generators} generators")
        return _map_vector(self.matrix, v)


def cokernel(rows: List[Dict[int, int]], m: int, n: int) -> Cokernel:
    """Z^m / im(M) for the m x n relation matrix M whose row i is rows[i],
    given as {column: value}.  _smith reduces the rows in place, so a caller
    hands over rows built for the call."""
    diag, at, _, ops, _ = _smith(rows, m, n)
    free = [p for p, d in enumerate(diag) if d == 0]
    free += range(len(diag), m)
    tor = [p for p, d in enumerate(diag) if d > 1]
    G = AbelianGroup(len(free), tuple([diag[p] for p in tor]))
    rs = free + tor
    U = _times(ops[::-1], m, [at[p] for p in rs])
    # free factor rows of U as they are, torsion ones mod d
    r = len(free)
    matrix = (tuple(map(tuple, U[:r])),
              tuple([(tuple([x % d for x in row]), d) for row, d in zip(U[r:], G.torsion)]))
    return Cokernel(G, matrix, tuple(rs), m, at, ops)


def _exponent_sums(words: Sequence[Word], m: int) -> List[List[int]]:
    """Row g holds generator g's exponent sum in every word, in order."""
    rows = [[0] * len(words) for _ in range(m)]
    for j, w in enumerate(words):
        for g, e in w.letters:
            rows[g][j] += e
    return rows


def abelianize(alphabet: Sequence[Generator], relators: Sequence[Word]) -> Cokernel:
    """H = cokernel of the exponent-sum matrix (rows = generators, cols =
    relators), built as sparse rows: row g holds generator g's exponent sum
    in each relator it has letters in."""
    rows: List[Dict[int, int]] = [{} for _ in alphabet]
    for j, w in enumerate(relators):
        for g, e in w.letters:
            row = rows[g]
            s = row.get(j, 0) + e
            if s:
                row[j] = s
            else:
                del row[j]
    return cokernel(rows, len(alphabet), len(relators))


def word_images(ck: Cokernel, words: Sequence[Word]) -> Tuple[AbElement, ...]:
    """phi extended multiplicatively to each word: the words' exponent sums
    are the columns of one dot_map."""
    sums = _exponent_sums(words, ck.generators)
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


def _torsion_relations(G: AbelianGroup, col: int) -> List[Dict[int, int]]:
    """One relation row, as {column: value}, per coordinate of G: the
    relation d * e_(rank + j) of torsion factor j, Z/d, is column col + j,
    and the free coordinates' rows are empty."""
    return [{} for _ in range(G.rank)] + [{col + j: d} for j, d in enumerate(G.torsion)]


def quotient(H: AbelianGroup, killed: Sequence[AbElement]) -> Projection:
    """G = H / <killed>, with the canonical surjection."""
    rows = _torsion_relations(H, 0)
    for j, x in enumerate(killed, len(H.torsion)):
        for row, v in zip(rows, _coordinates(H, x)):
            if v:
                row[j] = v
    ck = cokernel(rows, len(rows), len(H.torsion) + len(killed))
    return Projection(H, ck.group, ck.matrix)


def direct_sum(G1: AbelianGroup, G2: AbelianGroup) -> Tuple[AbelianGroup, Projection, Projection]:
    """G1 + G2 in canonical form, with the two inclusion maps."""
    m1 = G1.rank + len(G1.torsion)
    rows = _torsion_relations(G1, 0) + _torsion_relations(G2, len(G1.torsion))
    m = len(rows)
    ck = cokernel(rows, m, len(G1.torsion) + len(G2.torsion))
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
