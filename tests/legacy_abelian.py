"""Test-only oracles: det_int (tests/int_matrix.py), abelian._smith and abelian.cokernel as
they were before the sparse determinant, the Smith pivot shortcut and the
transforms carried as blocks of the Smith rows, and the per-element
arithmetic on AbElement tuples (`ab_add`, `ab_neg`, `ab_scale`, `element`,
`image_matrix`) that src/ computed with before it moved to packed keys and
coordinate rows.

`det_int` is the dense fraction-free Bareiss elimination: it pivots on the
diagonal, swapping in the first row below with a nonzero in the pivot
column, and rescales every row below the pivot at every step, with
`bareiss_pivot` restricted to the trailing block.  `_smith`
scans the whole remaining block for its pivot, always runs the
divisibility scan and keeps U, its inverse Ui and V as separate matrices;
smith_normal_form must return the same U, D and V, and `cokernel` gives the
group, generator images and lifts (the columns of Ui) that abelian.cokernel
must return."""
from typing import List, Sequence

from sutor.abelian import AbElement, AbelianGroup, ImageMatrix, IntMatrix


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


def image_matrix(G: AbelianGroup, images: Sequence[AbElement]) -> ImageMatrix:
    """The matrix of the homomorphism Z^len(images) -> G sending e_j to
    images[j] (row i holds coordinate i of every image), split into its
    free rows and its (torsion row, d) pairs."""
    vs = [img.free + img.tor for img in images]
    rows = [tuple(v[i] for v in vs) for i in range(G.rank + len(G.torsion))]
    return tuple(rows[:G.rank]), tuple(zip(rows[G.rank:], G.torsion))


def bareiss_pivot(rows: List[List[int]], k: int, c: int, den: int,
                  first: int, lo: int) -> None:
    """abelian.bareiss_pivot on the trailing block: every row i >= first
    other than k becomes (rows[i] * p - rows[i][c] * rows[k]) // den on the
    columns from lo on, p = rows[k][c]; the other entries stay as they are."""
    pr = rows[k]
    p = pr[c]
    tail = pr[lo:]
    for i in range(first, len(rows)):
        if i != k:
            row = rows[i]
            f = row[c]
            if f:
                row[lo:] = [(v * p - f * w) // den for v, w in zip(row[lo:], tail)]
            else:
                row[lo:] = [v * p // den for v in row[lo:]]


def det_int(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        # column k below the pivot is never read again, so it is left stale
        bareiss_pivot(a, k, k, prev, k + 1, k + 1)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _smith(data: List[List[int]], m: int, n: int):
    """Return (U, Uinv, D, V) as row-lists with U*M*V = D in Smith form."""
    A = [list(row) for row in data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def row_add(i, j, c):
        # row_i += c * row_j ; inverse acts on columns of Ui
        for k in range(n):
            A[i][k] += c * A[j][k]
        for k in range(m):
            U[i][k] += c * U[j][k]
        for r in range(m):
            Ui[r][j] -= c * Ui[r][i]

    def row_neg(i):
        for k in range(n):
            A[i][k] = -A[i][k]
        for k in range(m):
            U[i][k] = -U[i][k]
        for r in range(m):
            Ui[r][i] = -Ui[r][i]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def col_add(i, j, c):
        # col_i += c * col_j
        for r in range(m):
            A[r][i] += c * A[r][j]
        for r in range(n):
            V[r][i] += c * V[r][j]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of minimal absolute value as pivot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        if A[t][t] < 0:
            row_neg(t)
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
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is None:
            t += 1
        else:
            # fold a row the pivot does not divide into row t and pivot again
            row_add(t, bad, 1)
    return U, Ui, A, V



def cokernel(rel_rows: Sequence[Sequence[int]], m: int, n: int):
    """(group, gen_images, lifts) of Z^m / im(M) from the Smith form above."""
    U, Ui, D, _ = _smith([list(r) for r in rel_rows], m, n)
    diag = [D[i][i] for i in range(min(m, n))]
    tor_rows = [i for i, d in enumerate(diag) if d >= 2]
    free_rows = [i for i, d in enumerate(diag) if d == 0] + list(range(len(diag), m))
    G = AbelianGroup(len(free_rows), tuple(diag[i] for i in tor_rows))
    gen_images = tuple(
        AbElement(
            tuple(U[r][i] for r in free_rows),
            tuple(U[r][i] % diag[r] for r in tor_rows),
        )
        for i in range(m)
    )
    lifts = tuple(tuple(Ui[i][r] for i in range(m)) for r in free_rows + tor_rows)
    return G, gen_images, lifts
