"""Test-only oracles: the Z[H] loops as they were before packed integer keys.

`_cofactor`, `push_forward` and `_fox_column` build one `AbElement` per term
(`ab_add`, `ab_scale`); the packed code must agree with them on every input,
key for key and in the same term order.  `combine` is the per-coordinate
fold that abelian.dot_map replaced, so `push_forward` maps each term without
calling the map it checks."""
import itertools
from typing import Dict, Iterable, Tuple

from sutor.abelian import (
    AbElement,
    AbelianGroup,
    Cokernel,
    Projection,
    ab_add,
    ab_scale,
    zero_element,
)
from sutor.groupring import (
    GRMatrix,
    GroupMismatchError,
    GroupRingElement,
    _accumulate,
)
from sutor.words import Word


def combine(G: AbelianGroup, pairs: Iterable[Tuple[int, AbElement]]) -> AbElement:
    """The sum of c * img over the (c, img) pairs, in G, one ab_add and one
    ab_scale per nonzero c."""
    out = zero_element(G)
    for c, img in pairs:
        if c:
            out = ab_add(G, out, ab_scale(G, img, c))
    return out


def _products(G: AbelianGroup, p: Dict[AbElement, int], q: Dict[AbElement, int],
              sign: int = 1):
    """The (h1 + h2, sign * c1 * c2) terms of sign * p * q, uncollected."""
    return ((ab_add(G, h1, h2), sign * c1 * c2)
            for h1, c1 in p.items() for h2, c2 in q.items())


def _cofactor(A: GRMatrix) -> GroupRingElement:
    """Cofactor expansion along the sparsest row, or along a column when one
    is strictly sparser (lowest index on ties), memoized on the surviving
    (row-set, column-set)."""
    G = A.group
    E = A.entries
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict[AbElement, int]] = {}

    def det(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Dict[AbElement, int]:
        if len(rows) == 1:
            return E[rows[0]][cols[0]].terms
        key = (rows, cols)
        if key in memo:
            return memo[key]
        row_nz = [sum(1 for c in cols if E[r][c].terms) for r in rows]
        col_nz = [sum(1 for r in rows if E[r][c].terms) for c in cols]
        ri = min(range(len(rows)), key=row_nz.__getitem__)
        ci = min(range(len(cols)), key=col_nz.__getitem__)
        if row_nz[ri] <= col_nz[ci]:
            line = [(ri, j) for j in range(len(cols))]
        else:
            line = [(i, ci) for i in range(len(rows))]
        products = []
        for i, j in line:
            e = E[rows[i]][cols[j]].terms
            if e:
                minor = det(rows[:i] + rows[i + 1:], cols[:j] + cols[j + 1:])
                products.append(_products(G, e, minor, -1 if (i + j) % 2 else 1))
        memo[key] = acc = _accumulate({}, itertools.chain.from_iterable(products))
        return acc

    return GroupRingElement(G, det(tuple(range(A.rows)), tuple(range(A.cols))))


def push_forward(p: GroupRingElement, proj: Projection) -> GroupRingElement:
    """Apply a group homomorphism to every term, collecting coefficients."""
    if proj.source != p.group:
        raise GroupMismatchError("projection source does not match element group")
    terms = _accumulate({}, ((combine(proj.target, zip(h.free + h.tor, proj.images)), c)
                             for h, c in p.terms.items()))
    return GroupRingElement(proj.target, terms)


def _fox_column(w: Word, ab: Cokernel) -> Dict[int, Dict[AbElement, int]]:
    """phi(dw/dx) for every generator index x, in one walk over w: the
    syllable g^k at prefix u contributes phi(u) * d(g^k)/dg to row g."""
    G = ab.group
    column: Dict[int, Dict[AbElement, int]] = {}
    prefix = zero_element(G)
    for g, k in w.letters:
        img = ab.gen_images[g]
        js, sign = (range(k), 1) if k > 0 else (range(k, 0), -1)
        _accumulate(column.setdefault(g, {}),
                    ((ab_add(G, prefix, ab_scale(G, img, j)), sign) for j in js))
        prefix = ab_add(G, prefix, ab_scale(G, img, k))
    return column
