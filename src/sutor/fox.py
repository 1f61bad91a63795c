"""Abelianized Fox free differential calculus and the torsion matrix.

Derivatives are computed already composed with the abelianization map, so
all values live in Z[H] rather than the noncommutative ring Z[pi_1].
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Union

from .abelian import AbElement, Cokernel
from .groupring import GRMatrix, GroupRingElement, _accumulate, _max_free, _Packing
from .words import WORK_BUDGET, Generator, Word


def _fox_column(w: Word, pk: _Packing, up: List[int], down: List[int]) -> Dict[int, Dict[int, int]]:
    """phi(dw/dx) on packed keys for every generator index x, in one walk
    over w: the syllable g^k at prefix u contributes phi(u) * d(g^k)/dg to
    row g.  up[g] and down[g] are the packed images of g and g^-1."""
    fold = pk.fold
    column: Dict[int, Dict[int, int]] = {}
    prefix = 0
    for g, k in w.letters:
        keys = []
        if k > 0:
            for _ in range(k):
                keys.append(prefix)
                prefix = fold(prefix + up[g])
        else:
            for _ in range(-k):
                prefix = fold(prefix + down[g])
                keys.append(prefix)
            keys.reverse()  # the exponent order u*g^k, ..., u*g^-1
        sign = 1 if k > 0 else -1
        _accumulate(column.setdefault(g, {}), ((h, sign) for h in keys))
    return column


def _columns(words: Sequence[Word], ab: Cokernel) -> List[Dict[int, Dict[AbElement, int]]]:
    """The Fox column of each word, computed under one codec; each distinct
    key of the matrix is decoded once.  A prefix of a word, and with it
    every term, has free coordinates of at most the largest |free image
    coordinate| times the word's sum of |exponents|, which is also its
    number of Fox terms."""
    reach = [sum(abs(k) for _, k in w.letters) for w in words]
    if sum(reach) > WORK_BUDGET:
        raise ValueError(f"{sum(reach)} Fox terms are over the work budget of {WORK_BUDGET}")
    pk = _Packing(ab.group, _max_free(ab.gen_images) * max(reach, default=0))
    up = [pk.encode(img) for img in ab.gen_images]
    down = [pk.neg(k) for k in up]
    cols = [_fox_column(w, pk, up, down) for w in words]
    keys = {k for col in cols for terms in col.values() for k in terms}
    element = dict(zip(keys, pk.decode(keys)))
    return [{g: {element[k]: c for k, c in terms.items()} for g, terms in col.items()}
            for col in cols]


def fox_derivative(w: Word, gen: Union[Generator, int], ab: Cokernel) -> GroupRingElement:
    """phi(dw/dx) for the generator x, using the closed form for powers:
    d(g^k)/dg = 1 + g + ... + g^(k-1) for k > 0, and
    d(g^k)/dg = -(g^k + g^(k+1) + ... + g^-1) for k < 0."""
    x = gen.index if isinstance(gen, Generator) else gen
    return GroupRingElement(ab.group, _columns([w], ab)[0].get(x, {}))


def fox_matrix(alphabet: Sequence[Generator], columns: Sequence[Word], ab: Cokernel) -> GRMatrix:
    """Rows indexed by generators, columns by the given words
    (relators first, then the R_- image words).  One codec serves the whole
    matrix, so each generator image is encoded once.  Every zero entry is
    one shared empty element, so a sparse matrix costs its nonzeros."""
    G = ab.group
    empty = GroupRingElement(G, {})
    position = {g.index: i for i, g in enumerate(alphabet)}
    rows = [[empty] * len(columns) for _ in alphabet]
    for j, col in enumerate(_columns(columns, ab)):
        for g, terms in col.items():
            if terms and g in position:
                rows[position[g]][j] = GroupRingElement(G, terms)
    return GRMatrix.from_rows(rows)
