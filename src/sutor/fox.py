"""Abelianized Fox free differential calculus and the torsion matrix.

Derivatives are computed already composed with the abelianization map, so
all values live in Z[H] rather than the noncommutative ring Z[pi_1].  They
are computed on the packed keys of groupring._Packing, and the torsion
matrix keeps them: fox_matrix builds a GRMatrix straight from the packed
columns, under a codec wide enough for every sum the determinant forms, so
no AbElement is built per Fox term.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from .abelian import Cokernel
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


def _columns(words: Sequence[Word], ab: Cokernel,
             rows: int) -> Tuple[_Packing, List[Dict[int, Dict[int, int]]]]:
    """The Fox column of each word on packed keys, under one codec, and that
    codec.  A prefix of a word, and with it every term, has free coordinates
    of at most the largest |free image coordinate| times the word's sum of
    |exponents|, which is also its number of Fox terms; the codec's bound is
    rows times the largest of these, so a sum of one term per row fits."""
    reach = [sum(abs(k) for _, k in w.letters) for w in words]
    if sum(reach) > WORK_BUDGET:
        raise ValueError(f"{sum(reach)} Fox terms are over the work budget of {WORK_BUDGET}")
    pk = _Packing(ab.group, rows * _max_free(ab.gen_images) * max(reach, default=0))
    up = [pk.encode(img) for img in ab.gen_images]
    down = [pk.neg(k) for k in up]
    return pk, [_fox_column(w, pk, up, down) for w in words]


def fox_derivative(w: Word, gen: Union[Generator, int], ab: Cokernel) -> GroupRingElement:
    """phi(dw/dx) for the generator x, using the closed form for powers:
    d(g^k)/dg = 1 + g + ... + g^(k-1) for k > 0, and
    d(g^k)/dg = -(g^k + g^(k+1) + ... + g^-1) for k < 0."""
    x = gen.index if isinstance(gen, Generator) else gen
    pk, (column,) = _columns([w], ab, 1)
    return GroupRingElement(ab.group, pk.decode_terms(column.get(x, {})))


def fox_matrix(alphabet: Sequence[Generator], columns: Sequence[Word], ab: Cokernel) -> GRMatrix:
    """Rows indexed by generators, columns by the given words (relators
    first, then the R_- image words), on the packed keys of _columns: one
    codec serves the whole matrix, so each generator image is encoded once,
    and no term is decoded until a caller reads GRMatrix.entries.  Every
    zero entry is one shared empty dict, so a sparse matrix costs its
    nonzeros."""
    pk, cols = _columns(columns, ab, len(alphabet))
    empty: Dict[int, int] = {}
    position = {g.index: i for i, g in enumerate(alphabet)}
    rows = [[empty] * len(columns) for _ in alphabet]
    for j, col in enumerate(cols):
        for g, terms in col.items():
            if terms and g in position:
                rows[position[g]][j] = terms
    return GRMatrix(ab.group, pk, rows)
