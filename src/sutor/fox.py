"""Abelianized Fox free differential calculus and the torsion matrix.

Derivatives are computed already composed with the abelianization map, so
all values live in Z[H] rather than the noncommutative ring Z[pi_1].  They
are computed on the packed keys of groupring._Packing and stay there: the
generator images are encoded in one encode_rows call over the rows of the
Cokernel's image matrix, and fox_matrix builds a GRMatrix straight from the
packed columns, as sparse rows that hold the nonzero entries only, under
a codec wide enough for every sum the determinant forms and for
normalize's shift of the determinant.  So no AbElement is built per image,
per Fox term or per determinant term, and nothing per zero entry.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from .abelian import Cokernel
from .groupring import GRMatrix, GroupRingElement, _max_abs, _Packing
from . import words as W
from .words import Generator, Word


def _fox_column(w: Word, pk: _Packing, up: List[int], down: List[int]) -> Dict[int, Dict[int, int]]:
    """phi(dw/dx) on packed keys for every generator index x, in one walk
    over w: the syllable g^k at prefix u contributes phi(u) * d(g^k)/dg to
    row g, its terms in exponent order u, u*g, ..., u*g^(k-1) for k > 0 and
    u*g^k, ..., u*g^-1 for k < 0, so a negative syllable first steps the
    prefix back to u*g^k (by k * up[g] at once when H has no torsion, else
    step by step through down[g] and fold).  up[g] and down[g] are the
    packed images of g and g^-1.  Each term adds +-1 straight into the row,
    dropping a key whose coefficient sums to 0: _accumulate's loop, inline,
    so that a syllable builds no key list and no generator."""
    fold = pk.fold if pk.torsion else None
    column: Dict[int, Dict[int, int]] = {}
    prefix = 0
    for g, k in w.letters:
        row = column.setdefault(g, {})
        get, step, sign = row.get, up[g], 1
        if k < 0:
            sign, back = -1, down[g]
            if fold:
                for _ in range(-k):
                    prefix = fold(prefix + back)
            else:
                prefix += k * step
        key = prefix
        for _ in range(abs(k)):
            c = get(key, 0) + sign
            if c:
                row[key] = c
            else:
                del row[key]
            key = fold(key + step) if fold else key + step
        if k > 0:
            prefix = key
    return column


def _columns(words: Sequence[Word], ab: Cokernel,
             rows: int) -> Tuple[_Packing, List[Dict[int, Dict[int, int]]]]:
    """The Fox column of each word on packed keys, under one codec, and that
    codec.  A prefix of a word, and with it every term, has free coordinates
    of at most the largest |free image coordinate| times the word's sum of
    |exponents|, which is also its number of Fox terms; the codec's bound is
    2 x rows times the largest of these, so a sum of one term per row fits,
    and so does normalize's shift of the determinant by one of its terms."""
    reach = [sum(abs(k) for _, k in w.letters) for w in words]
    W.check_budget(sum(reach), "{} Fox terms are")
    free, tor = ab.matrix
    pk = _Packing(ab.group, 2 * rows * _max_abs(free) * max(reach, default=0))
    up = pk.encode_rows(free + tuple(row for row, _ in tor), len(ab.U))
    down = [pk.neg(k) for k in up]
    return pk, [_fox_column(w, pk, up, down) for w in words]


def fox_derivative(w: Word, gen: Union[Generator, int], ab: Cokernel) -> GroupRingElement:
    """phi(dw/dx) for the generator x, using the closed form for powers:
    d(g^k)/dg = 1 + g + ... + g^(k-1) for k > 0, and
    d(g^k)/dg = -(g^k + g^(k+1) + ... + g^-1) for k < 0, packed."""
    x = gen.index if isinstance(gen, Generator) else gen
    pk, (column,) = _columns([w], ab, 1)
    return GroupRingElement(ab.group, packed=(pk, column.get(x, {})))


def fox_matrix(alphabet: Sequence[Generator], columns: Sequence[Word], ab: Cokernel) -> GRMatrix:
    """Rows indexed by generators, columns by the given words (relators
    first, then the R_- image words), on the packed keys of _columns: one
    codec serves the whole matrix, so each generator image is encoded once,
    and GRMatrix.entries wraps the packed entries, so no term is decoded.
    Each row is {column: entry} over its nonzero entries, so a sparse matrix
    costs its nonzeros."""
    pk, cols = _columns(columns, ab, len(alphabet))
    position = {g.index: i for i, g in enumerate(alphabet)}
    rows: List[Dict[int, Dict[int, int]]] = [{} for _ in alphabet]
    for j, col in enumerate(cols):
        for g, terms in col.items():
            if terms and g in position:
                rows[position[g]][j] = terms
    return GRMatrix(ab.group, pk, rows, len(columns))
