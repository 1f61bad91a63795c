"""Abelianized Fox free differential calculus and the torsion matrix.

Derivatives are computed already composed with the abelianization map, so
all values live in Z[H] rather than the noncommutative ring Z[pi_1].
"""
from __future__ import annotations

from typing import Dict, Sequence, Union

from .abelian import AbElement, Cokernel, ab_add, ab_scale, zero_element
from .groupring import GRMatrix, GroupRingElement, _accumulate
from .words import Generator, Word


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


def fox_derivative(w: Word, gen: Union[Generator, int], ab: Cokernel) -> GroupRingElement:
    """phi(dw/dx) for the generator x, using the closed form for powers:
    d(g^k)/dg = 1 + g + ... + g^(k-1) for k > 0, and
    d(g^k)/dg = -(g^k + g^(k+1) + ... + g^-1) for k < 0."""
    x = gen.index if isinstance(gen, Generator) else gen
    return GroupRingElement(ab.group, _fox_column(w, ab).get(x, {}))


def fox_matrix(alphabet: Sequence[Generator], columns: Sequence[Word], ab: Cokernel) -> GRMatrix:
    """Rows indexed by generators, columns by the given words
    (relators first, then the R_- image words)."""
    cols = [_fox_column(w, ab) for w in columns]
    return GRMatrix.from_rows([
        [GroupRingElement(ab.group, col.get(g.index, {})) for col in cols]
        for g in alphabet
    ])
