"""Test-only oracles: the Z[H] loops as they were before packed integer keys.

`_cofactor`, `push_forward` and `_fox_column` build one `AbElement` per term
(`ab_add`, `ab_scale`); the packed code must agree with them on every input,
key for key and in the same term order.  `combine` is the per-coordinate
fold that abelian.dot_map replaced, so `push_forward` maps each term without
calling the map it checks.

The element helpers (`add`, `neg`, `scalar_mul`, `mul`, `from_rows`) and the
two writers (`to_records`, `format_element`) are the per-term versions that
read `terms`: each decodes a packed operand and encodes the result again, and
the writers sort the decoded terms by (free, tor).  The packed code must give
the same terms in the same order, the same codecs and the same text.

`exact_div` is the division on decoded terms, in graded-lex order on
exponents shifted into the non-negative cone; the division on packed keys
must give the same quotient and raise NotDivisibleError on the same pairs."""
import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

from legacy_abelian import ab_add, ab_scale
from sutor.abelian import (
    AbElement,
    AbelianGroup,
    Cokernel,
    Projection,
    zero_element,
)
from sutor import groupring as GR
from sutor.groupring import (
    GRMatrix,
    GroupMismatchError,
    GroupRingElement,
    NotDivisibleError,
    UnsupportedTorsionError,
    _accumulate,
    _check,
    _max_free,
    _Packing,
    zero,
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


def add(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    _check(p, q)
    return GroupRingElement(p.group, _accumulate(dict(p.terms), q.terms.items()))


def neg(p: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(p.group, {h: -c for h, c in p.terms.items()})


def scalar_mul(k: int, p: GroupRingElement) -> GroupRingElement:
    if k == 0:
        return zero(p.group)
    return GroupRingElement(p.group, {h: k * c for h, c in p.terms.items()})


def mul(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    _check(p, q)
    pk = _Packing(p.group, 2 * (_max_free(p.terms) + _max_free(q.terms)))
    products = GR._products(pk, pk.encode_terms(p.terms), pk.encode_terms(q.terms))
    return GroupRingElement(p.group, packed=(pk, _accumulate({}, products)))


def from_rows(data: Sequence[Sequence[GroupRingElement]]) -> GRMatrix:
    """GRMatrix.from_rows, bounding and encoding the decoded terms."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    if any(len(row) != cols for row in data):
        raise ValueError("ragged rows")
    G = pk = None
    if rows and cols:
        G = data[0][0].group
        if any(e.group is not G and e.group != G for row in data for e in row):
            raise GroupMismatchError("matrix entries over different groups")
        pk = _Packing(G, 2 * rows * _max_free(h for row in data for e in row for h in e.terms))
    A = GRMatrix(G, pk, [{j: pk.encode_terms(e.terms) for j, e in enumerate(row) if e.terms}
                         for row in data], cols)
    A.__dict__["entries"] = tuple(tuple(row) for row in data)
    return A


def _key(e: AbElement):
    return (e.free, e.tor)


def sorted_terms(p: GroupRingElement) -> List[Tuple[AbElement, int]]:
    """The terms in (free, tor) order."""
    return sorted(p.terms.items(), key=lambda item: _key(item[0]))


def to_records(p: GroupRingElement) -> dict:
    return {
        "group": {"rank": p.group.rank, "torsion": list(p.group.torsion)},
        "terms": [
            {"coeff": c, "free": list(h.free), "tor": list(h.tor)}
            for h, c in sorted_terms(p)
        ],
    }


def format_element(p: GroupRingElement, names: Sequence[str]) -> str:
    if not p.terms:
        return "0"
    parts: List[str] = []
    for h, c in sorted_terms(p):
        factors = []
        for name, e in zip(names, h.free):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        for i, e in enumerate(h.tor):
            if e == 1:
                factors.append(f"s{i + 1}")
            elif e != 0:
                factors.append(f"s{i + 1}^{e}")
        mono = " ".join(factors)
        coeff = abs(c)
        if not mono:
            body = str(coeff)
        elif coeff == 1:
            body = mono
        else:
            body = f"{coeff} {mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def exact_div(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    """Exact quotient p/q in Z[H] for torsion-free H; raises NotDivisibleError
    when no quotient exists.  Both operands are shifted into the non-negative
    cone, then reduced by single-divisor division under graded-lex order."""
    _check(p, q)
    if p.group.torsion:
        raise UnsupportedTorsionError("exact division needs a torsion-free group")
    if not q.terms:
        raise ZeroDivisionError("division by zero in group ring")
    if not p.terms:
        return zero(p.group)
    b = p.group.rank

    def anchored(x: GroupRingElement):
        pts = [h.free for h in x.terms]
        mins = tuple(min(pt[i] for pt in pts) for i in range(b))
        return {tuple(a - m for a, m in zip(h.free, mins)): c for h, c in x.terms.items()}, mins

    P, pmin = anchored(p)
    Q, qmin = anchored(q)

    def grlex(e):
        return (sum(e), e)

    ltq = max(Q, key=grlex)
    cq = Q[ltq]
    R = dict(P)
    quot: Dict[Tuple[int, ...], int] = {}
    while R:
        ltr = max(R, key=grlex)
        cr = R[ltr]
        mono = tuple(a - c for a, c in zip(ltr, ltq))
        if any(x < 0 for x in mono) or cr % cq != 0:
            raise NotDivisibleError("no exact quotient")
        c = cr // cq
        quot[mono] = c
        _accumulate(R, ((tuple(a + d for a, d in zip(mono, e)), -c * ce)
                        for e, ce in Q.items()))
    offset = tuple(a - c for a, c in zip(pmin, qmin))
    return GroupRingElement(
        p.group,
        {AbElement(tuple(a + o for a, o in zip(e, offset)), ()): c for e, c in quot.items()},
    )
