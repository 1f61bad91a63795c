"""Exact arithmetic in Z[H] for H a finitely generated abelian group.

Elements are finite integer-coefficient maps on group elements.  The unit
ambiguity +-h is handled by normalize(), which picks a canonical orbit
representative: translate a support point with the lex-least free part to the
origin, make its coefficient positive, and take the lexicographically least
term sequence.  A target already in this form is compared with equal().
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .abelian import (
    AbElement,
    AbelianGroup,
    IntMatrix,
    Projection,
    ab_add,
    ab_neg,
    det_int,
    direct_sum,
    zero_element,
)


class GroupMismatchError(ValueError):
    pass


class NotDivisibleError(ArithmeticError):
    pass


class UnsupportedStructureError(ValueError):
    """Valid input whose structure a computation does not support (exit 3)."""


class UnsupportedTorsionError(UnsupportedStructureError):
    pass


@dataclass(frozen=True)
class GroupRingElement:
    group: AbelianGroup
    terms: Dict[AbElement, int]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, int):
            return scalar_mul(other, self)
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return scalar_mul(other, self)
        return NotImplemented


def _key(e: AbElement):
    return (e.free, e.tor)


def element(group: AbelianGroup, terms: Dict[AbElement, int]) -> GroupRingElement:
    return GroupRingElement(group, {h: c for h, c in terms.items() if c})


def zero(group: AbelianGroup) -> GroupRingElement:
    return GroupRingElement(group, {})


def one(group: AbelianGroup) -> GroupRingElement:
    return GroupRingElement(group, {zero_element(group): 1})


def monomial(group: AbelianGroup, h: AbElement, c: int = 1) -> GroupRingElement:
    return element(group, {h: c})


def _check(p: GroupRingElement, q: GroupRingElement):
    if p.group != q.group:
        raise GroupMismatchError(f"{p.group} vs {q.group}")


def _accumulate(out: Dict, pairs: Iterable[Tuple[object, int]]) -> Dict:
    """Add each (key, coefficient) pair into out, dropping a key as soon as
    its coefficient sums to 0; the one accumulation loop of the package."""
    get = out.get
    for h, c in pairs:
        nc = get(h, 0) + c
        if nc:
            out[h] = nc
        else:
            out.pop(h, None)
    return out


def _products(G: AbelianGroup, p: Dict[AbElement, int], q: Dict[AbElement, int],
              sign: int = 1):
    """The (h1 + h2, sign * c1 * c2) terms of sign * p * q, uncollected."""
    return ((ab_add(G, h1, h2), sign * c1 * c2)
            for h1, c1 in p.items() for h2, c2 in q.items())


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
    return GroupRingElement(p.group, _accumulate({}, _products(p.group, p.terms, q.terms)))


def augmentation(p: GroupRingElement) -> int:
    return sum(p.terms.values())


def equal(p: GroupRingElement, q: GroupRingElement) -> bool:
    return p.group == q.group and p.terms == q.terms


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


@dataclass(frozen=True)
class GRMatrix:
    rows: int
    cols: int
    entries: Tuple[Tuple[GroupRingElement, ...], ...]

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[GroupRingElement]]) -> "GRMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        groups = {e.group for row in data for e in row}
        if len(groups) > 1:
            raise GroupMismatchError("matrix entries over different groups")
        return cls(rows, cols, tuple(tuple(row) for row in data))

    @property
    def group(self) -> AbelianGroup:
        return self.entries[0][0].group


def determinant(A: GRMatrix) -> GroupRingElement:
    """det A in Z[H].  A 1x1 matrix is its entry.  When H has at most one
    generator (trivial, Z or Z/d) the entries are Laurent polynomials in one
    variable t and det is exact integer arithmetic (Kronecker substitution):
    shift each row into non-negative degrees, substitute t = 2^k, take the
    fraction-free Bareiss det_int of the integer matrix and read its balanced
    base-2^k digits back, folding exponents mod d.  On |t| = 1 every entry is
    at most its sum of |coefficients|, so Hadamard's inequality bounds |det|
    there, and with it every coefficient of det, by
    B = prod_rows sqrt(sum_entries (sum |coefficients|)^2); k is chosen with
    2^(k-1) > B.  Any other H keeps the sparse cofactor expansion."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    if A.rows == 0:
        raise ValueError("empty matrix")
    if A.rows == 1:
        return A.entries[0][0]
    G = A.group
    if G.rank + len(G.torsion) > 1:
        return _cofactor(A)

    def exponent(h: AbElement) -> int:  # the one coordinate, or 0 when H = 1
        return sum(h.free) + sum(h.tor)

    def monomial_at(e: int) -> AbElement:
        return AbElement((e,) * G.rank, tuple(e % d for d in G.torsion))

    rows, shift, bound2, slots = [], 0, 1, 1
    for row in A.entries:
        lifted = [{exponent(h): c for h, c in e.terms.items()} for e in row]
        xs = [x for p in lifted for x in p]
        if not xs:
            return zero(G)
        lo = min(xs)
        shift += lo
        slots += max(xs) - lo
        bound2 *= sum(sum(abs(c) for c in p.values()) ** 2 for p in lifted)
        rows.append((lo, lifted))
    k = (bound2.bit_length() + 1) // 2 + 1  # 4^(k-1) > bound2 = B^2
    ints = [[_pack([p.get(x, 0) for x in range(lo, max(p) + 1)], k) if p else 0
             for p in lifted] for lo, lifted in rows]
    digits = _unpack(det_int(IntMatrix.from_rows(ints)), k, slots)
    return GroupRingElement(G, _accumulate({}, (
        (monomial_at(shift + x), c) for x, c in enumerate(digits) if c)))


def _pack(digits: List[int], k: int) -> int:
    """sum(d * 2^(k*i)) over the digits, lowest first, by halving, so the
    work is near-linear in the bit length rather than quadratic."""
    if len(digits) == 1:
        return digits[0]
    m = len(digits) // 2
    return _pack(digits[:m], k) + (_pack(digits[m:], k) << (k * m))


def _unpack(D: int, k: int, n: int) -> List[int]:
    """The n balanced base-2^k digits of D, lowest first; each must lie in
    (-2^(k-1), 2^(k-1)).  Inverse of _pack."""
    if n == 1:
        return [D]
    m = n // 2
    low = D & ((1 << (k * m)) - 1)
    high = D >> (k * m)
    if low >> (k * m - 1):
        low -= 1 << (k * m)
        high += 1
    return _unpack(low, k, m) + _unpack(high, k, n - m)


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


def normalize(p: GroupRingElement) -> GroupRingElement:
    """Canonical representative of the orbit {+-h*p : h in H}.  The only
    shifts tried move a support point h0 with the least free part to the
    origin: torsion residues lie in [0, d), so h0 then becomes the lex-least
    key, while a point with a larger free part never does."""
    if not p.terms:
        return p
    G = p.group

    def signature(h0: AbElement) -> Tuple:
        shift = ab_neg(G, h0)
        items = sorted((_key(ab_add(G, h, shift)), c) for h, c in p.terms.items())
        sign = -1 if items[0][1] < 0 else 1
        return tuple((k, sign * c) for k, c in items)

    low = min(h.free for h in p.terms)
    best = min(signature(h0) for h0 in p.terms if h0.free == low)
    return GroupRingElement(G, {AbElement(k[0], k[1]): c for k, c in best})


def sim_equal(p: GroupRingElement, q: GroupRingElement) -> bool:
    """True iff p = +-h*q for some h in H."""
    _check(p, q)
    return equal(normalize(p), normalize(q))


def push_forward(p: GroupRingElement, proj: Projection) -> GroupRingElement:
    """Apply a group homomorphism to every term, collecting coefficients."""
    if proj.source != p.group:
        raise GroupMismatchError("projection source does not match element group")
    terms = _accumulate({}, ((proj(h), c) for h, c in p.terms.items()))
    return GroupRingElement(proj.target, terms)


def sum_of_all_elements(G: AbelianGroup) -> GroupRingElement:
    """I_G: the sum of all group elements for finite G, zero otherwise."""
    if G.rank > 0:
        return zero(G)
    terms = {
        AbElement((), tt): 1
        for tt in itertools.product(*[range(d) for d in G.torsion])
    }
    return GroupRingElement(G, terms)


def external_product(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    """Bilinear product into the direct sum of the two groups."""
    _, i1, i2 = direct_sum(p.group, q.group)
    return mul(push_forward(p, i1), push_forward(q, i2))


def sorted_terms(p: GroupRingElement) -> List[Tuple[AbElement, int]]:
    return sorted(p.terms.items(), key=lambda item: _key(item[0]))


def to_records(p: GroupRingElement) -> dict:
    """Serialized form; bit-exact round-trip with from_records."""
    return {
        "group": {"rank": p.group.rank, "torsion": list(p.group.torsion)},
        "terms": [
            {"coeff": c, "free": list(h.free), "tor": list(h.tor)}
            for h, c in sorted_terms(p)
        ],
    }


def _int_list(value, what: str) -> Tuple[int, ...]:
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def from_records(obj: dict) -> GroupRingElement:
    """Inverse of to_records; raises ValueError when obj does not have its
    shape.  Torsion coordinates are read modulo their divisors."""
    group = obj.get("group") if isinstance(obj, dict) else None
    records = obj.get("terms") if isinstance(obj, dict) else None
    if not isinstance(group, dict) or not isinstance(group.get("rank"), int):
        raise ValueError("records need a group with an integer rank")
    if not isinstance(records, list) or not all(isinstance(t, dict) for t in records):
        raise ValueError("records need a list of term objects")
    G = AbelianGroup(group["rank"], _int_list(group.get("torsion"), "torsion"))
    terms: Dict[AbElement, int] = {}
    for t in records:
        free, tor = _int_list(t.get("free"), "free"), _int_list(t.get("tor"), "tor")
        if len(free) != G.rank or len(tor) != len(G.torsion):
            raise ValueError("term coordinates do not match group")
        if not isinstance(t.get("coeff"), int):
            raise ValueError("coeff must be an integer")
        h = AbElement(free, tuple(x % d for x, d in zip(tor, G.torsion)))
        _accumulate(terms, [(h, t["coeff"])])
    return GroupRingElement(G, terms)
