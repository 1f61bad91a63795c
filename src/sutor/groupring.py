"""Exact arithmetic in Z[H] for H a finitely generated abelian group.

Elements are finite integer-coefficient maps on group elements.  The unit
ambiguity +-h is handled by normalize(), which picks a canonical orbit
representative: translate a support point with the lex-least free part to the
origin, make its coefficient positive, and take the lexicographically least
term sequence.  A target already in this form is compared with equal().

The hot loops work on packed keys (_Packing), not on AbElement: one Python
int holds the coordinates (free..., tor...) as w-bit digits, the first
coordinate most significant.  Free digits are balanced, in (-2^(w-1),
2^(w-1)); torsion digits are the lowest and lie in [0, d).  w exceeds the
bit length of the largest d and of a caller's bound on every |free
coordinate| an intermediate can reach, so adding keys adds coordinates (a
torsion digit that reaches d loses d again, see fold) and int order is the
(free, tor) lex order.  The bound of each caller:

- mul: the largest |free coordinate| of p plus that of q;
- GRMatrix.from_rows: rows x the largest |free coordinate| of any entry,
  since every _cofactor memo entry is a sum of one entry key per row;
- normalize: 2 x the largest |free coordinate|, for a term minus a support
  point;
- fox.fox_matrix: rows x the largest |free coordinate| of a generator image
  x the longest word's sum of |exponents|, which bounds every prefix of a
  word, so the same keys serve the Fox terms and every _cofactor sum.

Keys are encoded once on the way in and decoded once on the way out, so
GroupRingElement.terms is keyed by AbElement at every public boundary.  A
GRMatrix carries its keys and its codec: fox.fox_matrix hands its packed
columns over as they are, determinant reads them, and only the
determinant's terms and a caller that reads GRMatrix.entries see
AbElements.  push_forward needs no codec: it collects terms on the
coordinate tuples that abelian.dot_map returns and builds one AbElement
per output term.

determinant stays sparse when H has at most one generator: a key is then
the one exponent of t, only the nonzero entries are packed into integers,
and the elimination is the sparse-row Bareiss abelian.det_sparse.  Other H
use _cofactor.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .abelian import (
    AbElement,
    AbelianGroup,
    Projection,
    det_sparse,
    direct_sum,
    dot_map,
    zero_element,
)
from .words import WORK_BUDGET


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


class _Packing:
    """The packed-key codec of G for free coordinates of absolute value at
    most bound (see the module docstring)."""

    def __init__(self, G: AbelianGroup, bound: int):
        w = max(bound.bit_length(), max(G.torsion, default=0).bit_length()) + 1
        n = G.rank + len(G.torsion)
        shifts = [w * (n - 1 - i) for i in range(n)]
        self.width = w
        self.mask = (1 << w) - 1
        self.free_shifts = shifts[:G.rank]
        self.torsion = list(zip(shifts[G.rank:], G.torsion))
        self.tor_bits = w * len(G.torsion)  # k >> tor_bits orders keys by free part
        self._half = 1 << (w - 1)
        self._offset = sum(self._half << s for s in self.free_shifts)
        self._divisors = sum(d << s for s, d in self.torsion)

    def encode(self, h: AbElement) -> int:
        k, w = 0, self.width
        for c in h.free + h.tor:
            k = (k << w) + c
        return k

    def fold(self, k: int) -> int:
        """k with every torsion digit in [d, 2d) brought back to [0, d)."""
        m = self.mask
        for s, d in self.torsion:
            if (k >> s) & m >= d:
                k -= d << s
        return k

    def neg(self, k: int) -> int:
        """The key of -h, for k the key of h: free digits change sign and each
        torsion digit t becomes d - t, which fold takes back to 0 when t = 0."""
        return self.fold(self._divisors - k)

    def decode(self, keys: Iterable[int]) -> Iterator[AbElement]:
        """The AbElement of each key, in order; one pass over the keys per
        coordinate."""
        us = [k + self._offset for k in keys]  # free digits now in [0, 2^w)
        m, half = self.mask, self._half
        free = zip(*[[((u >> s) & m) - half for u in us] for s in self.free_shifts])
        tor = zip(*[[(u >> s) & m for u in us] for s, _ in self.torsion])
        return map(AbElement, free if self.free_shifts else itertools.repeat(()),
                   tor if self.torsion else itertools.repeat(()))

    def encode_terms(self, terms: Dict[AbElement, int]) -> Dict[int, int]:
        encode = self.encode
        return {encode(h): c for h, c in terms.items()}

    def decode_terms(self, terms: Dict[int, int]) -> Dict[AbElement, int]:
        return dict(zip(self.decode(terms), terms.values()))


def _max_free(terms: Iterable[AbElement]) -> int:
    """The largest |free coordinate| of the elements (torsion digits fit any
    _Packing of the group)."""
    return max(map(abs, itertools.chain.from_iterable(h.free for h in terms)), default=0)


def _products(pk: _Packing, p: Dict[int, int], q: Dict[int, int], sign: int = 1):
    """The (h1 + h2, sign * c1 * c2) terms of sign * p * q on packed keys,
    uncollected."""
    if pk.torsion:
        fold = pk.fold
        return ((fold(h1 + h2), sign * c1 * c2)
                for h1, c1 in p.items() for h2, c2 in q.items())
    return ((h1 + h2, sign * c1 * c2) for h1, c1 in p.items() for h2, c2 in q.items())


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
    pk = _Packing(p.group, _max_free(p.terms) + _max_free(q.terms))
    products = _products(pk, pk.encode_terms(p.terms), pk.encode_terms(q.terms))
    return GroupRingElement(p.group, pk.decode_terms(_accumulate({}, products)))


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


class GRMatrix:
    """A rows x cols matrix over Z[H], kept on packed keys: packed[i][j] is
    entry (i, j) as {key: coefficient} under one codec, packing, whose bound
    covers every sum of one key per row, so determinant and _cofactor use the
    keys as they are.  Every zero entry is one shared empty dict.  entries,
    the GroupRingElement form, is decoded once, on first read."""

    def __init__(self, group: AbelianGroup, packing: _Packing,
                 packed: List[List[Dict[int, int]]]):
        self.group = group
        self.packing = packing
        self.packed = packed
        self.rows = len(packed)
        self.cols = len(packed[0]) if packed else 0

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[GroupRingElement]]) -> "GRMatrix":
        """The matrix of the given entries, encoded under a codec of bound
        rows x the largest |free coordinate| of any entry; entries is the
        given rows, so nothing is decoded."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        G = pk = None
        if rows and cols:
            G = data[0][0].group  # by identity first: entries usually share it
            if any(e.group is not G and e.group != G for row in data for e in row):
                raise GroupMismatchError("matrix entries over different groups")
            pk = _Packing(G, rows * _max_free(h for row in data for e in row for h in e.terms))
        empty: Dict[int, int] = {}
        A = cls(G, pk, [[pk.encode_terms(e.terms) if e.terms else empty for e in row]
                        for row in data])
        A.__dict__["entries"] = tuple(tuple(row) for row in data)
        return A

    @cached_property
    def entries(self) -> Tuple[Tuple[GroupRingElement, ...], ...]:
        """Each distinct key of the matrix decoded once; every zero entry is
        one shared empty element."""
        G, pk = self.group, self.packing
        keys = set().union(*[e for row in self.packed for e in row if e])
        element = dict(zip(keys, pk.decode(keys)))
        empty = GroupRingElement(G, {})
        return tuple([tuple([GroupRingElement(G, {element[k]: c for k, c in e.items()})
                             if e else empty for e in row]) for row in self.packed])

    def __eq__(self, other):
        if not isinstance(other, GRMatrix):
            return NotImplemented
        return self.entries == other.entries


def determinant(A: GRMatrix) -> GroupRingElement:
    """det A in Z[H].  When H has at most one generator (trivial, Z or Z/d)
    a key is its one coordinate, or 0 when H = 1, so the entries are
    Laurent polynomials in one variable t whose exponents are the keys, and
    det is exact integer arithmetic (Kronecker substitution): shift each row
    into non-negative degrees, substitute t = 2^k in the nonzero entries
    only, take the sparse fraction-free Bareiss abelian.det_sparse of those
    rows and read its balanced base-2^k digits back, folding exponents mod
    d.  On |t| = 1 every entry is at most its sum of |coefficients|, so
    Hadamard's inequality bounds |det| there, and with it every coefficient
    of det, by B = prod_rows sqrt(sum_entries (sum |coefficients|)^2); k is
    chosen with 2^(k-1) > B.  A 1x1 matrix and any other H use the sparse
    cofactor expansion.  Only the output terms become AbElements."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    if A.rows == 0:
        raise ValueError("empty matrix")
    G = A.group
    if A.rows == 1 or G.rank + len(G.torsion) > 1:
        return _cofactor(A)

    def monomial_at(e: int) -> AbElement:
        return AbElement((e,) * G.rank, tuple(e % d for d in G.torsion))

    rows, shift, bound2, slots = [], 0, 1, 1
    for row in A.packed:
        lifted = {j: p for j, p in enumerate(row) if p}
        if not lifted:
            return zero(G)
        lo = min(min(p) for p in lifted.values())
        shift += lo
        slots += max(max(p) for p in lifted.values()) - lo
        bound2 *= sum(sum(map(abs, p.values())) ** 2 for p in lifted.values())
        rows.append((lo, lifted))
    if slots > WORK_BUDGET:
        raise ValueError(f"a determinant of {slots} powers of t is over the work budget "
                         f"of {WORK_BUDGET}")
    k = (bound2.bit_length() + 1) // 2 + 1  # 4^(k-1) > bound2 = B^2
    packed = [{j: _pack([p.get(x, 0) for x in range(lo, max(p) + 1)], k)
               for j, p in lifted.items()} for lo, lifted in rows]
    digits = _unpack(det_sparse(packed), k, slots)
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
    (row-set, column-set), on the matrix's own keys and codec.  The term
    products of the whole expansion are counted against WORK_BUDGET before
    each line makes them."""
    G, pk, E = A.group, A.packing, A.packed
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict[int, int]] = {}
    work = 0

    def det(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Dict[int, int]:
        nonlocal work
        if len(rows) == 1:
            return E[rows[0]][cols[0]]
        key = (rows, cols)
        if key in memo:
            return memo[key]
        row_nz = [sum(1 for c in cols if E[r][c]) for r in rows]
        col_nz = [sum(1 for r in rows if E[r][c]) for c in cols]
        ri = min(range(len(rows)), key=row_nz.__getitem__)
        ci = min(range(len(cols)), key=col_nz.__getitem__)
        if row_nz[ri] <= col_nz[ci]:
            line = [(ri, j) for j in range(len(cols))]
        else:
            line = [(i, ci) for i in range(len(rows))]
        products = []  # lazy: none is made before the budget check
        for i, j in line:
            e = E[rows[i]][cols[j]]
            if e:
                minor = det(rows[:i] + rows[i + 1:], cols[:j] + cols[j + 1:])
                work += len(e) * len(minor)
                products.append(_products(pk, e, minor, -1 if (i + j) % 2 else 1))
        if work > WORK_BUDGET:
            raise ValueError(f"a cofactor expansion of at least {work} term products is over "
                             f"the work budget of {WORK_BUDGET}")
        memo[key] = acc = _accumulate({}, itertools.chain.from_iterable(products))
        return acc

    return GroupRingElement(G, pk.decode_terms(det(tuple(range(A.rows)), tuple(range(A.cols)))))


def normalize(p: GroupRingElement) -> GroupRingElement:
    """Canonical representative of the orbit {+-h*p : h in H}.  The only
    shifts tried move a support point h0 with the least free part to the
    origin: torsion residues lie in [0, d), so h0 then becomes the lex-least
    key, while a point with a larger free part never does.  Keys are packed,
    so a shift is one int add and a signature sorts ints."""
    if not p.terms:
        return p
    G = p.group
    pk = _Packing(G, 2 * _max_free(p.terms))
    fold, tb = pk.fold, pk.tor_bits
    terms = list(zip(map(pk.encode, p.terms), p.terms.values()))

    def signature(k0: int) -> Tuple:
        shift = pk.neg(k0)
        items = sorted((fold(k + shift), c) for k, c in terms)
        sign = -1 if items[0][1] < 0 else 1
        return tuple((k, sign * c) for k, c in items)

    low = min(k >> tb for k, _ in terms)
    best = min(signature(k0) for k0, _ in terms if k0 >> tb == low)
    return GroupRingElement(G, pk.decode_terms(dict(best)))


def sim_equal(p: GroupRingElement, q: GroupRingElement) -> bool:
    """True iff p = +-h*q for some h in H."""
    _check(p, q)
    return equal(normalize(p), normalize(q))


def push_forward(p: GroupRingElement, proj: Projection) -> GroupRingElement:
    """Apply a group homomorphism to every term, collecting coefficients on
    the (free, tor) tuples of abelian.dot_map, so an AbElement is built per
    output term, not per input term."""
    if proj.source != p.group:
        raise GroupMismatchError("projection source does not match element group")
    M = proj.matrix
    terms = _accumulate({}, ((dot_map(M, h.free + h.tor), c) for h, c in p.terms.items()))
    return GroupRingElement(proj.target, {AbElement(f, t): c for (f, t), c in terms.items()})


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
