"""Exact arithmetic in Z[H] for H a finitely generated abelian group.

Elements are finite integer-coefficient maps on group elements.  The unit
ambiguity +-h is handled by normalize(), which picks a canonical orbit
representative: translate a support point with the lex-least free part to the
origin, make its coefficient positive, and take the lexicographically least
term sequence.  A target already in this form is compared with equal().

Every element is held on packed keys (_Packing): one Python int holds the
coordinates (free..., tor...) as w-bit digits, the first coordinate most
significant.  Free digits are balanced, in (-2^(w-1), 2^(w-1)); torsion
digits are the lowest and lie in [0, d).  w exceeds the bit length of the
largest d and of a caller's bound on every |free coordinate| an
intermediate can reach, so adding keys adds coordinates (a torsion digit
that reaches d loses d again, see fold) and int order is the (free, tor)
lex order.  The bound of each caller:

- mul: 2 x (the largest |free coordinate| of p plus that of q);
- add: the wider of its operands' codecs, which holds twice the largest
  |free coordinate| of either, so of the sum;
- GRMatrix.from_rows: 2 x rows x the largest |free coordinate| of any
  entry, since every _cofactor memo entry is a sum of one entry key per row
  and normalize shifts the determinant by one of its terms;
- fox.fox_matrix: 2 x rows x the largest |free coordinate| of a generator
  image x the longest word's sum of |exponents|, which bounds every prefix
  of a word, so the same keys serve the Fox terms, every _cofactor sum and
  normalize's shift of the determinant;
- an element built from coordinates (_from_rows: the term constructor,
  from_records, push_forward's images, I_G, polytope.cyclic_sum): 2 x the
  largest |free coordinate|;
- exact_div: 2 x (P + 3Q), for P and Q the largest |free coordinate| of
  the dividend and the divisor, which holds every candidate quotient key.

So every codec holds a term minus a support point, and normalize shifts an
element's keys in place under its own codec; its result has the least free
part at the origin, so normalizing it again shifts no free coordinate.
determinant's unit-pivot front end alone forms sums that may leave the
range, and its docstring says why its result is exact all the same.

A GroupRingElement holds packed = (codec, {packed key: coefficient}) only;
its terms, keyed by AbElement, are a view: the dict it was built from, whose
coordinates the constructor checks against the group before _from_rows
packs them, or else decoded on first read.  No computation reads terms:
exact_div divides on keys in their lex order, and equal, add, mul and
GRMatrix.from_rows bring their operands to one codec with _keys_under,
which re-encodes the coordinates of a narrower codec's keys; normalize
shifts and sorts keys, so tau stays packed in (free, tor) key order;
push_forward maps the coordinate columns (_Packing.columns) through
abelian.dot_map and hands the image rows to _from_rows; to_records and the
CLI's formatter write from sorted_columns, the terms in key order as
coordinate rows.

Every product of two elements goes through one kernel, _mul_into, which
adds sign * p * q into a dict in place: mul, determinant's 2 x 2 core and
its multiplication by the pivots' unit, _cofactor's lines and 2 x 2 blocks,
and exact_div's subtraction of c * x^k * q.  Two loops keep an inline copy
of its inner loop: _peel's Schur update, where a kernel call per update
made the knots benchmark's median about 5% slower (CHANGES.md), and
fox._fox_column's walk, which adds each +-1 term straight into its row
with no key list or generator per syllable.

A GRMatrix row is {column: entry} over its nonzero entries only, from
fox_matrix to every determinant path.  determinant has one dispatch (see
its docstring): the unit-pivot front end _peel on a sparse matrix of 5 or
more rows, then 1, the one entry or a*d - b*c for a core of 0, 1 or 2
rows, and otherwise one of two paths.  When H has at most one generator a
key is the one exponent of t, only the nonzero entries are packed into
integers, and the elimination is the sparse-row Bareiss abelian.det_sparse
(_kronecker), after a check of its slots, 1 + the sum of row spans, against
WORK_BUDGET.  Other H use _cofactor, which continues the front end's count
of term products, counts the blocks it settles as well, holds a block as
two bit sets and expands it on an explicit stack.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import FrozenInstanceError
from functools import cached_property
from operator import attrgetter
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .abelian import (
    AbElement,
    AbelianGroup,
    Projection,
    _elements,
    _sign,
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


class GroupRingElement:
    """An element of Z[H]: terms maps group elements to nonzero coefficients.

    It holds packed = (codec, {packed key: coefficient}); given terms, it
    refuses them with ValueError unless each has the group's coordinate
    counts, torsion residues in [0, d) and a nonzero coefficient (element()
    drops zeros), splits them into coordinate rows once for _from_rows and
    keeps the dict as its terms, else terms is decoded on first read, in key
    order.  Equality compares the group and the keys.  Immutable and not
    hashable."""

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, group: AbelianGroup, terms: Optional[Dict[AbElement, int]] = None,
                 packed: Optional[Tuple[_Packing, Dict[int, int]]] = None):
        object.__setattr__(self, "group", group)
        if packed is None:
            terms = {} if terms is None else terms
            frees, tors = list(map(attrgetter("free"), terms)), list(map(attrgetter("tor"), terms))
            rows, coeffs = list(zip(*frees)) + list(zip(*tors)), terms.values()
            # a digit of the wrong count or range would land in another coordinate or key
            if (set(map(len, frees)) - {group.rank} or set(map(len, tors)) - {len(group.torsion)}
                    or any(min(row) < 0 or max(row) >= d
                           for row, d in zip(rows[group.rank:], group.torsion))):
                raise ValueError(f"term coordinates do not match {group.describe()}")
            if not all(coeffs):
                raise ValueError("a term has coefficient 0")
            packed = _from_rows(group, rows, coeffs).packed
            self.__dict__["terms"] = terms
        object.__setattr__(self, "packed", packed)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def terms(self) -> Dict[AbElement, int]:
        pk, keys = self.packed
        return pk.decode_terms(keys)

    def __repr__(self):
        return f"GroupRingElement(group={self.group!r}, terms={self.terms!r})"

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return equal(self, other)

    def __bool__(self) -> bool:
        return bool(self.packed[1])

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
    its coefficient sums to 0, and return out: the collector of terms that
    are not products (_from_rows, add, _kronecker's digits).  Products go
    through _mul_into, which runs the same loop on each h1 + h2."""
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
        self.shifts = range(w * (n - 1), -w, -w)  # coordinate i at w * (n - 1 - i)
        self.bound = bound
        self.width = w
        self.mask = (1 << w) - 1
        self.free_shifts = self.shifts[:G.rank]
        self.torsion = list(zip(self.shifts[G.rank:], G.torsion))
        self.tor_bits = w * len(G.torsion)  # k >> tor_bits orders keys by free part
        self._half = 1 << (w - 1)
        # digits half (free) and d (torsion) as binary numerals: linear in the rank
        self._offset = int("1".ljust(w, "0") * G.rank or "0", 2) << self.tor_bits
        self._divisors = int("".join(f"{d:0{w}b}" for d in G.torsion) or "0", 2)

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

    def columns(self, keys: Iterable[int]) -> List[List[int]]:
        """Coordinate i of every key, in order, for each coordinate i (free,
        then torsion); one pass over the keys per coordinate."""
        us = [k + self._offset for k in keys]  # free digits now in [0, 2^w)
        m, half = self.mask, self._half
        return ([[((u >> s) & m) - half for u in us] for s in self.free_shifts]
                + [[(u >> s) & m for u in us] for s, _ in self.torsion])

    def encode_rows(self, rows: Sequence[Sequence[int]], count: int) -> List[int]:
        """The key of each of the count columns of the coordinate rows (free,
        then torsion): a row adds c << shift to a key for its nonzero
        coordinates c only (compress skips the others), so a key costs its
        nonzero digits, not all of them."""
        keys, everyone = [0] * count, range(count)
        for s, row in zip(self.shifts, rows):
            for j in itertools.compress(everyone, row):
                keys[j] += row[j] << s
        return keys

    def max_free(self, keys: Iterable[int]) -> int:
        """The largest |free coordinate| of the keys, 0 when there are none."""
        return _max_abs(self.columns(keys)[:len(self.free_shifts)])

    def decode_terms(self, terms: Dict[int, int]) -> Dict[AbElement, int]:
        """The AbElement of each key, in order, with its coefficient."""
        cols, b = self.columns(terms), len(self.free_shifts)
        return dict(zip(_elements(cols[:b], cols[b:], len(terms)), terms.values()))


def _max_abs(rows: Iterable[Iterable[int]]) -> int:
    """The largest |entry| of the rows, 0 when they have none."""
    return max(map(abs, itertools.chain.from_iterable(rows)), default=0)


def _from_rows(G: AbelianGroup, rows: Sequence[Sequence[int]],
               coeffs: Collection[int]) -> GroupRingElement:
    """The sum of c * h over the columns h of the coordinate rows (free rows,
    then torsion rows with residues in [0, d)) and their coefficients c:
    one codec of bound 2 x the largest |free coordinate|, one encode_rows
    call, and the coefficients collected on the keys by _accumulate."""
    pk = _Packing(G, 2 * _max_abs(rows[:G.rank]))
    keys = pk.encode_rows(rows, len(coeffs))
    return GroupRingElement(G, packed=(pk, _accumulate({}, zip(keys, coeffs))))


def _mul_into(out: Dict[int, int], pk: _Packing, p: Dict[int, int], q: Dict[int, int],
              sign: int = 1) -> Dict[int, int]:
    """Add sign * p * q into out on pk's keys, in place, and return out: the
    one product kernel of Z[H].  The outer loop runs over p's keys, the
    inner one over q's, and a key is dropped as soon as its coefficient
    reaches 0, so out's keys come in the order that collecting the term
    products h1 + h2 one by one gives them; fold runs only when H has
    torsion."""
    get, qs = out.get, q.items()
    fold = pk.fold if pk.torsion else None
    for h1, c1 in p.items():
        c1 *= sign
        for h2, c2 in qs:
            h = h1 + h2
            if fold:
                h = fold(h)
            c = get(h, 0) + c1 * c2
            if c:
                out[h] = c
            else:
                del out[h]
    return out


def _keys_under(p: GroupRingElement, pk: _Packing) -> Dict[int, int]:
    """p's {key: coefficient} under pk, a codec of p's group that holds p's
    coordinates: p's own dict when the widths match, else re-encoded."""
    qk, keys = p.packed
    if qk.width == pk.width:
        return keys
    return dict(zip(pk.encode_rows(qk.columns(keys), len(keys)), keys.values()))


def add(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    """p + q under the wider of the operands' codecs, which holds twice the
    largest |free coordinate| of either, so of the sum."""
    _check(p, q)
    pk = max(p.packed[0], q.packed[0], key=lambda k: k.width)
    return GroupRingElement(p.group, packed=(pk, _accumulate(dict(_keys_under(p, pk)),
                                                             _keys_under(q, pk).items())))


def neg(p: GroupRingElement) -> GroupRingElement:
    return scalar_mul(-1, p)


def scalar_mul(k: int, p: GroupRingElement) -> GroupRingElement:
    """k * p under p's codec."""
    pk, keys = p.packed
    return GroupRingElement(p.group, packed=(pk, {h: k * c for h, c in keys.items()} if k else {}))


def mul(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    _check(p, q)
    (ak, a), (bk, b) = p.packed, q.packed
    pk = _Packing(p.group, 2 * (ak.max_free(a) + bk.max_free(b)))
    return GroupRingElement(p.group, packed=(pk, _mul_into({}, pk, _keys_under(p, pk),
                                                           _keys_under(q, pk))))


def augmentation(p: GroupRingElement) -> int:
    return sum(p.packed[1].values())


def equal(p: GroupRingElement, q: GroupRingElement) -> bool:
    """p == q, compared on packed keys: under codecs of one width as they
    are, otherwise after the narrower one's coordinates are encoded in the
    wider codec, so neither is decoded."""
    if p.group != q.group:
        return False
    p, q = sorted((p, q), key=lambda x: x.packed[0].width)
    if len(p.packed[1]) != len(q.packed[1]):
        return False
    return _keys_under(p, q.packed[0]) == q.packed[1]


def exact_div(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    """Exact quotient p/q in Z[H] for torsion-free H, on packed keys; raises
    NotDivisibleError when there is none.  Key order is lex order, a group
    order, so the greatest key left of p minus the greatest of q is the next
    quotient key, and these candidates strictly decrease.  A quotient lies in
    the box from min p - min q to max p - max q, per coordinate, so a
    candidate outside it raises, and the finite box ends the loop.  A
    candidate is within P + 3Q of the origin, for P and Q the largest |free
    coordinate| of p and q, so one codec of bound 2 (P + 3Q) holds every key."""
    _check(p, q)
    if p.group.torsion:
        raise UnsupportedTorsionError("exact division needs a torsion-free group")
    if not q:
        raise ZeroDivisionError("division by zero in group ring")
    if not p:
        return zero(p.group)
    (ak, a), (bk, b) = p.packed, q.packed
    pc, qc = ak.columns(a), bk.columns(b)
    box = [(min(x) - min(y), max(x) - max(y)) for x, y in zip(pc, qc)]
    pk = _Packing(p.group, 2 * (_max_abs(pc) + 3 * _max_abs(qc)))
    rest, divisor, quot = dict(_keys_under(p, pk)), _keys_under(q, pk), {}
    top = max(divisor)
    heap = [-k for k in rest]  # the keys of rest, greatest first, and some gone since
    heapq.heapify(heap)
    while rest:
        k = -heapq.heappop(heap)
        if k in rest:
            c, r = divmod(rest[k], divisor[top])
            k -= top
            if r or not all(lo <= x <= hi for (lo, hi), (x,) in zip(box, pk.columns((k,)))):
                raise NotDivisibleError("no exact quotient")
            quot[k] = c
            _mul_into(rest, pk, {k: -c}, divisor)  # rest -= c * x^k * q
            for h in divisor:
                heapq.heappush(heap, -k - h)
    return GroupRingElement(p.group, packed=(pk, quot))


class GRMatrix:
    """A rows x cols matrix over Z[H] as sparse rows: packed[i] is {column:
    entry} over the nonzero entries of row i, each entry {key: coefficient}
    under one codec, packing, whose bound covers twice every sum of one key
    per row, so determinant and _cofactor use the keys as they are and
    normalize shifts their result in place.  A zero entry is in no row, so
    cols is given.  entries, the dense view, wraps each packed entry in a
    GroupRingElement under the matrix's codec, on first read, and decodes
    nothing."""

    def __init__(self, group: AbelianGroup, packing: _Packing,
                 packed: List[Dict[int, Dict[int, int]]], cols: int):
        self.group = group
        self.packing = packing
        self.packed = packed
        self.rows = len(packed)
        self.cols = cols

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[GroupRingElement]]) -> "GRMatrix":
        """The matrix of the given entries, encoded under a codec of bound
        2 x rows x the largest |free coordinate| of any entry; entries is the
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
            pk = _Packing(G, 2 * rows * max(e.packed[0].max_free(e.packed[1])
                                            for row in data for e in row))
        A = cls(G, pk, [{j: _keys_under(e, pk) for j, e in enumerate(row) if e} for row in data],
                cols)
        A.__dict__["entries"] = tuple(tuple(row) for row in data)
        return A

    @cached_property
    def entries(self) -> Tuple[Tuple[GroupRingElement, ...], ...]:
        """Each packed entry under the matrix's codec, rows x cols; every
        zero entry is one shared empty element."""
        G, pk, cols = self.group, self.packing, range(self.cols)
        empty = GroupRingElement(G, packed=(pk, {}))
        return tuple([tuple([GroupRingElement(G, packed=(pk, row[j])) if j in row else empty
                             for j in cols]) for row in self.packed])

    def __eq__(self, other):
        if not isinstance(other, GRMatrix):
            return NotImplemented
        return self.entries == other.entries


def determinant(A: GRMatrix) -> GroupRingElement:
    """det A in Z[H], packed under the matrix's codec, its keys in the order
    its path made them.

    Every matrix takes one path, on its sparse rows.  An empty row gives 0.
    A matrix of 5 or more rows and at most 4 x rows nonzero entries goes
    through the unit-pivot front end _peel, on a copy of each row: Schur
    steps on entries +-h, each counting its term products against
    WORK_BUDGET before it makes them.  What is left, the core or the whole
    matrix, as sparse rows, is 1 for no rows, its entry for one row, a*d -
    b*c for two rows whose products fit in what is left of the budget,
    _kronecker for one variable, and else _cofactor, which goes on from the
    front end's count.  The gate is measured (CHANGES.md): the front end
    leaves T(2,n) and torus-link Wirtinger matrices (2.6-3.0 nonzeros per
    row) at most 3 rows, but its fill made the cofactor expansion of
    handlebodies of genus 5-8 (5.0-6.4) 1.8-6.7x costlier, and det of their
    3 x 3 and 4 x 4 matrices 1.25x slower.

    When H has at most one generator (trivial, Z or Z/d) a key is its one
    coordinate, or 0 when H = 1, so the entries are Laurent polynomials in
    one variable t whose exponents are the keys, and det is exact integer
    arithmetic (_kronecker).  Its slots, 1 + the sum of row spans, are
    checked against WORK_BUDGET on the whole matrix before the front end
    (unless the codec's bound caps them within it) and on the core before
    it is packed; a front end stopped by the budget leaves the rest to it.

    The front end and the core work on the matrix codec's own keys, although
    a Schur step forms key sums h_f - h_u + h_e that may leave the range
    where the codec decodes them.  That is exact: with t = tor_bits, a key
    k is the pair (k >> t, its torsion digits) of Z x prod Z/d, and adding
    keys, with fold on the torsion digits (the lowest, which never carry),
    is that group's addition for every int key, in range or not; so is
    _Packing.neg.  Encoding is a group homomorphism Z^r x prod Z/d ->
    Z x prod Z/d, injective on the box of coordinates the codec holds.  The
    elimination runs in the group ring of the target, and det commutes with
    the ring map the homomorphism induces, so it computes the image of
    det A.  Every term of det A is a sum of one entry key per row, which
    lies in the box, so distinct terms keep distinct keys and the image
    is det A on the codec's keys."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    if A.rows == 0:
        raise ValueError("empty matrix")
    G, pk = A.group, A.packing
    one_variable = G.rank + len(G.torsion) <= 1
    if not all(A.packed):
        return GroupRingElement(G, packed=(pk, {}))
    sign, shift, work, core = 1, 0, 0, A.packed
    if A.rows >= 5 and sum(map(len, core)) <= 4 * A.rows:  # the gate of the front end
        # the slots check of the whole matrix; the codec holds every sum of one
        # key per row, so on Z its bound caps the slots, and on Z/d each row's
        # span is below d
        if one_variable and 1 + (A.rows * (G.torsion[0] - 1) if G.torsion
                                 else pk.bound) > WORK_BUDGET:
            _lift(core)
        core, sign, shift, work = _peel([dict(row) for row in core], pk, work)
    empty: Dict[int, int] = {}
    if not core:
        det = {0: 1}
    elif len(core) == 1:
        det = core[0].get(0, empty)
    elif len(core) == 2 and work + _det2_products(*core) <= WORK_BUDGET:
        (a, b), (c, d) = ([row.get(j, empty) for j in (0, 1)] for row in core)
        det = _mul_into(_mul_into({}, pk, a, d), pk, b, c, -1)
    elif one_variable:
        det = _kronecker(G, core)
    else:
        det = _cofactor(GRMatrix(G, pk, core, len(core)), work).packed[1]
    if shift or sign < 0:  # times the pivots' product, sign * h
        det = _mul_into({}, pk, det, {shift: sign})
    return GroupRingElement(G, packed=(pk, det))


def _det2_products(top: Dict[int, Dict[int, int]], bottom: Dict[int, Dict[int, int]]) -> int:
    """The term products of the 2 x 2 determinant of the two sparse rows."""
    return (len(top.get(0, ())) * len(bottom.get(1, ()))
            + len(top.get(1, ())) * len(bottom.get(0, ())))


def _peel(rows: List[Dict[int, Dict[int, int]]], pk: _Packing,
          work: int) -> Tuple[List[Dict[int, Dict[int, int]]], int, int, int]:
    """Schur steps on unit pivots over the rows, each {column: entry} on
    the keys of pk, whose sums may leave pk's range (see determinant).  A
    step takes the column with the fewest nonzeros among those holding a
    unit c*h (c = +-1), in it the unit whose row has the fewest nonzeros
    (lowest index on ties for both; Markowitz 1957), and replaces every
    other row i with a nonzero A_iq in that column q by A_i - A_iq * c *
    h^-1 * A_p, without row p and column q.  Z[H] is commutative and the pivot is
    invertible, so det A is +-c*h times the det of what is left.  A step
    counts len(A_iq) x len(A_pj) term products against WORK_BUDGET before
    it makes them; a step that would cross it ends the front end.

    Returns the core (the rows left, in their order, with their columns
    renumbered in order), the sign and the key of the pivots' product
    times the signs of the row and column orders, and the work count.
    The given row dicts are edited in place; entries never are."""
    tor, fold = bool(pk.torsion), pk.fold
    rows = dict(enumerate(rows))
    cols: Dict[int, Set[int]] = {j: set() for j in rows}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    # (nonzeros, column) of every column that may hold a unit; an entry whose
    # column has changed since is skipped, and a changed column is pushed again
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    order_r, order_c, sign, shift = [], [], 1, 0
    while heap:
        count, q = heapq.heappop(heap)
        col = cols.get(q)
        if col is None or len(col) != count:
            continue
        # one pass over the column: the unit +-h whose row is shortest
        # (lowest index on ties) and the terms of the whole column
        p, fewest, terms = -1, 0, 0
        for i in col:
            row = rows[i]
            e = row[q]
            terms += len(e)
            if len(e) == 1:
                c, = e.values()
                if (c == 1 or c == -1) and (p < 0 or (len(row), i) < (fewest, p)):
                    p, fewest = i, len(row)
        if p < 0:
            continue
        prow = rows[p]
        cost = (sum(map(len, prow.values())) - 1) * (terms - 1)
        if work + cost > WORK_BUDGET:
            break
        work += cost
        del rows[p], cols[q]
        (h, c), = prow.pop(q).items()
        nh = pk.neg(h) if tor else -h
        for i in col:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(q)
            for j, e in prow.items():
                # A_ij - A_iq * c * h^-1 * A_pj, along the shorter factor outermost
                x, y = (f, e) if len(f) <= len(e) else (e, f)
                old = row.get(j)
                new = dict(old) if old else {}
                get = new.get
                for kx, a in x.items():
                    kx = fold(kx + nh) if tor else kx + nh
                    a *= -c
                    for k, b in y.items():
                        k += kx
                        if tor:
                            k = fold(k)
                        v = get(k, 0) + a * b
                        if v:
                            new[k] = v
                        else:
                            del new[k]
                if new:
                    row[j] = new
                    cols[j].add(i)
                elif old:
                    del row[j]
                    cols[j].discard(i)
        for j in prow:
            col = cols[j]
            col.discard(p)
            heapq.heappush(heap, (len(col), j))
        sign *= c
        shift = fold(shift + h) if tor else shift + h
        order_r.append(p)
        order_c.append(q)
    core_r, core_c = sorted(rows), sorted(cols)
    sign *= _sign(order_r + core_r) * _sign(order_c + core_c)
    at = {j: x for x, j in enumerate(core_c)}
    return [{at[j]: e for j, e in rows[i].items()} for i in core_r], sign, shift, work


def _lift(rows: List[Dict[int, Dict[int, int]]]):
    """The rows, each {column: entry}, each with its least key lo, the sum
    of those lo and the slots, 1 + the sum of row spans; None when a row is
    zero.  Slots over WORK_BUDGET raise, before anything is packed."""
    lifted, shift, slots = [], 0, 1
    for row in rows:
        if not row:
            return None
        lo = min(map(min, row.values()))
        shift += lo
        slots += max(map(max, row.values())) - lo
        lifted.append((lo, row))
    if slots > WORK_BUDGET:
        raise ValueError(f"a determinant of {slots} powers of t is over the work budget "
                         f"of {WORK_BUDGET}")
    return lifted, shift, slots


def _kronecker(G: AbelianGroup, rows: List[Dict[int, Dict[int, int]]]) -> Dict[int, int]:
    """det over one variable t of the rows, each {column: entry}, as exact
    integer arithmetic (Kronecker substitution), once _lift has checked the
    slots (and 0 when a row is zero): shift each row into non-negative
    degrees, substitute t = 2^k in the nonzero entries only, take the
    sparse fraction-free Bareiss abelian.det_sparse of those rows and read
    its balanced base-2^k digits back, folding exponents mod d.
    On |t| = 1 every entry is at most its sum of |coefficients|, so
    Hadamard's inequality bounds |det| there, and with it every coefficient
    of det, by B = prod_rows sqrt(sum_entries (sum |coefficients|)^2); k is
    chosen with 2^(k-1) > B.  A key of the result is its exponent, folded
    mod d."""
    lift = _lift(rows)
    if lift is None:
        return {}
    rows, shift, slots = lift
    bound2 = 1
    for _, row in rows:
        bound2 *= sum(sum(map(abs, p.values())) ** 2 for p in row.values())
    k = (bound2.bit_length() + 1) // 2 + 1  # 4^(k-1) > bound2 = B^2
    packed = [{j: _pack([p.get(x, 0) for x in range(lo, max(p) + 1)], k)
               for j, p in row.items()} for lo, row in rows]
    digits = _unpack(det_sparse(packed), k, slots)
    d = G.torsion[0] if G.torsion else 0
    return _accumulate({}, (((shift + x) % d if d else shift + x, c)
                            for x, c in enumerate(digits) if c))


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


def _selectors(bits: int) -> bytes:
    """Byte i is 1 when bit i of bits is set and 0 otherwise, up to the
    highest set bit: itertools.compress(seq, _selectors(bits)) keeps the
    items of seq at the set bits."""
    return f"{bits:b}"[::-1].encode().translate(_BINARY)


_BINARY = bytes.maketrans(b"01", b"\0\1")


def _cofactor(A: GRMatrix, work: int = 0) -> GroupRingElement:
    """Cofactor expansion on the matrix's own keys and codec.  A block is
    the bit sets of its rows and of its columns, and a line's nonzero count
    in it is the number of bits that the line's 0/1 nonzero mask, read off
    the sparse rows once, shares with the block's other bit set.  A block
    expands along its sparsest row, or along a column when one is strictly
    sparser (lowest index on ties), into one minor per nonzero entry of that
    line, so a line with one entry gives one minor and the n x n identity
    matrix reads O(n) rows.  Minors are memoized on their bit sets and
    settled on an explicit stack of blocks, a block going back on it below
    the minors it waits for, so no recursion bounds the depth.  A 2 x 2
    block is its own base case (det2), and a zero minor adds no term.  The
    term products, from work on, are counted against WORK_BUDGET, innermost
    first, before each line makes them.  So is, in a count of its own, every
    block settled along a line without exactly one entry, weighted by its
    rows, so that minors that come out zero and make no products still
    count, while a chain of lines with one entry each adds nothing."""
    G, pk, E = A.group, A.packing, A.packed
    n, empty = A.rows, {}
    if n == 1:
        return GroupRingElement(G, packed=(pk, E[0].get(0, empty)))
    memo: Dict[Tuple[int, int], Dict[int, int]] = {}
    blocks = 0

    def combine(pairs: List[Tuple[Dict[int, int], object, int]]) -> Dict[int, int]:
        """The sum of sign * e * minor over the (e, minor, sign) triples; a
        minor given by its key is read from memo."""
        nonlocal work
        factors = []
        for e, minor, sign in pairs:
            if type(minor) is tuple:
                minor = memo[minor]
            if minor:
                work += len(e) * len(minor)
                factors.append((e, minor, sign))
        if work > WORK_BUDGET:
            raise ValueError(f"a cofactor expansion of at least {work} term products is over "
                             f"the work budget of {WORK_BUDGET}")
        out: Dict[int, int] = {}
        for e, minor, sign in factors:
            _mul_into(out, pk, e, minor, sign)
        return out

    def det2(r0: int, r1: int, c0: int, c1: int) -> Dict[int, int]:
        """det of the 2 x 2 block on rows r0 < r1 and columns c0 < c1, along
        the line the expansion rule picks; a line with one nonzero entry
        gives one product."""
        top, bottom = E[r0], E[r1]
        a, b = top.get(c0, empty), top.get(c1, empty)
        c, d = bottom.get(c0, empty), bottom.get(c1, empty)
        row0, row1 = bool(a) + bool(b), bool(c) + bool(d)
        col0, col1 = bool(a) + bool(c), bool(b) + bool(d)
        if min(row0, row1) <= min(col0, col1):
            line = ((a, d, 1), (b, c, -1)) if row0 <= row1 else ((c, b, -1), (d, a, 1))
        else:
            line = ((a, d, 1), (c, b, -1)) if col0 <= col1 else ((b, c, -1), (d, a, 1))
        return combine([x for x in line if x[0]])

    if n == 2:
        return GroupRingElement(G, packed=(pk, det2(0, 1, 0, 1)))
    lines = range(n)
    row_nz, col_nz = [0] * n, [0] * n  # the 0/1 nonzero masks of the lines
    for i, row in enumerate(E):
        for j in row:
            row_nz[i] |= 1 << j
            col_nz[j] |= 1 << i

    def expand(rbits: int, cbits: int):
        """The (entry, minor, sign) triples of the block's line, a minor
        not yet in memo given by its key, and the keys of those minors."""
        nonlocal blocks
        rsel, csel = _selectors(rbits), _selectors(cbits)
        rows, cols = list(itertools.compress(lines, rsel)), list(itertools.compress(lines, csel))
        rc = [(m & cbits).bit_count() for m in itertools.compress(row_nz, rsel)]
        cc = [(m & rbits).bit_count() for m in itertools.compress(col_nz, csel)]
        low_r, low_c = min(rc), min(cc)
        if low_r <= low_c:
            r = rows[rc.index(low_r)]
            line = [(r, c) for c in itertools.compress(lines, _selectors(row_nz[r] & cbits))]
        else:
            c = cols[cc.index(low_c)]
            line = [(r, c) for r in itertools.compress(lines, _selectors(col_nz[c] & rbits))]
        if len(line) != 1:
            blocks += len(rows)
            if blocks > WORK_BUDGET:
                raise ValueError(f"a cofactor expansion of at least {blocks} block rows is over "
                                 f"the work budget of {WORK_BUDGET}")
        pairs, todo = [], []
        for r, c in line:
            # the entry's place in the block: its rows above r, its columns left of c
            i, j = (rbits & ((1 << r) - 1)).bit_count(), (cbits & ((1 << c) - 1)).bit_count()
            minor = (rbits ^ (1 << r), cbits ^ (1 << c))
            m = memo.get(minor)
            if m is None:
                if len(rows) == 3:
                    m = memo[minor] = det2(*rows[:i], *rows[i + 1:], *cols[:j], *cols[j + 1:])
                else:
                    todo.append(minor)
                    m = minor
            if m:  # a zero minor adds nothing
                pairs.append((E[r][c], m, -1 if (i + j) % 2 else 1))
        return pairs, todo

    root = ((1 << n) - 1, (1 << n) - 1)
    stack, waiting = [root], {}
    while stack:  # a block is stacked once: while it waits, only smaller ones expand
        key = stack.pop()
        pairs = waiting.pop(key, None)
        if pairs is None:
            pairs, todo = expand(*key)
            if todo:  # settle the minors first, the line's first minor first
                waiting[key] = pairs
                stack.append(key)
                stack.extend(reversed(todo))
                continue
        memo[key] = combine(pairs)
    return GroupRingElement(G, packed=(pk, memo[root]))


def normalize(p: GroupRingElement) -> GroupRingElement:
    """Canonical representative of the orbit {+-h*p : h in H}, packed, in
    key order.  The only shifts tried move a support point h0 with the least
    free part to the origin: torsion residues lie in [0, d), so h0 then
    becomes the lex-least key, while a point with a larger free part never
    does.  For torsion-free H that is the one least key, so one shift and
    one sort; otherwise the least signature over the candidates wins.  Keys
    are packed, so a shift is one int add, and p's codec holds every shift
    tried (see the module docstring)."""
    if not p:
        return p
    G, (pk, keys) = p.group, p.packed
    if not pk.torsion:
        order = sorted(keys)
        k0 = order[0]
        sign = -1 if keys[k0] < 0 else 1
        return GroupRingElement(G, packed=(pk, {k - k0: sign * keys[k] for k in order}))
    fold, tb = pk.fold, pk.tor_bits

    def signature(k0: int) -> Tuple:
        shift = pk.neg(k0)
        items = sorted((fold(k + shift), c) for k, c in keys.items())
        sign = -1 if items[0][1] < 0 else 1
        return tuple((k, sign * c) for k, c in items)

    low = min(keys) >> tb
    best = min(signature(k0) for k0 in keys if k0 >> tb == low)
    return GroupRingElement(G, packed=(pk, dict(best)))


def sim_equal(p: GroupRingElement, q: GroupRingElement) -> bool:
    """True iff p = +-h*q for some h in H."""
    _check(p, q)
    return equal(normalize(p), normalize(q))


def push_forward(p: GroupRingElement, proj: Projection) -> GroupRingElement:
    """Apply a group homomorphism to every term: the source coordinates, read
    off the packed digits, are mapped as columns by abelian.dot_map, whose
    coordinate rows _from_rows packs into keys of the target.  No AbElement
    is built."""
    if proj.source != p.group:
        raise GroupMismatchError("projection source does not match element group")
    pk, keys = p.packed
    free, tor = dot_map(proj.matrix, pk.columns(keys), len(keys))
    return _from_rows(proj.target, free + tor, keys.values())


def sum_of_all_elements(G: AbelianGroup) -> GroupRingElement:
    """I_G: the sum of all group elements for finite G, zero otherwise."""
    if G.rank > 0:
        return zero(G)
    points = list(itertools.product(*[range(d) for d in G.torsion]))
    return _from_rows(G, list(zip(*points)), [1] * len(points))


def external_product(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    """Bilinear product into the direct sum of the two groups."""
    _, i1, i2 = direct_sum(p.group, q.group)
    return mul(push_forward(p, i1), push_forward(q, i2))


def sorted_columns(p: GroupRingElement) -> Tuple[List[List[int]], List[int]]:
    """p's terms in key order, which is the (free, tor) order: the
    coordinate rows (free, then torsion) and the coefficients."""
    pk, keys = p.packed
    order = sorted(keys)
    return pk.columns(order), [keys[k] for k in order]


def to_records(p: GroupRingElement) -> dict:
    """Serialized form; bit-exact round-trip with from_records."""
    rows, coeffs = sorted_columns(p)
    b, points = p.group.rank, zip(*rows) if rows else itertools.repeat((), len(coeffs))
    return {
        "group": {"rank": b, "torsion": list(p.group.torsion)},
        "terms": [{"coeff": c, "free": list(x[:b]), "tor": list(x[b:])}
                  for c, x in zip(coeffs, points)],
    }


def _int_list(value, what: str) -> Tuple[int, ...]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def from_records(obj: dict) -> GroupRingElement:
    """Inverse of to_records; raises ValueError when obj does not have its
    shape (a bool is not an integer there).  Torsion coordinates are read
    modulo their divisors.  The shapes of all records are checked at once,
    and only a failed check walks the records in order for the first bad
    one.  The coordinate rows, zipped from the records (none per declared
    coordinate), go to _from_rows; the terms view is left to decode_terms,
    on first read, so a reader of keys only builds no AbElement."""
    group = obj.get("group") if isinstance(obj, dict) else None
    records = obj.get("terms") if isinstance(obj, dict) else None
    if not isinstance(group, dict) or type(group.get("rank")) is not int:
        raise ValueError("records need a group with an integer rank")
    if not isinstance(records, list) or not all(isinstance(t, dict) for t in records):
        raise ValueError("records need a list of term objects")
    torsion = _int_list(group.get("torsion"), "torsion")
    if group["rank"] + len(torsion) > WORK_BUDGET:  # every codec is linear in it
        raise ValueError(f"a group of {group['rank'] + len(torsion)} coordinates is over "
                         f"the work budget of {WORK_BUDGET}")
    G = AbelianGroup(group["rank"], torsion)
    frees = [t.get("free") for t in records]
    tors = [t.get("tor") for t in records]
    coeffs = [t.get("coeff") for t in records]
    chain = itertools.chain.from_iterable
    if not (set(map(type, frees)) <= {list} and set(map(type, tors)) <= {list}
            and set(map(len, frees)) <= {G.rank} and set(map(len, tors)) <= {len(G.torsion)}
            and set(map(type, itertools.chain(coeffs, chain(frees), chain(tors)))) <= {int}):
        for t in records:
            free, tor = _int_list(t.get("free"), "free"), _int_list(t.get("tor"), "tor")
            if len(free) != G.rank or len(tor) != len(G.torsion):
                raise ValueError("term coordinates do not match group")
            if type(t.get("coeff")) is not int:
                raise ValueError("coeff must be an integer")
    free = list(zip(*frees))  # one row per coordinate; none when there are no records
    tor = [[x % d for x in row] for row, d in zip(zip(*tors), G.torsion)]
    return _from_rows(G, free + tor, coeffs)
