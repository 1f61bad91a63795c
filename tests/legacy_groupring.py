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

`_packed_products` is the uncollected product generator on packed keys
that every product site of `groupring` fed to `_accumulate` before the
in-place kernel `_mul_into`; the kernel must give the same keys in the same
order.

`_max_free` and `encode_terms` are the term-dict constructor's bound and
encoder from before every element made from coordinates went through
`groupring._from_rows`; tests use them to build codecs and keys from terms.

`_peel` is the unit-pivot front end of `groupring.determinant` as it was
before one loop over the pivot column picked the unit, found the rows below
it and counted the step's cost; the front end must return the same core
rows, sign, shift and work count.

`exact_div` is the division on decoded terms, in graded-lex order on
exponents shifted into the non-negative cone; the division on packed keys
must give the same quotient and raise NotDivisibleError on the same pairs."""
import heapq
import itertools
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from legacy_abelian import ab_add, ab_scale
from sutor.abelian import (
    AbElement,
    AbelianGroup,
    Cokernel,
    Projection,
    _sign,
    zero_element,
)
from sutor import words as W
from sutor.groupring import (
    GRMatrix,
    GroupMismatchError,
    GroupRingElement,
    NotDivisibleError,
    UnsupportedTorsionError,
    _accumulate,
    _check,
    _max_abs,
    _Packing,
    zero,
)
from sutor.words import Word


def _max_free(terms: Iterable[AbElement]) -> int:
    """The largest |free coordinate| of the elements (torsion digits fit any
    _Packing of the group)."""
    return _max_abs(h.free for h in terms)


def encode_terms(pk: _Packing, terms: Dict[AbElement, int]) -> Dict[int, int]:
    """The terms on pk's keys, in order, from one encode_rows call."""
    rows = list(zip(*(h.free + h.tor for h in terms)))
    return dict(zip(pk.encode_rows(rows, len(terms)), terms.values()))


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


def _packed_products(pk: _Packing, p: Dict[int, int], q: Dict[int, int], sign: int = 1):
    """The (h1 + h2, sign * c1 * c2) terms of sign * p * q on packed keys,
    uncollected: the generator every product site of groupring collected
    with _accumulate before the in-place kernel _mul_into."""
    if pk.torsion:
        fold = pk.fold
        return ((fold(h1 + h2), sign * c1 * c2)
                for h1, c1 in p.items() for h2, c2 in q.items())
    return ((h1 + h2, sign * c1 * c2) for h1, c1 in p.items() for h2, c2 in q.items())


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
    products = _packed_products(pk, encode_terms(pk, p.terms), encode_terms(pk, q.terms))
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
    A = GRMatrix(G, pk, [{j: encode_terms(pk, e.terms) for j, e in enumerate(row) if e.terms}
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
        column = [(i, rows[i][q]) for i in col]
        units = [(len(rows[i]), i) for i, e in column  # an entry +-h
                 if len(e) == 1 and next(iter(e.values())) in (1, -1)]
        if not units:
            continue
        p = min(units)[1]
        prow = rows[p]
        below = [(i, f) for i, f in column if i != p]
        cost = (sum(map(len, prow.values())) - 1) * sum([len(f) for _, f in below])
        if work + cost > W.WORK_BUDGET:  # read at the call, as a test may lower it
            break
        work += cost
        del rows[p], cols[q]
        (h, c), = prow.pop(q).items()
        nh = pk.neg(h) if tor else -h
        for i, f in below:
            row = rows[i]
            del row[q]
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
