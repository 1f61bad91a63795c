"""The one product kernel of Z[H], groupring._mul_into, against the
uncollected product generator it replaced (legacy_groupring._packed_products)
collected by _accumulate: the same keys, coefficients and dict order, on
its own and at every product site of groupring."""
import random
import sys

import pytest

from legacy_groupring import _packed_products
from sutor import families as F
from sutor import groupring
from sutor.abelian import AbElement, AbelianGroup
from sutor.groupring import (
    GRMatrix,
    _accumulate,
    _cofactor,
    _keys_under,
    _mul_into,
    _Packing,
    determinant,
    element,
    exact_div,
    mul,
)
from test_packing import GROUPS, _random_element, _same
from test_peel import _entry, _fox


def _collected(out, pk, p, q, sign=1):
    """sign * p * q added into out as the product sites did before the kernel."""
    return _accumulate(out, _packed_products(pk, p, q, sign))


@pytest.mark.parametrize("G", GROUPS + [AbelianGroup(0)], ids=lambda G: G.describe())
def test_kernel_matches_the_collected_products(G):
    """Random operands with zero, one and several terms, coordinates close
    enough together that products collide and cancel, added into an empty
    dict and into one that already holds terms: the kernel edits out in
    place and leaves the keys of the collected generator, in its order."""
    rng = random.Random("kernel " + G.describe())
    seen = {"zero": 0, "one_term": 0, "cancelled": 0}
    for trial in range(200):
        p, q, r = (_random_element(rng, G, spread=1, terms=rng.choice((1, 4, 6)))
                   for _ in range(3))
        pk = _Packing(G, 2 * sum(x.packed[0].max_free(x.packed[1]) for x in (p, q, r)))
        a, b, c = (_keys_under(x, pk) for x in (p, q, r))
        for sign in (1, -1):
            for start in ({}, c):
                out = dict(start)
                want = _collected(dict(start), pk, a, b, sign)
                assert _mul_into(out, pk, a, b, sign) is out
                assert list(out.items()) == list(want.items()), (p, q, r, sign)
                seen["cancelled"] += len(out) < len(start) + len(a) * len(b)
        # p * q minus p * q is empty: every key is dropped as it reaches 0
        assert _mul_into(_collected({}, pk, a, b), pk, a, b, -1) == {}
        seen["zero"] += not a or not b
        seen["one_term"] += len(a) == 1 or len(b) == 1
    assert min(seen.values()) > 10, seen


def _sites(G, rng):
    """Inputs for every product site: pairs for mul and exact_div, 2 x 2
    matrices for determinant's core, 3 x 3 and 4 x 4 ones for _cofactor,
    and sparse ones of 5 to 8 rows whose units the front end peels."""
    pairs = [(_random_element(rng, G, terms=5), _random_element(rng, G, terms=5))
             for _ in range(10)]
    dense = [GRMatrix.from_rows([[_random_element(rng, G) for _ in range(n)] for _ in range(n)])
             for n in (2, 2, 3, 3, 4, 4)]
    sparse = []
    for _ in range(6):
        n = rng.randint(5, 8)
        sparse.append(GRMatrix.from_rows([[_entry(rng, G) for _ in range(n)] for _ in range(n)]))
    return pairs, dense, sparse


@pytest.mark.parametrize("G", GROUPS + [AbelianGroup(1), AbelianGroup(0)],
                         ids=lambda G: G.describe())
def test_every_product_site_gives_the_dicts_of_the_collected_products(G, monkeypatch):
    """mul, exact_div, determinant (its 2 x 2 core and its multiplication by
    the pivots' unit) and _cofactor (its lines and 2 x 2 blocks) return the
    same elements, in the same key order, as with the kernel replaced by the
    collected generator, and every one of them calls the kernel."""
    rng = random.Random("sites " + G.describe())
    pairs, dense, sparse = _sites(G, rng)

    def results():
        out = []
        for p, q in pairs:
            out.append(mul(p, q))
            if not G.torsion and q:
                out.append(exact_div(mul(p, q), q))
        for A in dense + sparse:
            out.append(determinant(A))
            out.append(_cofactor(A))
        return out

    new = results()
    callers = set()

    def reference(out, pk, p, q, sign=1):
        callers.add(sys._getframe(1).f_code.co_name)
        return _collected(out, pk, p, q, sign)

    monkeypatch.setattr(groupring, "_mul_into", reference)
    old = results()
    assert all(_same(x, y) for x, y in zip(new, old)) and len(new) == len(old)
    assert callers == {"mul", "determinant", "combine"} | ({"exact_div"} if not G.torsion else set())


def test_pivots_unit_and_exact_quotients_on_knots(monkeypatch):
    """The Fox matrices of T(2, n) knots, which the front end peels to one
    row, and divisions of their torsions by 1 - t: the same dicts with the
    kernel as with the collected generator, and exact_div's quotient keys
    greatest first, in the order its heap settles them."""
    As = [_fox(F.wirtinger_knot(F.torus_2n_pd(n))) for n in (5, 9, 15)]
    new = [determinant(A) for A in As]
    t = AbElement((1,), ())
    one_minus_t = element(As[0].group, {AbElement((0,), ()): 1, t: -1})
    quotients = [exact_div(mul(det, one_minus_t), one_minus_t) for det in new]
    for quot in quotients:
        assert list(quot.packed[1]) == sorted(quot.packed[1], reverse=True)
    callers = []

    def reference(out, pk, p, q, sign=1):
        callers.append(sys._getframe(1).f_code.co_name)
        return _collected(out, pk, p, q, sign)

    monkeypatch.setattr(groupring, "_mul_into", reference)
    assert all(_same(determinant(A), det) for A, det in zip(As, new))
    # a one-row core: determinant's one product is the pivots' unit times it
    assert callers == ["determinant"] * len(As)
    assert all(_same(exact_div(mul(det, one_minus_t), one_minus_t), quot)
               for det, quot in zip(new, quotients))
