"""Builtin fixture generators and independent expected-value oracles.

Families: twisted solid tori, odd and even pretzel surface complements, the
Cantwell-Conlon handlebody, Wirtinger presentations of knots (with T(2, n)
PD codes and their Alexander polynomials), Murasugi (external) products for
two-bridge knots, and the Goda handlebody torsion literal.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import words as W
from .abelian import AbElement, AbelianGroup
from .engine import SuturedInput
from .groupring import (
    GRMatrix,
    GroupRingElement,
    add,
    determinant,
    element,
    exact_div,
    external_product,
    monomial,
    mul,
    neg,
    one,
)
from .polytope import _Z, cyclic_sum
from .words import Generator, Word, make_alphabet

_Z2 = AbelianGroup(2, ())


def _letters(*pairs: Tuple[int, int]) -> Word:
    return W.free_reduce(pairs)


# ---------------------------------------------------------------------------
# Solid torus / twisted bands

def solid_torus(p: int) -> SuturedInput:
    """One generator a, no relators, R_- image a^p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return SuturedInput(
        alphabet=make_alphabet(["a"]),
        relators=(),
        rminus=(_letters((0, p)),),
        name=f"solid_torus_{p}",
    )


def twisted_band_expected(p: int, n: int) -> GroupRingElement:
    """(t^p - 1)^n / (t - 1), built as (1 + ... + t^(p-1)) * (t^p - 1)^(n-1)."""
    if p < 1 or n < 1:
        raise ValueError("p and n must be >= 1")
    out = cyclic_sum(p)
    tp1 = element(_Z, {AbElement((p,), ()): 1, AbElement((0,), ()): -1})
    for _ in range(n - 1):
        out = mul(out, tp1)
    return out


# ---------------------------------------------------------------------------
# Pretzel surface complements

def pretzel_odd(r: int, s: int, t: int) -> SuturedInput:
    """Complement of the obvious Seifert surface of P(2r+1, 2s+1, 2t+1):
    alpha = a^(r+1) (b^-1 a)^s, beta = a^r b^(t+1)."""
    a, b = 0, 1
    alpha = W.concat(_letters((a, r + 1)), W.power(_letters((b, -1), (a, 1)), s))
    beta = _letters((a, r), (b, t + 1))
    return SuturedInput(
        alphabet=make_alphabet(["a", "b"]),
        relators=(),
        rminus=(alpha, beta),
        name=f"pretzel_odd_{r}_{s}_{t}",
    )


def pretzel_even(r: int, s: int, t: int) -> SuturedInput:
    """Complement for P(2r, 2s, 2t): alpha = a^r (b^-1 a)^s, beta = a^r b^t."""
    a, b = 0, 1
    alpha = W.concat(_letters((a, r)), W.power(_letters((b, -1), (a, 1)), s))
    beta = _letters((a, r), (b, t))
    return SuturedInput(
        alphabet=make_alphabet(["a", "b"]),
        relators=(),
        rminus=(alpha, beta),
        name=f"pretzel_even_{r}_{s}_{t}",
    )


def _m2(i: int, j: int, c: int = 1) -> GroupRingElement:
    return monomial(_Z2, AbElement((i, j), ()), c)


def pretzel_odd_expected(r: int, s: int, t: int) -> GroupRingElement:
    """Independent oracle: build the cleared-denominator identity

        (1-a)(1-b)(1-ab^-1) tau = (1-a^r)(1-b^(t+1))(1-ab^-1)
                                + a^r (1-(ab^-1)^(s+1))(1-b^(t+1))(1-a)
                                + a b^-1 (1-(b^-1 a)^s)(1-a^r)(1-b)

    and strip the three factors by exact division."""
    one2 = one(_Z2)

    def p1m(i, j):  # 1 - a^i b^j
        return add(one2, _m2(i, j, -1))

    rhs = add(
        add(
            mul(mul(p1m(r, 0), p1m(0, t + 1)), p1m(1, -1)),
            mul(_m2(r, 0), mul(mul(p1m(s + 1, -(s + 1)), p1m(0, t + 1)), p1m(1, 0))),
        ),
        mul(_m2(1, -1), mul(mul(p1m(s, -s), p1m(r, 0)), p1m(0, 1))),
    )
    out = exact_div(rhs, p1m(1, 0))
    out = exact_div(out, p1m(0, 1))
    return exact_div(out, p1m(1, -1))


# ---------------------------------------------------------------------------
# Cantwell-Conlon handlebody

def cantwell_conlon() -> SuturedInput:
    """Generators a, b, c; R_- images a, b a^-1 b c^-1, b a^-1 c a b^-1."""
    a, b, c = 0, 1, 2
    return SuturedInput(
        alphabet=make_alphabet(["a", "b", "c"]),
        relators=(),
        rminus=(
            _letters((a, 1)),
            _letters((b, 1), (a, -1), (b, 1), (c, -1)),
            _letters((b, 1), (a, -1), (c, 1), (a, 1), (b, -1)),
        ),
        name="cantwell_conlon",
    )


# ---------------------------------------------------------------------------
# Goda handlebody

def goda_tau() -> GroupRingElement:
    """The published torsion 2a - 3 + 2a^-1 of the sutured genus-2
    handlebody with no disk decomposition.  The defining curves exist only
    as a figure, so this family ships the value, not a presentation."""
    return element(_Z, {
        AbElement((-1,), ()): 2,
        AbElement((0,), ()): -3,
        AbElement((1,), ()): 2,
    })


def goda_input_from_words(alpha: str, beta: str) -> SuturedInput:
    """Optional slot for user-transcribed curve words over {a, b}."""
    alphabet = make_alphabet(["a", "b"])
    return SuturedInput(
        alphabet=alphabet,
        relators=(),
        rminus=W.parse_words((alpha, beta), alphabet),
        name="goda_handlebody",
        notes="user-supplied curve words",
    )


# ---------------------------------------------------------------------------
# Wirtinger presentations

TREFOIL_PD = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))
FIGURE_EIGHT_PD = ((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8))
UNKNOT3_PD = ((1, 2, 2, 3), (3, 4, 4, 5), (5, 6, 6, 1))


def torus_2n_pd(n: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """PD code of the torus knot T(2, n), the closure of sigma_1^n, for odd
    n >= 3: crossing j is (a, a + n, a + 1, a + n + 1) with a = 2j + 1 and
    labels read in 1..2n (n = 3 gives TREFOIL_PD)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("T(2, n) is a knot with at least 3 crossings only for odd n >= 3")
    return tuple(tuple((2 * j + s) % (2 * n) + 1 for s in (0, n, 1, n + 1))
                 for j in range(n))


def torus_2n_expected(n: int) -> GroupRingElement:
    """Alexander polynomial of T(2, n): 1 - t + t^2 - ... + t^(n-1)."""
    return element(_Z, {AbElement((i,), ()): (-1) ** i for i in range(n)})


class PDError(ValueError):
    pass


def wirtinger_knot(pd: Sequence[Sequence[int]],
                   drop_relation: Optional[int] = None,
                   meridian_edge: int = 1) -> SuturedInput:
    """Wirtinger presentation from a planar-diagram code of a knot.

    Each crossing is a 4-tuple (a, b, c, d) of edge labels, listed
    counterclockwise starting from the incoming understrand a; edges are
    numbered 1..2n along the knot.  At a positive crossing with overstrand o
    and understrands u_in -> u_out the relator is o u_in o^-1 u_out^-1
    (mirrored for negative crossings).  One crossing relation is dropped and
    the meridian arc through meridian_edge generates R_-.
    """
    n = len(pd)
    if n < 3:
        raise PDError("need at least 3 crossings")
    edges = 2 * n
    counts: Dict[int, int] = {}
    for x in pd:
        if len(x) != 4:
            raise PDError("each crossing needs 4 edge labels")
        for e in x:
            counts[e] = counts.get(e, 0) + 1
    if sorted(counts) != list(range(1, edges + 1)) or any(v != 2 for v in counts.values()):
        raise PDError(
            "edge labels must be 1..2n, each twice (multi-component links are rejected)"
        )

    def succ(e):
        return e % edges + 1

    for a, b, c, d in pd:
        if c != succ(a):
            raise PDError(f"crossing {(a, b, c, d)}: under-out must follow under-in")
        if d != succ(b) and b != succ(d):
            raise PDError(f"crossing {(a, b, c, d)}: over edges must be consecutive")

    # arcs: runs of consecutive edges broken after each under-in edge
    breaks = {succ(a) for a, _, _, _ in pd}  # edges that start a new arc
    arc_of: Dict[int, int] = {}
    arc_id = -1
    start = min(breaks)
    e = start
    for _ in range(edges):
        if e in breaks:
            arc_id += 1
        arc_of[e] = arc_id
        e = succ(e)
    n_arcs = arc_id + 1
    if n_arcs != n:
        raise PDError("arc count does not match crossing count")

    relators: List[Word] = []
    for a, b, d_ in ((x[0], x[1], x[3]) for x in pd):
        c = succ(a)
        o = arc_of[b]
        u_in, u_out = arc_of[a], arc_of[c]
        eps = 1 if d_ == succ(b) else -1
        relators.append(W.free_reduce(
            ((o, eps), (u_in, 1), (o, -eps), (u_out, -1))
        ))
    if drop_relation is None:
        drop_relation = n - 1
    if not 0 <= drop_relation < n:
        raise PDError("drop_relation index out of range")
    kept = tuple(w for i, w in enumerate(relators) if i != drop_relation)
    alphabet = make_alphabet([f"x{i + 1}" for i in range(n_arcs)])
    meridian = W.Word(((arc_of[meridian_edge], 1),))
    return SuturedInput(
        alphabet=alphabet,
        relators=kept,
        rminus=(meridian,),
        name=f"wirtinger_{n}_crossings",
    )


def alexander_from_seifert(V: Sequence[Sequence[int]]) -> GroupRingElement:
    """Oracle det(V - t V^T) over Z[Z] from a Seifert matrix."""
    g = len(V)
    t = AbElement((1,), ())
    rows = []
    for i in range(g):
        row = []
        for j in range(g):
            e = element(_Z, {AbElement((0,), ()): V[i][j]})
            e = add(e, monomial(_Z, t, -V[j][i]))
            row.append(e)
        rows.append(row)
    return determinant(GRMatrix.from_rows(rows))


TREFOIL_SEIFERT = ((-1, 1), (0, -1))
FIGURE_EIGHT_SEIFERT = ((1, 1), (0, -1))


# ---------------------------------------------------------------------------
# Two-bridge knots via Murasugi products

def two_bridge_expected(even_cf: Sequence[int]) -> GroupRingElement:
    """External product of twisted-band torsions: one band per term of the
    all-even continued fraction, with |coefficient|/2 full twists."""
    if not even_cf:
        raise ValueError("empty continued fraction")
    out = None
    for c in even_cf:
        if c == 0:
            raise ValueError("zero coefficient in continued fraction")
        if c % 2 != 0:
            raise ValueError("continued fraction coefficients must be even")
        band = cyclic_sum(abs(c) // 2)
        out = band if out is None else external_product(out, band)
    return out


# ---------------------------------------------------------------------------
# Pinwheel stretch goal (user supplies the word model; we check the mass)

def coefficient_mass(p: GroupRingElement) -> int:
    return sum(map(abs, p.packed[1].values()))


def pinwheel_expected_mass(n: int) -> int:
    """4 * sum_{k<=n} k^2 = 2n(n+1)(2n+1)/3."""
    return 2 * n * (n + 1) * (2 * n + 1) // 3
