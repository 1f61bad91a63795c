"""Seeded input corpora for the benchmark workloads.

Every case starts as the JSON input text a user would hand to `sutor`, and
carries its size measures and the name of the oracle that verifies it.  The
same seed always yields the same corpus; `digest` fingerprints it.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from sutor import engine as E
from sutor import families as F
from sutor import words as W
from sutor.abelian import abelianize
from sutor.fox import fox_matrix
from sutor.groupring import determinant

# Every corpus holds at least 100 cases and one pass over it takes about
# 2 s, so that a run executes each case about ten times.

# knots: the T(2,n) ladder and (strands, crossing counts, draws per count)
TORUS_LADDER = tuple(range(3, 32, 2))
BRAID_STRATA = (
    (3, tuple(range(8, 25, 2)), 5),
    (4, tuple(range(9, 22, 2)), 4),
    (5, tuple(range(8, 21, 2)), 3),
)
# (strands, crossings): bounds on cofactor_minors, the median of random
# draws of that size +-20%.  The determinant's time follows the minor count
# (log-log correlation 0.98 over 470 draws), so the bounds give every seed
# the same spread of case times; draws under 12 crossings take a few
# milliseconds and are not bounded.
BRAID_MINORS = {
    (3, 12): (40, 59), (3, 14): (74, 112), (3, 16): (114, 172), (3, 18): (176, 263),
    (3, 20): (268, 403), (3, 22): (355, 533), (3, 24): (516, 775),
    (4, 13): (47, 71), (4, 15): (66, 98), (4, 17): (126, 190), (4, 19): (141, 212),
    (4, 21): (219, 329),
    (5, 12): (26, 40), (5, 14): (45, 68), (5, 16): (59, 89), (5, 18): (100, 150),
    (5, 20): (170, 256),
}

# surfaces: (genus, word length, draws, term bounds).  The i-th draw of a
# stratum is kept only when |H_1(M, R_-)| is the i-th target (cyclically)
# and the determinant's term count lies in the stratum's bounds, about its
# median +-25%, so every seed has the same spread of |G| and of terms.
HANDLEBODY_STRATA = ((3, 7, 32, (17, 27)), (3, 9, 22, (24, 40)), (4, 5, 22, (19, 31)),
                     (4, 7, 14, (43, 72)))
SURFACE_G_TARGETS = tuple(range(2, 21))
PRETZEL_K = (1, 2, 3)
SOLID_TORUS_P = (5, 10, 15, 20, 25)

# polytope: dimension-2 pretzels, dimension-1 supports with the disk check,
# and full-dimensional genus-3 supports with few points; only the last are
# drawn from the seed
POLY_PRETZELS = {"pretzel_odd": 15, "pretzel_even": 66}
POLY_PRETZEL_PARAMS = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1))   # used in turn
POLY_TORUS_N = tuple(range(3, 14, 2))
POLY_SOLID_P = tuple(range(2, 13))
POLY_DIM1_DISK_SLACK = 3         # check --disk cap = support span + slack
POLY_GENUS3 = ((4, 8),)           # (word length, draws)
# support sizes, one per draw in turn.  At word length 4 about 10% of draws
# are full-dimensional with 4 points and 28% with 6, but only 1.5% with 5,
# so these keep the number of rejected draws, and the set-up time, steady.
POLY_GENUS3_POINTS = (4, 6)

# the oracle that verifies each family's torsion (see verify.expected_tau)
ORACLE = {"torus_2n": "closed_form", "trefoil": "seifert", "figure_eight": "seifert",
          "braid": "second_presentation", "pretzel_odd": "pretzel_odd_expected",
          "pretzel_even": "laurent_det", "cantwell_conlon": "laurent_det",
          "handlebody": "laurent_det", "solid_torus": "cyclic_sum"}

# batch: manifests of fixture-sized entries, one manifest per case
BATCH_MANIFESTS = 120
BATCH_PRETZEL_EVEN = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1))


@dataclass
class Case:
    cid: int
    family: str
    params: dict
    text: str
    oracle: str
    sizes: Dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Planar diagrams

def closes_to_knot(word: Sequence[int], strands: int) -> bool:
    """The closure is a knot iff the braid's permutation is one cycle."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    p, length = perm[0], 1
    while p != 0:
        p, length = perm[p], length + 1
    return length == strands


def braid_closure_pd(word: Sequence[int], strands: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """PD code of the closure of a braid word (letters +-i for sigma_i^+-1).

    Strands run upward; at each crossing the strand from position i moves to
    i+1 and the strand from i+1 moves to i.  Raises ValueError when the
    closure has more than one component."""
    if any(not 0 < abs(g) < strands for g in word):
        raise ValueError(f"braid letters must lie in +-1..+-{strands - 1}")
    if not closes_to_knot(word, strands):
        raise ValueError("braid closes to more than one component")
    cur = list(range(strands))           # segment id at each position
    bottom = list(cur)
    nseg = strands
    nxt: Dict[int, int] = {}
    crossings = []
    for g in word:
        i = abs(g) - 1
        a_in, b_in = cur[i], cur[i + 1]
        a_out, b_out = nseg, nseg + 1
        nseg += 2
        nxt[a_in], nxt[b_in] = a_out, b_out
        cur[i], cur[i + 1] = b_out, a_out
        crossings.append((g > 0, a_in, a_out, b_in, b_out))
    same = {cur[p]: bottom[p] for p in range(strands)}  # closure arcs

    def canon(s: int) -> int:
        return same.get(s, s)

    succ = {canon(k): canon(v) for k, v in nxt.items()}
    label: Dict[int, int] = {}
    s = canon(0)
    while s not in label:               # number edges 1..2n along the knot
        label[s] = len(label) + 1
        s = succ[s]
    pd = []
    for positive, a_in, a_out, b_in, b_out in crossings:
        a_in, a_out, b_in, b_out = (label[canon(x)] for x in (a_in, a_out, b_in, b_out))
        # counterclockwise from the incoming understrand
        pd.append((b_in, a_out, b_out, a_in) if positive else (a_in, b_in, a_out, b_out))
    return tuple(pd)


def torus_2n_pd(n: int):
    """PD code of the torus knot T(2,n), the closure of sigma_1^n."""
    if n < 3 or n % 2 == 0:
        raise ValueError("T(2,n) is a knot with >= 3 crossings only for odd n >= 3")
    return braid_closure_pd([1] * n, 2)


def random_braid(rng: random.Random, strands: int, crossings: int) -> List[int]:
    """A random braid word without adjacent inverse letters whose closure
    is a knot."""
    while True:
        word: List[int] = []
        while len(word) < crossings:
            g = rng.randint(1, strands - 1) * rng.choice((1, -1))
            if not word or word[-1] != -g:
                word.append(g)
        if closes_to_knot(word, strands):
            return word


# ---------------------------------------------------------------------------
# Handlebodies and other presentations without relators

def handlebody_words(rng: random.Random, g: int, length: int) -> List[List[Tuple[int, int]]]:
    """g random words of the given length over g generators, exponents +-1,
    no two adjacent letters on one generator."""
    out = []
    for _ in range(g):
        w: List[Tuple[int, int]] = []
        while len(w) < length:
            x = rng.randrange(g)
            if not w or w[-1][0] != x:
                w.append((x, rng.choice((1, -1))))
        out.append(w)
    return out


def int_det(M: List[List[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    A = [list(r) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def rminus_order(inp: E.SuturedInput) -> int:
    """|H_1(M, R_-)| for a presentation without relators: |det| of the
    exponent-sum matrix of the R_- words (0 when infinite)."""
    g = len(inp.alphabet)
    M = [[0] * g for _ in range(g)]
    for j, w in enumerate(inp.rminus):
        for x, e in w.letters:
            M[x][j] += e
    return abs(int_det(M))


def raw_det(inp: E.SuturedInput):
    ab = abelianize(inp.alphabet, inp.relators)
    return determinant(fox_matrix(inp.alphabet, list(inp.relators) + list(inp.rminus), ab))


def det_terms(inp: E.SuturedInput) -> int:
    return len(raw_det(inp).terms)


def _text(inp: E.SuturedInput) -> str:
    return json.dumps(E.input_to_dict(inp), sort_keys=True)


def _points_dim3(inp: E.SuturedInput) -> Tuple[int, bool]:
    """Support size and whether the support spans all of R^3."""
    pts = [h.free for h in raw_det(inp).terms]
    if len(pts) < 4:
        return len(pts), False
    vecs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    return len(pts), any(int_det(list(m)) for m in itertools.combinations(vecs, 3))


class _Cases:
    def __init__(self):
        self.cases: List[Case] = []

    def add(self, family: str, params: dict, inp: E.SuturedInput, **sizes) -> None:
        self.cases.append(Case(len(self.cases), family, params, _text(inp), ORACLE[family],
                               sizes))


def cofactor_minors(inp: E.SuturedInput) -> int:
    """How many minors a memoized cofactor expansion along the sparsest row
    or column visits, from the Fox matrix's nonzero pattern alone."""
    ab = abelianize(inp.alphabet, inp.relators)
    A = fox_matrix(inp.alphabet, list(inp.relators) + list(inp.rminus), ab)
    nz = [[bool(e.terms) for e in row] for row in A.entries]
    seen = set()

    def visit(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> None:
        if len(rows) == 1 or (rows, cols) in seen:
            return
        seen.add((rows, cols))
        in_row = [sum(nz[r][c] for c in cols) for r in rows]
        in_col = [sum(nz[r][c] for r in rows) for c in cols]
        ri = min(range(len(rows)), key=in_row.__getitem__)
        ci = min(range(len(cols)), key=in_col.__getitem__)
        if in_row[ri] <= in_col[ci]:
            for j, c in enumerate(cols):
                if nz[rows[ri]][c]:
                    visit(rows[:ri] + rows[ri + 1:], cols[:j] + cols[j + 1:])
        else:
            for i, r in enumerate(rows):
                if nz[r][cols[ci]]:
                    visit(rows[:i] + rows[i + 1:], cols[:ci] + cols[ci + 1:])

    visit(tuple(range(A.rows)), tuple(range(A.cols)))
    return len(seen)


def _knot(b: _Cases, family: str, params: dict, pd, strands: int, **sizes) -> None:
    inp = F.wirtinger_knot(pd)
    b.add(family, dict(params, pd=[list(x) for x in pd]), inp,
          crossings=len(pd), strands=strands, dim=len(pd), G_order=1, **sizes)


# ---------------------------------------------------------------------------
# Workload corpora

def knots(seed: int) -> List[Case]:
    rng = random.Random(f"knots:{seed}")
    b = _Cases()
    for n in TORUS_LADDER:
        _knot(b, "torus_2n", {"n": n}, torus_2n_pd(n), 2)
    _knot(b, "trefoil", {}, F.TREFOIL_PD, 2)
    _knot(b, "figure_eight", {}, F.FIGURE_EIGHT_PD, 3)
    for strands, sizes, draws in BRAID_STRATA:
        for n in sizes:
            lo, hi = BRAID_MINORS.get((strands, n), (0, float("inf")))
            for _ in range(draws):
                while True:
                    word = random_braid(rng, strands, n)
                    pd = braid_closure_pd(word, strands)
                    minors = (cofactor_minors(F.wirtinger_knot(pd))
                              if (strands, n) in BRAID_MINORS else 0)
                    if lo <= minors <= hi:
                        break
                _knot(b, "braid", {"strands": strands, "word": word}, pd, strands,
                      **({"minors": minors} if minors else {}))
    return b.cases


def _handlebody(b: _Cases, rng: random.Random, g: int, length: int, accept) -> None:
    """Draw genus-g handlebodies until accept(inp) returns the draw's size
    measures, then add it."""
    alphabet = W.make_alphabet("abcdefgh"[:g])
    while True:
        words = handlebody_words(rng, g, length)
        inp = E.SuturedInput(alphabet, (), tuple(W.free_reduce(w) for w in words),
                             name=f"handlebody_g{g}_{len(b.cases)}")
        sizes = accept(inp)
        if sizes is not None:
            break
    b.add("handlebody", {"g": g, "length": length,
                         "words": [list(map(list, w.letters)) for w in inp.rminus]},
          inp, dim=g, G_order=rminus_order(inp), **sizes)


def surfaces(seed: int) -> List[Case]:
    rng = random.Random(f"surfaces:{seed}")
    b = _Cases()
    for k in PRETZEL_K:
        for fam in ("pretzel_odd", "pretzel_even"):
            inp = getattr(F, fam)(k, k, k)
            b.add(fam, {"r": k, "s": k, "t": k}, inp,
                  dim=2, terms=det_terms(inp), G_order=rminus_order(inp))
    for p in SOLID_TORUS_P:
        b.add("solid_torus", {"p": p}, F.solid_torus(p), dim=1, terms=p, G_order=p)
    def accept(order, lo, hi):
        def sizes(inp):
            if rminus_order(inp) == order:
                n = det_terms(inp)
                if lo <= n <= hi:
                    return {"terms": n}
            return None
        return sizes

    for g, length, draws, (lo, hi) in HANDLEBODY_STRATA:
        for i in range(draws):
            _handlebody(b, rng, g, length,
                        accept(SURFACE_G_TARGETS[i % len(SURFACE_G_TARGETS)], lo, hi))
    return b.cases


def polytope(seed: int) -> List[Case]:
    rng = random.Random(f"polytope:{seed}")
    b = _Cases()
    for fam, count in POLY_PRETZELS.items():
        for i in range(count):
            r, s, t = POLY_PRETZEL_PARAMS[i % len(POLY_PRETZEL_PARAMS)]
            inp = getattr(F, fam)(r, s, t)
            b.add(fam, {"r": r, "s": s, "t": t}, inp,
                  dim=2, points=det_terms(inp), G_order=rminus_order(inp))
    for n in POLY_TORUS_N:
        b.add("torus_2n", {"n": n, "disk_cap": n - 1 + POLY_DIM1_DISK_SLACK},
              F.wirtinger_knot(torus_2n_pd(n)), dim=1, points=n, crossings=n)
    for p in POLY_SOLID_P:
        b.add("solid_torus", {"p": p, "disk_cap": p - 1 + POLY_DIM1_DISK_SLACK},
              F.solid_torus(p), dim=1, points=p, G_order=p)

    def accept(points):
        def sizes(inp):
            n, full = _points_dim3(inp)
            return {"points": n} if full and n == points else None
        return sizes

    for length, draws in POLY_GENUS3:
        for i in range(draws):
            _handlebody(b, rng, 3, length, accept(POLY_GENUS3_POINTS[i % len(POLY_GENUS3_POINTS)]))
    return b.cases


def batch_pool(rng: random.Random) -> List[Tuple[str, dict, E.SuturedInput]]:
    """One manifest's fixture-sized entries in random order: two pretzels,
    three knots, two solid tori and the Cantwell-Conlon handlebody."""
    r, s, t = rng.choice(BATCH_PRETZEL_EVEN)
    out = [("pretzel_odd", {"r": 1, "s": 1, "t": 1}, F.pretzel_odd(1, 1, 1)),
           ("pretzel_even", {"r": r, "s": s, "t": t}, F.pretzel_even(r, s, t))]
    for _ in range(3):
        kind = rng.choice(("torus_2n", "trefoil", "figure_eight"))
        if kind == "torus_2n":
            n = rng.choice((3, 5, 7, 9))
            out.append((kind, {"n": n}, F.wirtinger_knot(torus_2n_pd(n))))
        else:
            pd = F.TREFOIL_PD if kind == "trefoil" else F.FIGURE_EIGHT_PD
            out.append((kind, {}, F.wirtinger_knot(pd)))
    for _ in range(2):
        p = rng.randint(2, 6)
        out.append(("solid_torus", {"p": p}, F.solid_torus(p)))
    out.append(("cantwell_conlon", {}, F.cantwell_conlon()))
    rng.shuffle(out)
    return out


def batch(seed: int) -> List[Case]:
    """Each case is one manifest; its text is the list of entries, each with
    the entry's family, parameters and input text."""
    rng = random.Random(f"batch:{seed}")
    cases = []
    for cid in range(BATCH_MANIFESTS):
        entries = [
            {"family": fam, "params": params, "text": _text(inp)}
            for fam, params, inp in batch_pool(rng)
        ]
        cases.append(Case(cid, "manifest", {"entries": len(entries)},
                          json.dumps(entries, sort_keys=True), "expected_tau",
                          {"entries": len(entries)}))
    return cases


CORPORA = {"knots": knots, "surfaces": surfaces, "polytope": polytope, "batch": batch}


def build(workload: str, seed: int) -> List[Case]:
    return CORPORA[workload](seed)


def digest(cases: Sequence[Case]) -> str:
    h = hashlib.sha256()
    for c in cases:
        h.update(json.dumps([c.cid, c.family, c.params, c.text, c.oracle, c.sizes],
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
