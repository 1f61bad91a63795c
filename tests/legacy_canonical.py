"""Test-only oracles: the canonical-form search and the disk-obstruction
analysis as they were before normalize() restricted its candidate shifts and
the disk report compared by equality.  The faster code must agree with these
on every input."""
import itertools
from typing import Optional, Tuple

from legacy_polytope import extremal_part

from legacy_abelian import ab_neg
from sutor.abelian import AbElement, zero_element
from sutor.groupring import (
    GroupRingElement,
    NotDivisibleError,
    equal,
    exact_div,
    monomial,
    mul,
)
from sutor.polytope import (
    DiskCandidate,
    DiskReport,
    _Z,
    cyclic_sum,
)


def normalize(p: GroupRingElement) -> GroupRingElement:
    """Every support point x every torsion residue as a shift."""
    if not p.terms:
        return p
    G = p.group
    origin = (zero_element(G).free, zero_element(G).tor)
    tor_space = list(itertools.product(*[range(d) for d in G.torsion]))
    best: Optional[Tuple] = None
    for h0 in p.terms:
        for tt in tor_space:
            shift = ab_neg(G, AbElement(h0.free, tt))
            q = mul(monomial(G, shift), p)
            items = sorted(((h.free, h.tor), c) for h, c in q.terms.items())
            if items[0][0] != origin:
                continue
            if items[0][1] < 0:
                items = [(k, -c) for k, c in items]
            sig = tuple(items)
            if best is None or sig < best:
                best = sig
    assert best is not None
    return GroupRingElement(G, {AbElement(k[0], k[1]): c for k, c in best})


def sim_equal(p: GroupRingElement, q: GroupRingElement) -> bool:
    assert p.group == q.group
    return equal(normalize(p), normalize(q))


def disk_obstruction_report(tau: GroupRingElement, p_max: int) -> DiskReport:
    """One sim_equal per p, and per (p1, p2) after an exact division."""
    if tau.group != _Z:
        raise ValueError("disk obstruction needs a rank-1 torsion-free group")
    if not tau.terms:
        raise ValueError("zero torsion")
    exps = [h.free[0] for h in tau.terms]
    auto_cap = (max(exps) - min(exps)) + 1
    cap = min(p_max, auto_cap)

    def analyze(label: str, cand: GroupRingElement) -> DiskCandidate:
        single = None
        product = None
        for p in range(1, cap + 1):
            if sim_equal(cand, cyclic_sum(p)):
                single = p
                break
        if single is None:
            nc = normalize(cand)
            for p1 in range(1, cap + 1):
                try:
                    q = exact_div(nc, cyclic_sum(p1))
                except NotDivisibleError:
                    continue
                for p2 in range(p1, cap + 1):
                    if sim_equal(q, cyclic_sum(p2)):
                        product = (p1, p2)
                        break
                if product:
                    break
        return DiskCandidate(label, cand, single, product)

    cands = (
        analyze("tau", tau),
        analyze("extremal(+1)", extremal_part(tau, (1,))),
        analyze("extremal(-1)", extremal_part(tau, (-1,))),
    )
    obstructed = not any(c.matched for c in cands)
    return DiskReport(cands, obstructed, p_max, auto_cap, cap)
