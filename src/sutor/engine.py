"""End-to-end torsion pipeline: validation, det of the Fox matrix, the
evaluation-identity and augmentation/order checks, and presentation moves.

The determinant is computed unconditionally; its interpretation as the
torsion invariant relies on irreducibility and connectedness hypotheses the
user asserts via the claimed_irreducible flag.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import words as W
from .abelian import (
    AbElement,
    AbelianGroup,
    Cokernel,
    INFINITE,
    Projection,
    abelianize,
    image_matrix,
    order,
    quotient,
    word_images,
)
from .fox import fox_matrix
from .groupring import GroupRingElement
from . import groupring as GR
from .words import Generator, Word


@dataclass(frozen=True)
class SuturedInput:
    alphabet: Tuple[Generator, ...]
    relators: Tuple[Word, ...]
    rminus: Tuple[Word, ...]
    name: Optional[str] = None
    notes: Optional[str] = None
    claimed_irreducible: bool = True


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    blocking: bool
    repaired: Optional["SuturedInput"] = None


class ValidationError(ValueError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"{d.code}: {d.message}" for d in diagnostics))


def validate(inp: SuturedInput) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    names = [g.name for g in inp.alphabet]
    if len(set(names)) != len(names):
        out.append(Diagnostic("DUPLICATE_GENERATOR", "generator names are not distinct", True))
    if not inp.rminus:
        out.append(Diagnostic("EMPTY_RMINUS", "rminus word list is empty", True))
    m, n, l = len(inp.alphabet), len(inp.relators), len(inp.rminus)
    if m != n + l:
        out.append(Diagnostic(
            "SQUARENESS",
            f"matrix is not square: {m} generators != {n} relators + {l} rminus words",
            True,
        ))
    unreduced = [
        w for w in list(inp.relators) + list(inp.rminus) if not W.is_reduced(w.letters)
    ]
    if unreduced:
        repaired = replace(
            inp,
            relators=tuple(W.free_reduce(w.letters) for w in inp.relators),
            rminus=tuple(W.free_reduce(w.letters) for w in inp.rminus),
        )
        out.append(Diagnostic(
            "REDUCTION",
            f"{len(unreduced)} word(s) are not freely reduced",
            False,
            repaired,
        ))
    return out


@dataclass(frozen=True)
class TorsionResult:
    H: AbelianGroup
    gen_map: Tuple[AbElement, ...]
    tau: GroupRingElement
    raw_det: GroupRingElement
    abelianization: Cokernel
    input: SuturedInput

    @cached_property
    def rminus_projection(self) -> Projection:
        """H -> G = H_1(M, R_-), built on first use and shared by both checks
        (cached_property writes the instance __dict__, so frozen is no bar)."""
        return quotient(self.H, word_images(self.abelianization, self.input.rminus))


def torsion(inp: SuturedInput) -> TorsionResult:
    diags = validate(inp)
    blocking = [d for d in diags if d.blocking]
    if blocking:
        raise ValidationError(blocking)
    for d in diags:
        if d.code == "REDUCTION" and d.repaired is not None:
            inp = d.repaired
    ab = abelianize(inp.alphabet, inp.relators)
    A = fox_matrix(inp.alphabet, list(inp.relators) + list(inp.rminus), ab)
    raw = GR.determinant(A)
    return TorsionResult(ab.group, ab.gen_images, GR.normalize(raw), raw, ab, inp)


@dataclass(frozen=True)
class EvalCheck:
    """lhs = p_*(raw_det) in Z[G], packed; rhs = I_G depends on G alone, so
    it is built only when read, and equality compares G, lhs and passed."""
    G: AbelianGroup
    lhs: GroupRingElement
    passed: bool

    @cached_property
    def rhs(self) -> GroupRingElement:
        return GR.sum_of_all_elements(self.G)


def evaluation_check(inp: SuturedInput, result: TorsionResult) -> EvalCheck:
    """p_*(tau) must equal +-I_G for G = H_1(M, R_-).  Comparing with +-I_G
    is exact up to the unit: h*I_G = I_G when G is finite, and I_G = 0 when
    G has positive rank.  lhs comes packed with canonical keys, one per
    group element, so passed counts them: none for infinite G, and for
    finite G exactly |G| keys that share one coefficient, +1 or -1.  The
    check reads `result.input`, the validated and freely reduced input;
    `inp` is unused."""
    proj = result.rminus_projection
    lhs = GR.push_forward(result.raw_det, proj)
    keys, o = lhs.packed[1], order(proj.target)
    passed = not keys if o is INFINITE else len(keys) == o and set(keys.values()) in ({1}, {-1})
    return EvalCheck(proj.target, lhs, passed)


@dataclass(frozen=True)
class AugOrderCheck:
    aug: int
    ord: object  # int or INFINITE
    passed: bool


def augmentation_order_check(inp: SuturedInput, result: TorsionResult) -> AugOrderCheck:
    """|eps(tau)| must equal |G|, with |G| = 0 read as INFINITE.  The check
    reads `result.input`, the validated and freely reduced input; `inp` is
    unused."""
    o = order(result.rminus_projection.target)
    aug = abs(GR.augmentation(result.raw_det))
    passed = (aug == 0) if o is INFINITE else (aug == o)
    return AugOrderCheck(aug, o, passed)


def nielsen_move(inp: SuturedInput, move: Tuple) -> SuturedInput:
    """move = ("invert", k) or ("multiply", k, k2); indices are 0-based."""
    kind = move[0]
    rm = list(inp.rminus)
    if kind == "invert":
        rm[move[1]] = W.invert(rm[move[1]])
    elif kind == "multiply":
        k, k2 = move[1], move[2]
        if k == k2:
            raise ValueError("multiply move needs distinct indices")
        rm[k] = W.concat(rm[k], rm[k2])
    else:
        raise ValueError(f"unknown Nielsen move {kind!r}")
    return replace(inp, rminus=tuple(rm))


def tietze_add_generator(inp: SuturedInput, w: Word, name: Optional[str] = None) -> SuturedInput:
    """Append a fresh generator g and the relator g * w^-1."""
    existing = {g.name for g in inp.alphabet}
    if name is None:
        base = "g"
        name = base
        i = 1
        while name in existing:
            i += 1
            name = f"{base}{i}"
    elif name in existing:
        raise ValueError(f"generator name {name!r} already in use")
    new_idx = len(inp.alphabet)
    alphabet = inp.alphabet + (Generator(name, new_idx),)
    relator = W.concat(W.Word(((new_idx, 1),)), W.invert(w))
    return replace(inp, alphabet=alphabet, relators=inp.relators + (relator,))


def induced_hom(old: TorsionResult, new: TorsionResult) -> Projection:
    """The canonical map H_old -> H_new for presentations sharing their first
    generators (e.g. after a Tietze extension): each canonical factor of
    H_old lifts to an exponent vector over the old generators, which maps
    through the new abelianization."""
    old_ab, new_ab = old.abelianization, new.abelianization
    pad = (0,) * (len(new_ab.gen_images) - len(old_ab.gen_images))
    return Projection(old.H, new.H, image_matrix(new.H, [
        new_ab.from_vector(col + pad) for col in old_ab.lifts]))


def transport_tau(old: TorsionResult, new: TorsionResult) -> GroupRingElement:
    """old raw determinant pushed into the new H via the canonical map."""
    return GR.push_forward(old.raw_det, induced_hom(old, new))


# ---------------------------------------------------------------------------
# JSON interface

def input_to_dict(inp: SuturedInput) -> dict:
    d = {
        "generators": [g.name for g in inp.alphabet],
        "relators": [W.render(w, inp.alphabet) for w in inp.relators],
        "rminus": [W.render(w, inp.alphabet) for w in inp.rminus],
    }
    if inp.name is not None:
        d["name"] = inp.name
    if inp.notes is not None:
        d["notes"] = inp.notes
    d["claimed_irreducible"] = inp.claimed_irreducible
    return d


def _string_list(key: str, value) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{key!r} must be a list of strings")
    return value


def _optional_string(key: str, value) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string or null")
    return value


def input_from_dict(d: dict) -> SuturedInput:
    """Build an input from its JSON object; raises ValueError on a malformed
    shape."""
    if not isinstance(d, dict):
        raise ValueError("input must be a JSON object")
    alphabet = W.make_alphabet(_string_list("generators", d.get("generators")))
    relators = _string_list("relators", d.get("relators", []))
    rminus = _string_list("rminus", d.get("rminus", []))
    irreducible = d.get("claimed_irreducible", True)
    if not isinstance(irreducible, bool):
        raise ValueError("'claimed_irreducible' must be true or false")
    parsed = W.parse_words(relators + rminus, alphabet)
    return SuturedInput(
        alphabet=alphabet,
        relators=parsed[:len(relators)],
        rminus=parsed[len(relators):],
        name=_optional_string("name", d.get("name")),
        notes=_optional_string("notes", d.get("notes")),
        claimed_irreducible=irreducible,
    )


def load_input(path: str) -> SuturedInput:
    with open(path, "r", encoding="utf-8") as fh:
        return input_from_dict(json.load(fh))


def dump_input(inp: SuturedInput, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(input_to_dict(inp), fh, indent=2, sort_keys=True)
        fh.write("\n")
