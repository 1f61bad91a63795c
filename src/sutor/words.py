"""Free-group words over a finite alphabet, and the textual word grammar.

A word is a freely reduced sequence of (generator index, nonzero exponent)
pairs.  The empty sequence is the identity.  All exponents are Python ints,
so twist parameters can be arbitrarily large.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


class WordError(ValueError):
    pass


class ParseError(WordError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(WordError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown generator {name!r} (at position {position})")
        self.name = name
        self.position = position


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")

# Parenthesis nesting the recursive-descent parser accepts; deeper input
# would exhaust the interpreter's recursion limit.
_MAX_DEPTH = 200

# Work grows with the value of an exponent, not with its digits, so four
# sizes are checked against this before the work starts: the letters of w^k
# (power), the Fox terms, sum over words of sum |exponent| (fox._columns),
# the slots, 1 + sum of row spans (groupring.determinant), and the running
# count of term products of a cofactor expansion (groupring._cofactor).  Past
# it a ValueError ends the CLI with exit 1.  An 800,002-term commutator fits.
WORK_BUDGET = 1_000_000


@dataclass(frozen=True)
class Generator:
    name: str
    index: int


def make_alphabet(names: Sequence[str]) -> Tuple[Generator, ...]:
    seen = set()
    gens = []
    for i, name in enumerate(names):
        if not _IDENT_RE.fullmatch(name):
            raise WordError(f"invalid generator name {name!r}")
        if name in seen:
            raise WordError(f"duplicate generator name {name!r}")
        seen.add(name)
        gens.append(Generator(name, i))
    return tuple(gens)


@dataclass(frozen=True)
class Word:
    letters: Tuple[Tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.letters)


IDENTITY = Word()


def is_reduced(letters: Sequence[Tuple[int, int]]) -> bool:
    for k, (g, e) in enumerate(letters):
        if e == 0:
            return False
        if k > 0 and letters[k - 1][0] == g:
            return False
    return True


def free_reduce(letters: Iterable[Tuple[int, int]]) -> Word:
    """Freely reduce a raw letter sequence; idempotent."""
    stack: List[Tuple[int, int]] = []
    for g, e in letters:
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            merged = stack[-1][1] + e
            stack.pop()
            if merged:
                stack.append((g, merged))
        else:
            stack.append((g, e))
    return Word(tuple(stack))


def concat(u: Word, v: Word) -> Word:
    return free_reduce(u.letters + v.letters)


def invert(w: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(w.letters)))


def power(w: Word, k: int) -> Word:
    if k == 0:
        return IDENTITY
    if len(w.letters) == 1:
        g, e = w.letters[0]
        return Word(((g, e * k),))
    n = len(w.letters) * abs(k)
    if n > WORK_BUDGET:
        raise ValueError(f"a power of {n} letters is over the work budget of {WORK_BUDGET}")
    if k < 0:
        w, k = invert(w), -k
    return free_reduce(w.letters * k)


def parse_word(text: str, alphabet: Sequence[Generator]) -> Word:
    """Parse the word grammar:

        word   := ws* ( factor ws* )*
        factor := atom ( "^" int )?
        atom   := ident | "(" word ")"

    The bare string "1" (surrounded by whitespace) also denotes the identity.
    """
    index = {g.name: g.index for g in alphabet}
    if text.strip() == "1":
        return IDENTITY
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def parse_sequence(depth: int) -> Word:
        # Free reduction is confluent, so reducing all factors' letters once
        # gives the word that concatenating factor by factor would, in time
        # linear in the letters.
        letters: List[Tuple[int, int]] = []
        while True:
            skip_ws()
            if pos >= n or text[pos] == ")":
                return free_reduce(letters)
            parse_factor(depth, letters)

    def parse_exponent() -> Optional[int]:
        nonlocal pos
        if pos >= n or text[pos] != "^":
            return None
        pos += 1
        m = _INT_RE.match(text, pos)
        if not m:
            raise ParseError("expected integer exponent after '^'", pos)
        pos = m.end()
        return int(m.group(0))

    def parse_factor(depth: int, letters: List[Tuple[int, int]]) -> None:
        # A generator's letter goes straight onto the enclosing list (g^0
        # too: free_reduce drops it); only a group goes through power.
        nonlocal pos
        if text[pos] == "(":
            if depth == _MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
            pos += 1
            inner = parse_sequence(depth + 1)
            if pos >= n or text[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            k = parse_exponent()
            letters.extend((inner if k is None else power(inner, k)).letters)
            return
        m = _IDENT_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        name = m.group(0)
        if name not in index:
            raise UnknownGeneratorError(name, pos)
        pos = m.end()
        k = parse_exponent()
        letters.append((index[name], 1 if k is None else k))

    word = parse_sequence(0)
    if pos < n:
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return word


def render(w: Word, alphabet: Sequence[Generator]) -> str:
    """Inverse of parse_word on reduced words; identity prints as "1"."""
    if not w.letters:
        return "1"
    parts = []
    for g, e in w.letters:
        name = alphabet[g].name
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)
