"""Test-only oracle: the word parser as it was before generator letters went
straight onto the enclosing letter list.  parse_factor returns one Word per
factor and every factor, a lone generator too, goes through power; the
parser in sutor.words must return the same Word, or raise the same
exception with the same message and position, on every text.  _INT_RE is
the exponent pattern the parser in sutor.words matched before its one token
pattern took in the exponent too.

free_reduce is the stack loop that sutor.words.free_reduce was before it
became _push over the letters with a nonzero exponent; both must give the
same Word on every letter sequence."""
import re
from typing import Iterable, List, Sequence, Tuple

from sutor.words import (
    IDENTITY,
    _IDENT_RE,
    _MAX_DEPTH,
    Generator,
    ParseError,
    UnknownGeneratorError,
    Word,
    power,
)

_INT_RE = re.compile(r"-?[0-9]+")


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
            letters.extend(parse_factor(depth).letters)

    def parse_factor(depth: int) -> Word:
        nonlocal pos
        if text[pos] == "(":
            if depth == _MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
            pos += 1
            inner = parse_sequence(depth + 1)
            if pos >= n or text[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            atom = inner
        else:
            m = _IDENT_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            name = m.group(0)
            if name not in index:
                raise UnknownGeneratorError(name, pos)
            pos = m.end()
            atom = Word(((index[name], 1),))
        if pos < n and text[pos] == "^":
            pos += 1
            m = _INT_RE.match(text, pos)
            if not m:
                raise ParseError("expected integer exponent after '^'", pos)
            pos = m.end()
            return power(atom, int(m.group(0)))
        return atom

    word = parse_sequence(0)
    if pos < n:
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return word
