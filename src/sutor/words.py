"""Free-group words over a finite alphabet, and the textual word grammar.

A word is a freely reduced sequence of (generator index, nonzero exponent)
pairs.  The empty sequence is the identity.  All exponents are Python ints,
so twist parameters can be arbitrarily large.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple


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
# One token of the word grammar after its leading blanks: "(" (group 1), or
# a generator name or ")" (group 2) with an optional "^" (group 3) and the
# exponent's digits (group 4).  It always matches; no group is set where the
# blanks end the text or are followed by a character no token starts with.
_TOKEN_RE = re.compile(r"[ \t]*(?:(\()|([A-Za-z][A-Za-z0-9_]*|\))(\^(-?[0-9]+)?)?)?")

# The deepest parenthesis nesting the word grammar accepts: the 201st open
# "(" is a ParseError.
_MAX_DEPTH = 200

# Work grows with the value of an exponent, not with its digits, so these
# sizes are checked against this before the work starts: the rank plus the
# torsion divisors of a serialized tau (groupring.from_records); the letters
# of w^k (power); the Fox terms, sum over words of sum |exponent| (fox._columns);
# the slots, 1 + sum of row spans, of a one-variable determinant, on the
# whole matrix and on the core the front end leaves (groupring._lift); the
# running count of term products of the unit-pivot front end
# (groupring._peel, on matrices of 5 or more rows with at most 4 nonzero
# entries per row on average), which a 2 x 2 core or a cofactor expansion
# (groupring._cofactor) continues; and, in a count of its own, the blocks a
# cofactor expansion settles, each weighted by its rows, except a block
# expanded along a line with one nonzero entry; and the point-facet steps of
# a hull from dimension 3 on (polytope._facet_hull), counted as they are made.
# A front-end step that would cross it ends the front end; past it anywhere
# else check_budget raises a ValueError, which ends the CLI with exit 1.  An
# 800,002-term commutator and the genus-8 handlebody of
# perfbench.corpus.handlebody_words(random.Random(108), 8, 12) (866,680 term
# products) fit.  This is the budget's one binding: fox, groupring and
# polytope read words.WORK_BUDGET at the call, so a program may set it before
# one.
WORK_BUDGET = 1_000_000


def check_budget(count: int, what: str) -> None:
    """Refuse a count over WORK_BUDGET, read at the call: a ValueError whose
    message is what, formatted with the count, then "over the work budget
    of" the budget.  The message is built only when it refuses."""
    if count > WORK_BUDGET:
        raise ValueError(f"{what.format(count)} over the work budget of {WORK_BUDGET}")


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
    """Freely reduce a raw letter sequence; idempotent: _push of its letters
    with a nonzero exponent onto an empty list."""
    top: List[Tuple[int, int]] = []
    _push(top, filter(itemgetter(1), letters))
    return Word(tuple(top))


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
    check_budget(len(w.letters) * abs(k), "a power of {} letters is")
    if k < 0:
        w, k = invert(w), -k
    return free_reduce(w.letters * k)


def parse_words(texts: Iterable[str], alphabet: Sequence[Generator]) -> Tuple[Word, ...]:
    """Parse each text in the word grammar:

        word   := ws* ( factor ws* )*
        factor := atom ( "^" int )?
        atom   := ident | "(" word ")"

    where ws is a space or a tab.  The bare string "1" (surrounded by
    whitespace) also denotes the identity.  One left-to-right scan per text,
    one _TOKEN_RE match per token: stack[-1] collects the letters of the
    innermost open group, stack[0] those of the whole word, each list
    freely reduced at all times.  A generator's letter is reduced against
    the top of its list as it goes on (g^0 is dropped); a closed group,
    already reduced, goes through power when it has an exponent, and its
    letters go onto the enclosing list the same way (_push).  Free
    reduction is confluent, so this gives the word that concatenating
    factor by factor would, in one pass over the letters.
    """
    index = {g.name: g.index for g in alphabet}
    match = _TOKEN_RE.match
    out = []
    for text in texts:
        if text.strip() == "1":
            out.append(IDENTITY)
            continue
        stack: List[List[Tuple[int, int]]] = [[]]
        top = stack[0]
        pos, n = 0, len(text)
        while pos < n:
            m = match(text, pos)
            opening, atom, caret, digits = m.groups()
            pos = m.end()
            if opening:
                if len(stack) > _MAX_DEPTH:
                    raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", pos - 1)
                top = []
                stack.append(top)
                continue
            g = index.get(atom)
            if g is None:  # ")", a name not in the alphabet, or no token
                if atom == ")":
                    if len(stack) == 1:
                        raise ParseError("unexpected character ')'", m.start(2))
                elif atom:
                    raise UnknownGeneratorError(atom, m.start(2))
                elif pos < n:
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                else:
                    break
            k = 1
            if caret:
                if digits is None:
                    raise ParseError("expected integer exponent after '^'", pos)
                try:
                    k = int(digits)
                except ValueError:  # longer than sys.get_int_max_str_digits()
                    raise ParseError(f"exponent of {len(digits.lstrip('-'))} digits is too long",
                                     m.start(4)) from None
            if g is None:
                inner = stack.pop()
                top = stack[-1]
                _push(top, inner if caret is None else power(Word(tuple(inner)), k).letters)
            elif top and top[-1][0] == g:  # _push's step, inline for one letter
                k += top.pop()[1]
                if k:
                    top.append((g, k))
            elif k:
                top.append((g, k))
        if len(stack) > 1:
            raise ParseError("expected ')'", n)
        out.append(Word(tuple(stack[0])))
    return tuple(out)


def _push(top: List[Tuple[int, int]], letters: Iterable[Tuple[int, int]]) -> None:
    """Append the letters of a reduced word to the reduced list top, each
    reduced against the last letter of top as it goes on."""
    for g, e in letters:
        if top and top[-1][0] == g:
            e += top.pop()[1]
            if not e:
                continue
        top.append((g, e))


def parse_word(text: str, alphabet: Sequence[Generator]) -> Word:
    """The one word of parse_words((text,), alphabet)."""
    return parse_words((text,), alphabet)[0]


def render(w: Word, alphabet: Sequence[Generator]) -> str:
    """Inverse of parse_word on reduced words; identity prints as "1"."""
    if not w.letters:
        return "1"
    parts = []
    for g, e in w.letters:
        name = alphabet[g].name
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)
