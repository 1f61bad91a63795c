import collections
import itertools
import random
import sys

import legacy_words
import pytest
from hypothesis import given, strategies as st

from sutor import words as W
from sutor.words import (
    IDENTITY,
    ParseError,
    UnknownGeneratorError,
    Word,
    WordError,
    concat,
    free_reduce,
    invert,
    is_reduced,
    make_alphabet,
    parse_word,
    power,
    render,
)

AB = make_alphabet(["a", "b", "c"])


def test_make_alphabet_indices():
    assert [g.name for g in AB] == ["a", "b", "c"]
    assert [g.index for g in AB] == [0, 1, 2]


def test_make_alphabet_rejects_bad_names():
    with pytest.raises(WordError):
        make_alphabet(["a", "a"])
    with pytest.raises(WordError):
        make_alphabet(["2x"])
    with pytest.raises(WordError):
        make_alphabet(["a-b"])


def test_free_reduce_merges_and_cancels():
    assert free_reduce([(0, 1), (0, 2)]) == Word(((0, 3),))
    assert free_reduce([(0, 1), (0, -1)]) == IDENTITY
    assert free_reduce([(0, 1), (1, 2), (1, -2), (0, -1)]) == IDENTITY
    assert free_reduce([(0, 0), (1, 1)]) == Word(((1, 1),))


def test_free_reduce_cascading_cancellation():
    # a b b^-1 a should merge into a^2
    w = free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)])
    assert w == Word(((0, 2),))


def test_free_reduce_matches_legacy_stack():
    """free_reduce, _push over the letters with a nonzero exponent, gives
    the Word of the stack loop it replaced on seeded raw sequences over 3
    generators with exponents -2..2, zeros and repeated generators included,
    whether the letters come as a list or as a one-pass iterator."""
    rng = random.Random("free_reduce")
    seen = collections.Counter()
    for _ in range(6000):
        letters = [(rng.randrange(3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 12))]
        expected = legacy_words.free_reduce(letters)
        assert free_reduce(letters) == expected == free_reduce(iter(letters)), letters
        assert free_reduce(expected.letters) == expected
        seen["zero"] += any(e == 0 for _, e in letters)
        seen["repeat"] += any(g == h for (g, _), (h, _) in zip(letters, letters[1:]))
        seen["shorter"] += len(expected.letters) < sum(e != 0 for _, e in letters)
    assert min(seen.values()) >= 1000, seen


def test_is_reduced():
    assert is_reduced(())
    assert is_reduced(((0, 1), (1, -2)))
    assert not is_reduced(((0, 1), (0, 1)))
    assert not is_reduced(((0, 0),))


def test_concat_invert_power():
    u = parse_word("a b", AB)
    v = parse_word("b^-1 a", AB)
    assert concat(u, v) == Word(((0, 2),))
    assert invert(u) == parse_word("b^-1 a^-1", AB)
    assert power(u, 0) == IDENTITY
    assert power(parse_word("a", AB), 3) == Word(((0, 3),))
    assert power(parse_word("a", AB), -2) == Word(((0, -2),))
    assert power(u, 2) == parse_word("a b a b", AB)


def test_power_matches_repeated_concat():
    def oracle(w, k):  # the former definition: |k| repeated concats
        if k < 0:
            w, k = invert(w), -k
        out = IDENTITY
        for _ in range(k):
            out = concat(out, w)
        return out

    rng = random.Random(2024)
    for _ in range(300):
        w = free_reduce((rng.randrange(3), rng.choice([-2, -1, 1, 2]))
                        for _ in range(rng.randint(0, 6)))
        for k in range(-5, 6):
            assert power(w, k) == oracle(w, k), (w, k)


def test_power_of_one_syllable_is_direct():
    assert parse_word("a^100000000", AB) == Word(((0, 100000000),))


def test_parse_basic():
    assert parse_word("1", AB) == IDENTITY
    assert parse_word("  1  ", AB) == IDENTITY
    assert parse_word("a", AB) == Word(((0, 1),))
    assert parse_word("a^-1", AB) == Word(((0, -1),))
    assert parse_word("a^3 b^-2", AB) == Word(((0, 3), (1, -2)))
    assert parse_word("", AB) == IDENTITY


def test_parse_parens_and_power():
    assert parse_word("(a b)^2", AB) == parse_word("a b a b", AB)
    assert parse_word("(b^-1 a)^3", AB) == power(parse_word("b^-1 a", AB), 3)
    assert parse_word("(a)^0", AB) == IDENTITY
    assert parse_word("((a b) c)^-1", AB) == invert(parse_word("a b c", AB))


def test_parse_reduces():
    assert parse_word("a a^-1", AB) == IDENTITY
    assert parse_word("a b b^-1 c", AB) == parse_word("a c", AB)


def test_parse_errors():
    with pytest.raises(UnknownGeneratorError) as ei:
        parse_word("a d", AB)
    assert ei.value.name == "d"
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse_word("(a b", AB)
    with pytest.raises(ParseError):
        parse_word("a^x", AB)
    with pytest.raises(ParseError):
        parse_word("a )", AB)
    with pytest.raises(ParseError):
        parse_word("*", AB)
    with pytest.raises(ParseError):
        parse_word("(" * 3000 + "a" + ")" * 3000, AB)
    assert parse_word("(" * 200 + "a" + ")" * 200, AB) == Word(((0, 1),))


def test_parse_many_factors_is_linear():
    ab = make_alphabet(["a", "b"])
    assert parse_word("a b " * 20000, ab) == Word(((0, 1), (1, 1)) * 20000)


def _random_word_text(rng, depth, max_depth):
    """Random text in the word grammar, with parentheses nested at most
    max_depth deep and powers, and the word it denotes by the former parser's
    rule: fold concat over the factors of each sequence."""
    parts, out = [], IDENTITY
    for _ in range(rng.randint(0, 5)):
        if depth < max_depth and rng.random() < 0.3:
            inner_text, atom = _random_word_text(rng, depth + 1, max_depth)
            text = f"({inner_text})"
        else:
            g = rng.randrange(3)
            text, atom = AB[g].name, Word(((g, 1),))
        if rng.random() < 0.5:
            k = rng.randint(-3, 3)
            text, atom = f"{text}^{k}", power(atom, k)
        parts.append(text)
        out = concat(out, atom)
    return rng.choice([" ", "  ", "\t"]).join(parts), out


def test_parse_matches_concat_fold():
    rng = random.Random(7)
    for _ in range(500):
        text, expected = _random_word_text(rng, 0, 3)
        assert parse_word(text, AB) == expected, text


def _outcome(parse, text):
    """The Word parse returns, or the class, message and position of what it
    raises."""
    try:
        return parse(text, AB)
    except (WordError, ValueError) as e:
        return type(e), str(e), getattr(e, "position", None)


def test_parse_matches_legacy_parser():
    """The parser that appends generator letters straight to the enclosing
    list against the one that made a Word per factor: nesting, tabs and
    spaces, ^-k and ^0, and malformed texts made by cutting, inserting or
    swapping characters of valid ones."""
    for seed, count, max_depth in [(11, 2000, 3), (12, 1000, 8)]:
        rng = random.Random(seed)
        kinds = collections.Counter()
        for _ in range(count):
            text, _ = _random_word_text(rng, 0, max_depth)
            if rng.random() < 0.5 and text:
                i = rng.randrange(len(text) + 1)
                cut = text[:i] + text[i + rng.randint(1, 3):]
                text = rng.choice([cut, text[:i] + rng.choice("()^-0 d*1\t") + text[i:],
                                   text.replace("^", rng.choice(["^", "^ ", "^-", "^x"]), 1)])
            got = _outcome(parse_word, text)
            assert got == _outcome(legacy_words.parse_word, text), repr(text)
            kinds[type(got) is Word and "word" or got[0].__name__] += 1
        assert kinds["word"] > count // 4 and kinds["ParseError"] > count // 20
        assert kinds["UnknownGeneratorError"] > count // 200
    for text in ["1", " 1\t", "", "a^0", "a^-0", "(a)^0 b", "a^1 a^-1", "((a^2 b)^-3 c)^0",
                 "(" * 200 + "a" + ")" * 200, "(" * 201 + "a" + ")" * 201, "a^", "a^-",
                 "(a b", "a )", "a d", "a\nb", "(a b)^1000001", "a^99999999999",
                 "(", ")", "()", "()^3 a", "(a)(b)^-1", "((a)", "(a))", "a^2(b)", ")(",
                 "( \t)^0", "(a^", "(" * 200 + "a" + ")" * 199,
                 "(" * 200 + ")" * 200 + "^5"]:
        assert _outcome(parse_word, text) == _outcome(legacy_words.parse_word, text), repr(text)
    # every text of up to 4 characters over a small alphabet: a "^" at the
    # start, after a blank or after "(" is an unexpected character, and x is
    # no generator
    for length in range(5):
        for chars in itertools.product("ab()^-1x \t", repeat=length):
            text = "".join(chars)
            assert _outcome(parse_word, text) == _outcome(legacy_words.parse_word, text), repr(text)


def test_parse_refuses_an_exponent_past_the_int_string_limit():
    """An exponent with more digits than int() converts is a ParseError at
    the exponent, after the checks that come before it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for text, position, digits in [("a^-" + "9" * 4301, 2, 4301),
                                       ("b (a c)^" + "1" * 5000, 8, 5000)]:
            with pytest.raises(ParseError) as ei:
                parse_word(text, AB)
            assert str(ei.value) == (f"exponent of {digits} digits is too long "
                                     f"(at position {position})")
        with pytest.raises(UnknownGeneratorError):
            parse_word("d^" + "9" * 4301, AB)
        assert parse_word("a^" + "9" * 4300, AB) == Word(((0, int("9" * 4300)),))
    finally:
        sys.set_int_max_str_digits(limit)


def test_deepest_nesting_needs_no_recursion():
    """The scan keeps one list per open group, so 200 levels parse with the
    recursion limit just above the caller's own stack depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        word = parse_word("(" * 200 + "a" + ")" * 200, AB)
    finally:
        sys.setrecursionlimit(limit)
    assert word == Word(((0, 1),))


def test_parse_words_parses_each_text():
    assert W.parse_words(["a b", "1", "", "(a c)^-1"], AB) == (
        Word(((0, 1), (1, 1))), IDENTITY, IDENTITY, Word(((2, -1), (0, -1))))
    assert W.parse_words([], AB) == ()
    with pytest.raises(UnknownGeneratorError) as ei:
        W.parse_words(["a", "b d"], AB)
    assert ei.value.position == 2


def test_input_from_dict_parses_every_word_in_one_call(monkeypatch):
    """One call of parse_words, so one name index, per input."""
    from sutor import engine

    calls, parse_words_ = [], W.parse_words

    def spy(texts, alphabet):
        calls.append(list(texts))
        return parse_words_(texts, alphabet)

    monkeypatch.setattr(W, "parse_words", spy)
    inp = engine.input_from_dict({"generators": ["a", "b"], "relators": ["a b a^-1 b^-1"],
                                  "rminus": ["a", "(a b)^2"]})
    assert calls == [["a b a^-1 b^-1", "a", "(a b)^2"]]
    assert inp.relators == (parse_word("a b a^-1 b^-1", AB),)
    assert inp.rminus == (parse_word("a", AB), parse_word("(a b)^2", AB))


def test_render_round_trip():
    for text in ["1", "a", "a^-1", "a^3 b^-2 c", "a b a^-1"]:
        w = parse_word(text, AB)
        assert parse_word(render(w, AB), AB) == w


words_st = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-4, 4)), max_size=12
).map(free_reduce)


@given(words_st)
def test_invert_is_involutive(w):
    assert invert(invert(w)) == w


@given(words_st)
def test_concat_with_inverse_is_identity(w):
    assert concat(w, invert(w)) == IDENTITY
    assert concat(invert(w), w) == IDENTITY


@given(words_st)
def test_reduction_idempotent_and_render_round_trip(w):
    assert free_reduce(w.letters) == w
    assert parse_word(render(w, AB), AB) == w


@given(words_st, words_st, words_st)
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))
