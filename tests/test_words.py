import random

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


def _random_word_text(rng, depth):
    """Random text in the word grammar, with parentheses and powers, and the
    word it denotes by the former parser's rule: fold concat over the
    factors of each sequence."""
    parts, out = [], IDENTITY
    for _ in range(rng.randint(0, 5)):
        if depth < 3 and rng.random() < 0.3:
            inner_text, atom = _random_word_text(rng, depth + 1)
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
        text, expected = _random_word_text(rng, 0)
        assert parse_word(text, AB) == expected, text


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
