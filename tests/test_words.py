"""Word algebra against a naive letter-level oracle."""

import random
import re

import pytest

from proficert.errors import WordSyntaxError
from proficert.words import (
    K,
    L,
    FactorPartition,
    Generator,
    Word,
    exponent_sum,
    format_word,
    identity,
    invert,
    multiply,
    parse_word,
    power,
    reduce,
    syllables,
    word_length,
    _generator_table,
)

P11 = FactorPartition(1, 1)
P22 = FactorPartition(2, 2)
A = Generator(K, 0)
B = Generator(L, 0)


# --- naive oracle: words as explicit letter lists ------------------------------

def flatten(w):
    out = []
    for g, e in w.runs:
        step = 1 if e > 0 else -1
        out.extend((g, step) for _ in range(abs(e)))
    return out


def naive_reduce(letters):
    stack = []
    for g, s in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return stack


def to_word(letters):
    return reduce(tuple((g, s) for g, s in letters))


def random_pairs(rng, partition, max_runs=8, max_exp=5):
    gens = partition.generators()
    return tuple(
        (rng.choice(gens), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(rng.randrange(max_runs + 1)))


def test_reduce_matches_letter_oracle():
    rng = random.Random(11)
    for _ in range(2000):
        partition = rng.choice([P11, P22])
        pairs = random_pairs(rng, partition)
        w = reduce(pairs)
        raw = []
        for g, e in pairs:
            step = 1 if e > 0 else -1
            raw.extend((g, step) for _ in range(abs(e)))
        assert flatten(w) == naive_reduce(raw)


def test_multiply_matches_letter_oracle():
    rng = random.Random(12)
    for _ in range(2000):
        partition = rng.choice([P11, P22])
        u = reduce(random_pairs(rng, partition))
        v = reduce(random_pairs(rng, partition))
        assert flatten(multiply(u, v)) == naive_reduce(flatten(u) + flatten(v))


def test_invert_matches_letter_oracle():
    rng = random.Random(13)
    for _ in range(1000):
        w = reduce(random_pairs(rng, P22))
        expected = [(g, -s) for g, s in reversed(flatten(w))]
        assert flatten(invert(w)) == expected
        assert multiply(w, invert(w)).is_identity()


def test_group_laws():
    rng = random.Random(14)
    for _ in range(500):
        u = reduce(random_pairs(rng, P22))
        v = reduce(random_pairs(rng, P22))
        w = reduce(random_pairs(rng, P22))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        assert multiply(u, identity()) == u
        assert multiply(identity(), u) == u
        assert invert(invert(u)) == u
        assert invert(multiply(u, v)) == multiply(invert(v), invert(u))


def test_power_matches_repeated_multiplication():
    rng = random.Random(15)
    for _ in range(300):
        w = reduce(random_pairs(rng, P22, max_runs=4, max_exp=3))
        for e in range(-6, 7):
            expected = identity()
            base = w if e >= 0 else invert(w)
            for _ in range(abs(e)):
                expected = multiply(expected, base)
            assert power(w, e) == expected


def test_power_single_run_big_exponent():
    w = Word(((A, 2),))
    big = 10 ** 50
    result = power(w, big)
    assert result.runs == ((A, 2 * big),)
    assert power(w, -big).runs == ((A, -2 * big),)


def test_exponent_sum_and_length():
    w = parse_word("a^3 b^-2 a^-3 b", P11)
    assert exponent_sum(w, A) == 0
    assert exponent_sum(w, B) == -1
    assert word_length(w) == 9
    assert word_length(identity()) == 0


def test_syllables_alternate_factors():
    rng = random.Random(16)
    for _ in range(500):
        w = reduce(random_pairs(rng, P22))
        syl = syllables(w, P22)
        # factors strictly alternate and concatenate back to w
        factors = [f for f, _ in syl]
        assert all(factors[i] != factors[i + 1] for i in range(len(factors) - 1))
        glued = identity()
        for factor, part in syl:
            assert not part.is_identity()
            assert all(g.factor == factor for g, _ in part.runs)
            glued = multiply(glued, part)
        assert glued == w


def test_syllables_examples():
    w = parse_word("a^2 c b a", P22)  # K={a,b}, L={c,d}
    syl = syllables(w, P22)
    assert [f for f, _ in syl] == [K, L, K]
    assert syllables(identity(), P22) == []


@pytest.mark.parametrize("text,expected", [
    ("1", ""),
    ("", ""),
    ("   ", ""),
    ("a", "a"),
    ("a^1", "a"),
    ("a^120 b^16", "a^120 b^16"),
    ("a a", "a^2"),
    ("a a^-1 b", "b"),
    ("b^-3", "b^-3"),
    ("a^0 b", "b"),
])
def test_parse_and_format(text, expected):
    w = parse_word(text, P11)
    assert format_word(w, P11) == (expected or "1")


def test_parse_format_round_trip():
    rng = random.Random(17)
    for _ in range(1000):
        partition = rng.choice([P11, P22])
        w = reduce(random_pairs(rng, partition))
        assert parse_word(format_word(w, partition), partition) == w


def test_parse_rejects_garbage():
    # exponents are ASCII digits only: \d would read "a^\u0663" as a^3
    for bad in ["a^", "x", "a^2^3", "A", "a^b", "2a", "a ^2", "e",
                "a^\u0663", "a^\u00b2", "a^--5"]:
        with pytest.raises(WordSyntaxError):
            parse_word(bad, P11)


# --- the per-token parse loop, kept as the oracle of the regex scan ---------------

_LOOP_TOKEN = re.compile(r"([a-z])(?:\^(-?[0-9]+))?")


def token_loop_parse(text, partition):
    """Skip whitespace a character at a time, match one token at a time and
    build each letter's generator from its position in the alphabet.  The
    exponents are converted once every token has matched, so a bad token
    wins over an exponent past int()'s digit limit, wherever each stands."""
    s = text.strip()
    if s in ("", "1"):
        return identity()
    pairs = []
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        m = _LOOP_TOKEN.match(s, pos)
        if not m:
            raise WordSyntaxError(f"cannot parse word at position {pos}: {s[pos:pos + 12]!r}")
        ch = m.group(1)
        i = ord(ch) - ord("a")
        if i >= partition.rank:
            raise WordSyntaxError(f"unknown generator letter {ch!r} for partition {partition}")
        gen = Generator(K, i) if i < partition.k_size else Generator(L, i - partition.k_size)
        pairs.append((gen, m.group(2)))
        pos = m.end()
    return reduce([(gen, 1 if e is None else int(e)) for gen, e in pairs])


SPACES = " \t\x1c\xa0\u3000"
CHARACTERS = "abcdefghijklmnopqrstuvwxyz^-0123456789" + SPACES


def random_word_text(rng, partition):
    """Tokens of the syntax, juxtaposed or spaced, with stray characters."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:partition.rank + 1]
    pieces = []
    for _ in range(rng.randrange(8)):
        roll = rng.random()
        if roll < 0.15:
            pieces.append(rng.choice(CHARACTERS))
        elif roll < 0.3:
            pieces.append(rng.choice(SPACES) * rng.randrange(1, 3))
        else:
            token = rng.choice(letters)
            if rng.random() < 0.5:
                token += "^" + rng.choice(["", "-"]) + str(rng.randrange(-3, 300))
            pieces.append(token)
    sep = rng.choice(["", " ", rng.choice(SPACES)])
    return sep.join(pieces)


def parse_outcome(parse, text, partition):
    try:
        return parse(text, partition)
    except Exception as exc:
        return type(exc), str(exc)


def test_parse_matches_the_token_loop():
    rng = random.Random(2024)
    outcomes = {"word": 0, "error": 0}
    texts = ["a^" + "9" * 5000, "a^" + "9" * 5000 + " @", "a^" + "9" * 5000 + " z", "ab", "a^2b", "a^2b^-3a", " 1 ", "\u30001\x1c",
             "a^0", "a a^0 a^-1", "a^-0", "a^007",
             "a b b^-1 a^-1", "a^2 b^3 b^-3 a^-1 c", "a b^-1 b a^-1 a", "d c^-1 c d^-1",
             # tokens of the token map only, then with the tokens it reads
             # where they occur, then juxtaposed or split by rarer spaces
             "a", "a^-1", "b^-1 a", "a a^-1 b", "z^-1 y", "a b^-1 c d^-1 z",
             "a^5 b^-1 a^0 c^007 a^-1", "b a^-12 a^12 b^-1", "z^3 z^-1 z^-2", "a^-007 a^7",
             "a^-1b", "ab^-1", "a^0b", "a^007b^-1", "a\x1cb^-1\x1ca^3", "a^-1\u3000a^0\u3000b",
             "\u3000a^-1\x1c", "a^-1\x1cab"]
    partitions = [P11, P22, FactorPartition(13, 13), FactorPartition(14, 13)]
    cases = [(t, p) for t in texts for p in partitions]
    cases += [(random_word_text(rng, p), p)
              for p in (rng.choice(partitions) for _ in range(2000))]
    for text, partition in cases:
        got = parse_outcome(parse_word, text, partition)
        assert got == parse_outcome(token_loop_parse, text, partition), text
        if isinstance(got, Word):
            outcomes["word"] += 1
            if partition.rank <= 26:  # format_word names at most 26 letters
                assert parse_word(format_word(got, partition), partition) == got
        else:
            outcomes["error"] += 1
    assert min(outcomes.values()) > 400, outcomes


def test_token_table_matches_the_whole_text_path():
    # every letter and exponent in -70..70 alone: the token path (stored
    # tokens for |e| <= 8, the regex for the others) agrees with the
    # token scan, which a juxtaposed "^0" run forces, and with the token
    # loop; format_word writes the word back
    for partition in (P11, P22, FactorPartition(13, 13)):
        for x in "abcdefghijklmnopqrstuvwxyz"[:partition.rank]:
            tokens = [f"{x}^{e}" for e in range(-70, 71)] + [x, f"{x}^-0", f"{x}^02", f"{x}^-08"]
            for token in tokens:
                w = parse_word(token, partition)
                assert w == parse_word(f"{token}{x}^0", partition), token
                assert w == token_loop_parse(token, partition), token
                assert parse_word(format_word(w, partition), partition) == w, token
            assert parse_word(f"{x}^0", partition) == identity()
            assert parse_word(f"{x}^-08", partition) == parse_word(f"{x}^-8", partition)
            # a sign other than "-" is refused, as by the token loop
            got = parse_outcome(parse_word, f"{x}^+2", partition)
            assert got == (WordSyntaxError, "cannot parse word at position 1: '^+2'")
            assert got == parse_outcome(token_loop_parse, f"{x}^+2", partition)
            # the token map refuses every token but a letter with an ASCII
            # exponent, leaving the text to the token scan; a juxtaposed
            # pair of letters is a word there, the others are refused
            tokens = _generator_table(partition.k_size, partition.l_size).tokens
            for token in (f"{x}^+2", f"{x}^\u0663", f"{x}^1_0", f"{x}^", f"{x}^-",
                          f"{x}^2^3", f"^{x}", f"{x}^ 2", f"{x}{x}^2"):
                with pytest.raises(KeyError):
                    tokens[token]
                got = parse_outcome(parse_word, token, partition)
                assert got == parse_outcome(token_loop_parse, token, partition), token
                assert isinstance(got, Word) == (token == f"{x}{x}^2"), token
        with pytest.raises(KeyError):
            _generator_table(1, 1).tokens["xy^2"]  # no such letter
        assert parse_word("ab^2", P11) == parse_word("a b^2", P11)


def letter_oracle_format(w, partition):
    """format_word as one ``partition.letter`` call per run."""
    parts = []
    for g, e in w.runs:
        letter = partition.letter(g)
        parts.append(letter if e == 1 else f"{letter}^{e}")
    return " ".join(parts) or "1"


def test_format_word_matches_the_letter_oracle():
    rng = random.Random(2025)
    for _ in range(2000):
        partition = rng.choice([P11, P22, FactorPartition(13, 13)])
        w = reduce(random_pairs(rng, partition, max_runs=12, max_exp=300))
        assert format_word(w, partition) == letter_oracle_format(w, partition)


def test_format_word_errors():
    outside = Word(((A, 1), (Generator(K, 5), -2)))
    with pytest.raises(ValueError) as raised:
        format_word(outside, P22)
    assert type(raised.value) is ValueError
    assert str(raised.value) == ("generator K5 out of range for partition "
                                 "FactorPartition(k_size=2, l_size=2)")
    with pytest.raises(ValueError) as raised:
        format_word(Word(((A, 1),)), FactorPartition(14, 13))
    assert type(raised.value) is ValueError
    assert str(raised.value) == "letter syntax supports at most 26 generators"


def test_letters_assigned_k_then_l():
    # k generators get the first letters, l generators the next ones
    letters = [P22.letter(g) for g in P22.generators()]
    assert letters == ["a", "b", "c", "d"]
    assert P22.generator_for_letter("c") == Generator(L, 0)
    assert P11.letter(B) == "b"


def test_partition_validation():
    with pytest.raises(ValueError):
        FactorPartition(0, 1)
    with pytest.raises(ValueError):
        FactorPartition(1, 0)
    with pytest.raises(ValueError):
        P11.check(Generator(K, 5))


def test_word_operators():
    u = parse_word("a b", P11)
    v = parse_word("b^-1", P11)
    assert u * v == parse_word("a", P11)
    assert ~u == parse_word("b^-1 a^-1", P11)
    assert u ** 2 == parse_word("a b a b", P11)
    assert u ** 0 == identity()
