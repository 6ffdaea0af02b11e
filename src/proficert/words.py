"""Reduced words over a free product of two free factors.

A word is stored as a tuple of maximal runs ``(generator, exponent)`` with
arbitrary-precision integer exponents, so ``a^(20!)`` is a single run.  The
free basis is split into two blocks K and L by a :class:`FactorPartition`;
the split is what the syllable decomposition and the two-factor
constructions are built on.

Generators, partitions and words are immutable NamedTuples, as are the
certificate records of the other modules: a record hashes and orders as the
tuple of its fields and compares equal to a plain tuple of the same fields
(nothing in the package compares a record with a bare tuple).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .errors import WordSyntaxError

K = "K"
L = "L"
_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"


class Generator(NamedTuple("Generator", [("factor", str), ("index", int)])):
    """One free generator, named by its factor ("K" or "L") and index.

    The (factor, index) order is total and is used everywhere a
    deterministic generator sweep is needed.
    """

    __slots__ = ()

    def __new__(cls, factor: str, index: int):
        if factor not in (K, L):
            raise ValueError(f"factor must be 'K' or 'L', got {factor!r}")
        if not isinstance(index, int) or index < 0:
            raise ValueError(f"generator index must be a nonnegative int, got {index!r}")
        return super().__new__(cls, factor, index)

    def __repr__(self):
        return f"{self.factor}{self.index}"


class FactorPartition(NamedTuple("FactorPartition", [("k_size", int), ("l_size", int)])):
    """Declares how many generators belong to the K block and the L block."""

    __slots__ = ()

    def __new__(cls, k_size: int, l_size: int):
        if k_size < 1 or l_size < 1:
            raise ValueError("each factor needs at least one generator")
        return super().__new__(cls, k_size, l_size)

    @property
    def rank(self) -> int:
        return self.k_size + self.l_size

    def generators(self) -> list[Generator]:
        """All generators, K block ascending then L block ascending."""
        return list(_generator_table(self.k_size, self.l_size).generators)

    def k_generators(self) -> list[Generator]:
        return list(_generator_table(self.k_size, self.l_size).generators[:self.k_size])

    def l_generators(self) -> list[Generator]:
        return list(_generator_table(self.k_size, self.l_size).generators[self.k_size:])

    def check(self, gen: Generator) -> Generator:
        size = self.k_size if gen.factor == K else self.l_size
        if gen.index >= size:
            raise ValueError(f"generator {gen!r} out of range for partition {self}")
        return gen

    def flat_index(self, gen: Generator) -> int:
        """Position of ``gen`` in the K-then-L generator list."""
        self.check(gen)
        return gen.index if gen.factor == K else self.k_size + gen.index

    def letter(self, gen: Generator) -> str:
        """Single-letter name: 'a', 'b', ... assigned K block first, then L."""
        if self.rank > 26:
            raise ValueError("letter syntax supports at most 26 generators")
        return chr(ord("a") + self.flat_index(gen))

    def generator_for_letter(self, ch: str) -> Generator:
        gen = _generator_table(self.k_size, self.l_size).by_letter.get(ch)
        if gen is None:
            raise WordSyntaxError(f"unknown generator letter {ch!r} for partition {self}")
        return gen


class _GeneratorTable(NamedTuple):
    generators: tuple      # K block ascending, then L block ascending
    by_letter: dict        # 'a', 'b', ... -> the first 26 generators
    position: dict         # generator -> its index in generators
    letter_of: dict        # generator -> its letter; empty past 26 generators
    tokens: dict           # 'a' -> (a, 1), 'a^e' -> (a, e) for |e| <= 8; reads 'a^N' unstored


class _Tokens(dict):
    def __missing__(self, token):
        # a letter with an exponent (ASCII digits, maybe a "-") not stored, else a KeyError
        letter, caret, exp = token.partition("^")
        digits = exp[1:] if exp[:1] == "-" else exp
        if not (caret and digits.isascii() and digits.isdigit()):
            raise KeyError(token)
        return self[letter][0], int(exp)


@lru_cache(maxsize=64)
def _generator_table(k_size: int, l_size: int) -> _GeneratorTable:
    """The generators of a partition with these block sizes, built once and
    shared by every partition of those sizes."""
    gens = tuple([Generator(K, i) for i in range(k_size)]
                 + [Generator(L, i) for i in range(l_size)])
    letter_of = dict(zip(gens, _LOWERCASE)) if len(gens) <= 26 else {}
    by_letter = dict(zip(_LOWERCASE, gens))
    tokens = _Tokens({f"{ch}^{e}": (g, e) for ch, g in by_letter.items() for e in range(-8, 9)})
    tokens.update({ch: (g, 1) for ch, g in by_letter.items()})
    return _GeneratorTable(gens, by_letter, {g: i for i, g in enumerate(gens)},
                           letter_of, tokens)


class Word(NamedTuple):
    """A reduced word: runs on distinct adjacent generators, exponents nonzero.

    Instances are built through :func:`reduce` (or the operations below),
    which establish the run-form invariant; the raw constructor does not
    re-check it.
    """

    runs: tuple

    def is_identity(self) -> bool:
        return not self.runs

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, e: int) -> "Word":
        return power(self, e)

    def __repr__(self):
        if not self.runs:
            return "Word(1)"
        body = " ".join(f"{g!r}^{e}" if e != 1 else f"{g!r}" for g, e in self.runs)
        return f"Word({body})"


IDENTITY = Word(())


def identity() -> Word:
    return IDENTITY


def reduce(pairs) -> Word:
    """Reduce a sequence of (generator, exponent) pairs to run normal form.

    Adjacent runs on the same generator merge; runs whose exponents cancel
    to zero disappear, which may cascade further merges.
    """
    return Word(tuple(_cancel(pairs)))


def _cancel(pairs) -> list:
    """The runs of :func:`reduce` for pairs on any symbols that compare
    equal exactly when their generators are equal."""
    stack = []
    for g, e in pairs:
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            merged = stack[-1][1] + e
            stack.pop()
            if merged != 0:
                stack.append((g, merged))
        else:
            stack.append((g, e))
    return stack


def multiply(u: Word, v: Word) -> Word:
    return reduce(u.runs + v.runs)


def invert(w: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(w.runs)))


def power(w: Word, e: int) -> Word:
    """w**e.  Single-run words scale their exponent in constant size."""
    if e == 0 or w.is_identity():
        return IDENTITY
    if len(w.runs) == 1:
        g, x = w.runs[0]
        return Word(((g, x * e),))
    if e < 0:
        return power(invert(w), -e)
    result = IDENTITY
    base = w
    while e:
        if e & 1:
            result = multiply(result, base)
        e >>= 1
        if e:
            base = multiply(base, base)
    return result


def exponent_sum(w: Word, gen: Generator) -> int:
    """Signed sum of the exponents of ``gen`` across the word."""
    return sum(e for g, e in w.runs if g == gen)


def word_length(w: Word) -> int:
    """Letter length: the sum of absolute exponents."""
    return sum(abs(e) for _, e in w.runs)


def syllables(w: Word, partition: FactorPartition | None = None) -> list:
    """Split into maximal alternating segments over the K and L factors.

    Returns ``[(factor, word), ...]``; concatenating the segments in order
    gives back ``w`` with no cancellation at the seams.
    """
    if partition is not None:
        for g, _ in w.runs:
            partition.check(g)
    out = []
    for run in w.runs:
        fac = run[0].factor
        if out and out[-1][0] == fac:
            out[-1] = (fac, out[-1][1] + (run,))
        else:
            out.append((fac, (run,)))
    return [(fac, Word(runs)) for fac, runs in out]


# A letter with an optional exponent; a token is that or any other character
# that is not whitespace, and the scan skips whitespace between matches.
# Exponents are ASCII digits only: \d would read "a^\u0663" as a^3.
_TOKEN = re.compile(r"([a-z])(?:\^(-?[0-9]+))?|(\S)")


def parse_word(text: str, partition: FactorPartition) -> Word:
    """Parse the `a^120 b^16` syntax (juxtaposition = concatenation).

    Letters are assigned to the K block then the L block in order, `^` takes
    a decimal exponent of any size, and "1" (or an empty string) is the
    identity.  The result is reduced.  Whitespace-separated tokens are read
    from the generator table's token map; a text with any other token
    (juxtaposed letters, a letter outside the partition, a stray character)
    is scanned token by token, which names its first bad token.  Exponents
    are converted only once the scan has found none.
    """
    s = text.strip()
    if s in ("", "1"):
        return IDENTITY
    table = _generator_table(partition.k_size, partition.l_size)
    try:
        return Word(tuple(_cancel(map(table.tokens.__getitem__, s.split()))))
    except (KeyError, ValueError):
        # a token outside the map, or an exponent past int()'s digit limit,
        # which the scan reports unless it finds a bad token first
        pass
    runs = []
    for m in _TOKEN.finditer(s):
        ch, exp, other = m.groups()
        if other is not None:
            pos = m.start()
            raise WordSyntaxError(f"cannot parse word at position {pos}: {s[pos:pos + 12]!r}")
        runs.append((partition.generator_for_letter(ch), exp))
    return reduce([(g, int(exp) if exp else 1) for g, exp in runs])


def format_word(w: Word, partition: FactorPartition) -> str:
    """Emit the parse syntax losslessly; identity renders as "1"."""
    if w.is_identity():
        return "1"
    letter_of = _generator_table(partition.k_size, partition.l_size).letter_of
    try:
        return " ".join([letter_of[g] if e == 1 else f"{letter_of[g]}^{e}" for g, e in w.runs])
    except KeyError as exc:
        partition.letter(exc.args[0])  # raises: outside the partition, or past 26 letters
        raise
