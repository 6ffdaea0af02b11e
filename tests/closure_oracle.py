"""Brute-force subgroup oracles shared by the test modules.

Words are handled as letter tuples: generator i of the partition reads as
i + 1 and its inverse as -(i + 1).  Building and hashing a closure of
tuples costs far less than a closure of :class:`Word` objects.
"""

from itertools import groupby

from proficert.words import Word


def letters_of(w, partition):
    """A word as a tuple of letters: generator i of the partition reads as
    i + 1, its inverse as -(i + 1)."""
    letters = []
    for g, e in w.runs:
        c = partition.flat_index(g) + 1
        letters += [c if e > 0 else -c] * abs(e)
    return tuple(letters)


def word_of(letters, partition):
    """The word of a freely reduced letter tuple, whose groups of equal
    letters are already its maximal runs."""
    gens = partition.generators()
    return Word(tuple((gens[abs(c) - 1], len(list(run)) * (1 if c > 0 else -1))
                      for c, run in groupby(letters)))


def product_closure(gens, partition, rounds, keep_len=None):
    """All reduced products of at most ``rounds`` generator^(+-1) factors,
    as letter tuples (:func:`letters_of`): each product is a shorter one
    times a factor, freely cancelled at the seam.

    With ``keep_len`` set, intermediate products longer than a fixed
    corridor above it are pruned.  Pruning can only shrink the closure, so
    a pruned closure is still sound for "this word is a member" evidence;
    it is used for the negative-side proxy where missing elements weaken
    coverage but cannot produce false failures.
    """
    factors = [letters_of(g, partition) for g in gens]
    factors += [tuple(-c for c in reversed(f)) for f in factors]
    max_factor = max(map(len, factors), default=0)
    budget = None if keep_len is None else keep_len + 2 * max_factor
    seen = {()}
    frontier = [()]
    for _ in range(rounds):
        nxt = []
        for x in frontier:
            for f in factors:
                k = 0
                while k < len(x) and k < len(f) and x[-1 - k] == -f[k]:
                    k += 1
                y = x[:len(x) - k] + f[k:]
                if y not in seen and (budget is None or len(y) <= budget):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return seen
