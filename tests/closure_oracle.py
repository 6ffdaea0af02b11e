"""Brute-force subgroup oracles shared by the test modules.

Words are handled as letter tuples: generator i of the partition reads as
i + 1 and its inverse as -(i + 1).  Building and hashing a closure of
tuples costs far less than a closure of :class:`Word` objects.  Runs are
tuples of ints too, which the garbage collector stops tracking; runs that
held generators would stay tracked, and collecting a closure of them
costs more than building it.
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


def letter_runs(letters):
    """The runs of a freely reduced letter tuple, as (letter, count) pairs:
    its groups of equal letters are already its maximal runs."""
    return tuple((c, len(list(run))) for c, run in groupby(letters))


def runs_word(runs, partition):
    """The word of (letter, count) runs."""
    gens = partition.generators()
    return Word(tuple([(gens[c - 1], n) if c > 0 else (gens[-c - 1], -n) for c, n in runs]))


def product_closure(gens, partition, rounds, keep_len=None):
    """All reduced products of at most ``rounds`` generator^(+-1) factors:
    a dict from each one's letter tuple (:func:`letters_of`) to its runs
    (:func:`letter_runs`), which :func:`runs_word` makes a Word.  Each
    product is a shorter one times a factor, freely cancelled at the seam,
    and its runs are the shorter product's and the factor's, joined there.

    With ``keep_len`` set, intermediate products longer than a fixed
    corridor above it are pruned.  Pruning can only shrink the closure, so
    a pruned closure is still sound for "this word is a member" evidence;
    it is used for the negative-side proxy where missing elements weaken
    coverage but cannot produce false failures.
    """
    factors = [letters_of(g, partition) for g in gens]
    factors += [tuple(-c for c in reversed(f)) for f in factors]
    factors = [(f, letter_runs(f)) for f in factors]
    max_factor = max((len(f) for f, _ in factors), default=0)
    budget = None if keep_len is None else keep_len + 2 * max_factor
    seen = {(): ()}
    frontier = [()]
    for _ in range(rounds):
        nxt = []
        for x in frontier:
            x_runs = seen[x]
            for f, f_runs in factors:
                k = 0
                while k < len(x) and k < len(f) and x[-1 - k] == -f[k]:
                    k += 1
                y = x[:len(x) - k] + f[k:]
                if y not in seen and (budget is None or len(y) <= budget):
                    seen[y] = _join_runs(x_runs, f_runs, k)
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return seen


def _join_runs(left, right, k):
    """The runs of a product whose last ``k`` letters on the left cancel
    the first ``k`` on the right.  No more cancels, so runs meeting at the
    seam on one letter merge."""
    while k:
        (c, n), (_, p) = left[-1], right[0]
        m = min(n, p, k)
        k -= m
        left = left[:-1] + (((c, n - m),) if n > m else ())
        right = (((-c, p - m),) if p > m else ()) + right[1:]
    if left and right and left[-1][0] == right[0][0]:
        return left[:-1] + ((right[0][0], left[-1][1] + right[0][1]),) + right[1:]
    return left + right
