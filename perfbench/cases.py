"""Seeded inputs and known answers for the three workloads.

A workload seed expands into a fixed list of operations.  Each operation
runs the program the way a user of the library would: build a
certificate, emit it as canonical JSON, load it back and verify it.  Each
one carries a known answer that is established without the program:

* positive cases hold by construction (a word with odd ``d``-exponent sum
  is outside a subgroup whose generators all have even ``d``-exponent sum);
* negative cases are certificates edited so that one named clause of the
  verifier must reject them, and member words the constructor must refuse.

Costs vary a lot between inputs of the same shape (a chain certificate
costs 0.5 s or 12 s depending on its source seed).  So that every workload
seed gets the same amount of work, seeded choices are made inside pools
and bands of inputs whose cost was measured alike; see NOTES.md.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from time import perf_counter

from proficert import cli, example1, example2, quotients, separation, words

P11 = example1.EX1_PARTITION
P22 = words.FactorPartition(2, 2)
LETTERS = "abcd"

LOADERS = {
    "ex2": (example2, "ex2_from_obj"),
    "ex1_tail": (example1, "ex1_tail_from_obj"),
    "ex1_not_closed": (example1, "ex1_witness_from_obj"),
    "separation": (separation, "separation_from_obj"),
}

# Steps-4 chain source seeds of like cost: construct composes 3.4-3.5 M
# points and verify 3.0-3.6 M (seeds 1-99 range from 2.3 M to 278 M, see
# NOTES.md).  Every round also builds source seed 0, which the spliced case
# is made from.
CHAIN_POOL = (2, 5, 6, 37, 56, 57)
CHAIN_PICKS = 3

# Targets b^t for the factorial family, one per head bound H (the least power
# of two above |t|).  For odd t every head certificate is the abelian
# quotient mod 2, so the composite degree is 2H + 4(H - 1) whatever t is;
# even t give up to twice that (NOTES.md).  Verify cost still depends on t,
# through the powers b^(m_j) that the composite quotient must tell apart:
# at H = 512 it ranges from 22 M to 38 M composed points.  The pools for
# H = 256 and H = 512 hold the targets whose verify composes exactly 7.3 M
# and 33.0 M points; at H = 128 the whole band costs little.
FACTORIAL_TARGETS = (
    tuple(t * sign for t in range(65, 128, 2) for sign in (1, -1)),
    (-193, 141, 147, 165, 197, 225),
    (-333, 267, 275, 281, 323, 329, 387, 393),
)
WITNESS_QUOTIENTS = 4

# Merge-heavy subgroups <a^n, a^(n-1)>: fold time grows with n^2, so each
# round takes one n from each of these narrow bands.
MERGE_BANDS = ((100, 105), (200, 205), (300, 305), (395, 400))
# Random subgroups: (generators, letters per generator).  The folded graphs
# of the first shape have about 130 vertices, those of the second about 400.
# Verify cost follows the orders of the completed permutations, which vary
# widely, so each round verifies many subgroups.
RANDOM_SHAPES = ((3, 40),) * 4 + ((4, 100),) * 20
MEMBER_WORDS = 4


# --- operations -----------------------------------------------------------

class Outcome:
    """What one operation did: times, verdict and output bytes."""

    __slots__ = ("construct_s", "verify_s", "text", "certs", "verdict_ok", "detail",
                 "known_defect")

    def __init__(self):
        self.construct_s = 0.0
        self.verify_s = 0.0
        self.text = ""
        self.certs = 0
        self.verdict_ok = False
        self.detail = ""
        self.known_defect = False   # the wrong verdict is the documented one


def _load(text):
    obj = json.loads(text)
    module, name = LOADERS[obj["type"]]
    return getattr(module, name)(obj)


def _failures(report) -> list:
    """Names of the failed clauses (chain) or the reasons (everything else)."""
    if isinstance(report, example2.Ex2Report):
        return [f"{c.clause}@{c.m}" for c in report.failures()]
    return list(report.reasons)


def _judge(out, report, reject):
    failures = _failures(report)
    if reject is None:
        out.verdict_ok = report.ok
        out.detail = "; ".join(failures)
    else:
        out.verdict_ok = not report.ok and any(reject in f for f in failures)
        out.detail = f"expected a rejection by {reject!r}, got {failures}"


class RoundTrip:
    """Build a certificate, emit it, load it back and verify it."""

    def __init__(self, label, build, verify):
        self.label = label
        self.build = build
        self.verify = verify

    def run(self, texts, tracer, clock, canonical=False) -> Outcome:
        out = Outcome()
        t0 = clock()
        cert = self.build(tracer)
        text = cli.emit_certificate(cert)
        t1 = clock()
        loaded = tracer.call("cli.load", _load, text)
        report = getattr(*self.verify)(loaded)
        t2 = clock()
        out.construct_s, out.verify_s = t1 - t0, t2 - t1
        out.text = text
        out.certs = 1
        texts[self.label] = text
        _judge(out, report, None)
        if canonical and cli.emit_certificate(loaded) != text:
            out.verdict_ok = False
            out.detail = "the loaded certificate emits different bytes"
        return out


class Tampered:
    """Verify an edited copy of a certificate built earlier in the round.

    The edit is input preparation and is not timed; loading and verifying
    the edited text is.  With ``accepted_by_defect`` the verifier is known
    to accept the edited certificate; only that acceptance counts as the
    documented wrong verdict, and a rejection by any clause other than
    ``reject`` is still unexpected.
    """

    def __init__(self, label, base, edit, verify, reject, accepted_by_defect=False):
        self.label = label
        self.base = base
        self.edit = edit
        self.verify = verify
        self.reject = reject
        self.accepted_by_defect = accepted_by_defect

    def run(self, texts, tracer, clock, canonical=False) -> Outcome:
        out = Outcome()
        obj = json.loads(texts[self.base])
        self.edit(obj)
        text = cli.canonical_json(obj)
        t0 = clock()
        report = getattr(*self.verify)(tracer.call("cli.load", _load, text))
        out.verify_s = clock() - t0
        out.text = text
        _judge(out, report, self.reject)
        out.known_defect = self.accepted_by_defect and report.ok
        return out


class Refused:
    """An input the constructor must refuse with ValueError (a member word)."""

    def __init__(self, label, build):
        self.label = label
        self.build = build

    def run(self, texts, tracer, clock, canonical=False) -> Outcome:
        out = Outcome()
        t0 = clock()
        try:
            self.build(tracer)
        except ValueError as exc:
            out.verdict_ok = True
            out.text = f"refused: {exc}"
        else:
            out.detail = "accepted a member word"
        out.construct_s = clock() - t0
        return out


class Convergence:
    """convergence_witness must return the order of image(a)."""

    def __init__(self, label, quotient, expected):
        self.label = label
        self.quotient = quotient
        self.expected = expected

    def run(self, texts, tracer, clock, canonical=False) -> Outcome:
        out = Outcome()
        t0 = clock()
        k0 = example1.convergence_witness(self.quotient)
        out.construct_s = clock() - t0
        out.text = f"k0={k0}"
        out.verdict_ok = k0 == self.expected
        out.detail = f"k0 = {k0}, expected {self.expected}"
        return out


# --- independent arithmetic for known answers -------------------------------

def _compose(p, q):
    """p first, then q, on tuples of images."""
    return tuple(q[x] for x in p)


def _perm_of_letters(images: dict, letters) -> tuple:
    """Image of a word of positive letters under JSON point lists."""
    acc = tuple(range(len(images["a"])))
    for letter, _ in letters:
        acc = _compose(acc, tuple(images[letter]))
    return acc


def _order(p) -> int:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        if n:
            lengths.append(n)
    return math.lcm(*lengths)


def _power(p, e):
    acc = tuple(range(len(p)))
    for _ in range(e):
        acc = _compose(acc, p)
    return acc


def _random_letters(rng, length, alphabet):
    """A reduced word as a list of (letter, +-1), no letter next to its inverse."""
    out = []
    while len(out) < length:
        letter = (rng.choice(alphabet), rng.choice((1, -1)))
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            continue
        out.append(letter)
    return out


def _text(letters) -> str:
    return " ".join(x if s > 0 else f"{x}^-1" for x, s in letters) or "1"


def _d_sum(letters) -> int:
    return sum(s for x, s in letters if x == "d")


def _with_d_sum(rng, length, parity):
    """Random reduced word over a-d whose d-exponent sum has the given parity.

    Exponent sums mod 2 are a homomorphism onto Z/2, so a word of odd
    d-sum lies outside every subgroup generated by words of even d-sum.
    """
    while True:
        letters = _random_letters(rng, length, LETTERS)
        if _d_sum(letters) % 2 == parity:
            return letters


# --- chain ----------------------------------------------------------------

def _chain_build(source_seed, steps):
    def build(tracer):
        source = tracer.source(example2.MixedQuotientSource(P22, source_seed))
        return example2.construct_ex2(P22, steps=steps, source=source)
    return build


def _set_field(step, key, delta):
    def edit(obj):
        obj["steps"][step][key] += delta
    return edit


def _bump_reciprocal_sum(delta):
    def edit(obj):
        obj["reciprocal_sum"] = str(Fraction(obj["reciprocal_sum"]) + delta)
    return edit


def splice(obj):
    """Swap the two L-generator images of Q_1 and repair the step-1 fields.

    Q_2 still carries the original Q_1 as its first block, so some word lies
    in ker Q_2 but not in ker Q_1: the edited chain does not descend, and
    "chain-containment" should reject it.  The K-index and the reciprocal
    sum only depend on the K-generator images, which are unchanged.  The
    counterexample (a c)^k, k the order of a c in Q_2, is checked here with
    this module's own permutation arithmetic.
    """
    step1 = obj["steps"][0]
    q1 = step1["quotient"]["images"]
    q1["c"], q1["d"] = q1["d"], q1["c"]
    e1 = _order(tuple(q1["c"]))
    step1["e"] = e1
    step1["s"] = f"{step1['r']} c" if e1 == 1 else f"{step1['r']} c^{e1}"

    ac = [("a", 1), ("c", 1)]
    q2 = obj["steps"][1]["quotient"]["images"]
    k = _order(_perm_of_letters(q2, ac))
    if _power(_perm_of_letters(q1, ac), k) == tuple(range(len(q1["a"]))):
        raise RuntimeError(f"(a c)^{k} is in ker Q_1 of the spliced certificate")


def chain_cases(rng):
    verify = (example2, "verify_ex2")
    seeds = [0] + rng.sample(CHAIN_POOL, CHAIN_PICKS)
    ops = [RoundTrip(f"chain s{s}", _chain_build(s, 4), verify) for s in seeds]
    labels = [op.label for op in ops[1:]]
    step = rng.randrange(4)
    ops.append(Tampered("wrong k_index", rng.choice(labels),
                        _set_field(step, "k_index", rng.randrange(1, 6)), verify,
                        reject=f"step-structure@{step + 1}"))
    step = rng.randrange(4)
    ops.append(Tampered("wrong e", rng.choice(labels),
                        _set_field(step, "e", rng.randrange(1, 6)), verify,
                        reject=f"step-structure@{step + 1}"))
    ops.append(Tampered("wrong reciprocal sum", rng.choice(labels),
                        _bump_reciprocal_sum(Fraction(1, rng.randrange(100, 10000))),
                        verify, reject="reciprocal-sum"))
    ops.append(Tampered("spliced s0", "chain s0", splice, verify,
                        reject="chain-containment", accepted_by_defect=True))
    return ops


# --- factorial ------------------------------------------------------------

def _reduced_words(max_length):
    """Every reduced word over a, b of length <= max_length, as letter lists."""
    out = [[]]
    frontier = [[]]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for x in "ab":
                for s in (1, -1):
                    if w and w[-1] == (x, -s):
                        continue
                    nxt.append(w + [(x, s)])
        out += nxt
        frontier = nxt
    return out


# s_j = a^(j!) b^(m_j) has length at least j!, so only s_1 and s_2 are this
# short; m_1 and m_2 are residues modulo lcm(1..j) <= 2 of a target that is
# 0 modulo 2, so s_1 = a and s_2 = a^2.
SHORT_MEMBERS = ("a", "a a")


def _separate_from_S(text):
    def build(tracer):
        return example1.separate_from_S(words.parse_word(text, P11))
    return build


def _drop_head(index):
    def edit(obj):
        del obj["head_certificates"][index % len(obj["head_certificates"])]
    return edit


def _witness_build(quotient):
    def build(tracer):
        return example1.not_closed_witness(quotient)
    return build


def factorial_cases(rng):
    verify = (example1, "verify_ex1")
    ops = []
    for letters in _reduced_words(4):
        text = _text(letters)
        if text in SHORT_MEMBERS:
            ops.append(Refused(f"S member {text}", _separate_from_S(text)))
        else:
            ops.append(RoundTrip(f"word {text}", _separate_from_S(text), verify))
    targets = [rng.choice(pool) for pool in FACTORIAL_TARGETS]
    for t in targets:
        ops.append(RoundTrip(f"b^{t}", _separate_from_S(f"b^{t}"), verify))
    ops.append(Tampered("dropped head", f"b^{targets[0]}",
                        _drop_head(rng.randrange(1 << 20)), verify,
                        reject="head certificates"))
    for i in range(WITNESS_QUOTIENTS):
        degree = rng.randrange(5, 13)
        images = {}
        for g in P11.generators():
            values = list(range(degree))
            rng.shuffle(values)
            images[g] = values
        q = quotients.make_permutation_quotient(P11, images)
        ops.append(RoundTrip(f"not-closed q{i}", _witness_build(q),
                             (example1, "verify_ex1_witness")))
        a = tuple(images[example1.GEN_A])
        ops.append(Convergence(f"convergence q{i}", q, _order(a)))
    return ops


# --- hall -----------------------------------------------------------------

def _separate(gens, word):
    def build(tracer):
        return separation.separate_from_subgroup(
            P22, [words.parse_word(g, P22) for g in gens], words.parse_word(word, P22))
    return build


def hall_cases(rng):
    verify = (separation, "verify_separation")
    ops = []
    for lo, hi in MERGE_BANDS:
        n = rng.randrange(lo, hi)
        word = _text(_with_d_sum(rng, 8, 1))
        ops.append(RoundTrip(f"merge n={n}", _separate([f"a^{n}", f"a^{n - 1}"], word), verify))
    subgroups = []
    for count, length in RANDOM_SHAPES:
        gens = [_with_d_sum(rng, length, 0) for _ in range(count)]
        subgroups.append(gens)
        word = _text(_with_d_sum(rng, 12, 1))
        ops.append(RoundTrip(f"random {count}x{length}",
                             _separate([_text(g) for g in gens], word), verify))
    for i in range(MEMBER_WORDS):
        gens = subgroups[i]
        member = []
        for _ in range(3):
            g = rng.choice(gens)
            member += g if rng.random() < 0.5 else [(x, -e) for x, e in reversed(g)]
        ops.append(Refused(f"member {i}", _separate([_text(g) for g in gens], _text(member))))
    return ops


def warm_up(tracer):
    """One small operation of each kind, so that lazy imports and caches
    are filled before anything is timed."""
    ops = [RoundTrip("chain", _chain_build(0, 1), (example2, "verify_ex2")),
           RoundTrip("factorial", _separate_from_S("b"), (example1, "verify_ex1")),
           RoundTrip("hall", _separate(["a^2", "b"], "a"), (separation, "verify_separation"))]
    for op in ops:
        op.run({}, tracer, perf_counter)


WORKLOADS = {"chain": chain_cases, "factorial": factorial_cases, "hall": hall_cases}


def make_cases(workload: str, seed: int):
    rng = random.Random(seed * len(WORKLOADS) + list(WORKLOADS).index(workload))
    return WORKLOADS[workload](rng)
