"""Acceptance suite: one test per shipped claim, at desk scale.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose listing gives
one pass/fail line per criterion.  Limits (case counts, time budgets) are
pinned in the test bodies.
"""

import copy
import math
import random
import time
from fractions import Fraction

import pytest

from proficert.errors import CapExceededError, SchemaError
from proficert.example1 import (
    convergence_witness,
    m_sequence,
    not_closed_witness,
    s_element,
    separate_from_S,
    verify_ex1,
    verify_ex1_witness,
)
from proficert.example2 import (
    construct_ex2,
    ex2_from_obj,
    ex2_to_obj,
    verify_ex2,
)
from proficert.quotients import (
    Permutation,
    make_abelian_quotient,
    make_permutation_quotient,
)
from proficert.separation import (
    _completed,
    build_stallings,
    fold,
    membership,
    separate_from_subgroup,
    verify_separation,
)
from proficert.words import (
    K,
    L,
    FactorPartition,
    Generator,
    Word,
    identity,
    invert,
    multiply,
    reduce,
)

from closure_oracle import letters_of, product_closure, runs_word
from fixtures import adjoin_word_path, in_kernel

P11 = FactorPartition(1, 1)
P22 = FactorPartition(2, 2)
GEN_B = Generator(L, 0)


# --- shared helpers -----------------------------------------------------------------


def flatten(runs_or_word):
    runs = runs_or_word.runs if isinstance(runs_or_word, Word) else runs_or_word
    letters = []
    for g, e in runs:
        sign = 1 if e > 0 else -1
        letters.extend([(g, sign)] * abs(e))
    return letters


def naive_reduce(letters):
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return stack


def from_letters(letters):
    return reduce(tuple(letters))


def random_runs(rng, partition, max_runs=8, max_exp=5):
    gens = partition.generators()
    return tuple((rng.choice(gens), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
                 for _ in range(rng.randrange(max_runs + 1)))


def random_reduced_word(rng, partition, letters):
    gens = partition.generators()
    out = []
    for _ in range(letters):
        while True:
            g, s = rng.choice(gens), rng.choice((1, -1))
            if not out or out[-1] != (g, -s):
                out.append((g, s))
                break
    return from_letters(out)


def random_subgroup(rng, partition, max_gens=3, max_len=4):
    return [random_reduced_word(rng, partition, rng.randrange(1, max_len + 1))
            for _ in range(rng.randrange(max_gens + 1))]


def quotient_family(count, seed, partition=P11, max_abelian=100, max_degree=7):
    """Random finite quotients of order at most 10^4."""
    rng = random.Random(seed)
    family = []
    while len(family) < count:
        if rng.random() < 0.5:
            q = make_abelian_quotient(partition, rng.randrange(2, max_abelian + 1))
        else:
            degree = rng.randrange(2, max_degree + 1)
            images = {}
            for g in partition.generators():
                values = list(range(degree))
                rng.shuffle(values)
                images[g] = Permutation(tuple(values))
            q = make_permutation_quotient(partition, images)
        if q.order() <= 10 ** 4:
            family.append(q)
    return family


@pytest.fixture(scope="module")
def family_of_50():
    return quotient_family(50, seed=2024)


@pytest.fixture(scope="module")
def chain_cert():
    return construct_ex2()


# --- criteria -----------------------------------------------------------------------


def test_criterion_word_algebra_matches_naive_oracle():
    """10^4 random reduce/multiply/invert cases against a letter-level oracle, < 10 s."""
    rng = random.Random(1)
    started = time.perf_counter()
    for case in range(10 ** 4):
        partition = rng.choice([P11, P22])
        op = case % 3
        u = random_runs(rng, partition)
        if op == 0:
            assert reduce(u) == from_letters(naive_reduce(flatten(u)))
        elif op == 1:
            left, right = reduce(u), reduce(random_runs(rng, partition))
            assert multiply(left, right) == from_letters(
                naive_reduce(flatten(left) + flatten(right)))
        else:
            w = reduce(u)
            assert invert(w) == from_letters(
                naive_reduce([(g, -s) for g, s in reversed(flatten(w))]))
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"word oracle sweep took {elapsed:.1f}s"


def test_criterion_quotient_laws_and_fast_powering():
    """10^3 random image cases (exponents <= 10^3) match naive letter application;
    the image of a^(20!) takes < 1 ms per quotient of order <= 10^4."""
    rng = random.Random(2)
    family = quotient_family(20, seed=77, partition=P11)

    def naive_image(q, word):
        acc = Permutation.identity(q.degree)
        for g, e in word.runs:
            step = q.generator_image(g)
            if e < 0:
                step = step.inverse()
            for _ in range(abs(e)):
                acc = acc * step
        return acc

    for _ in range(10 ** 3):
        q = rng.choice(family)
        w = reduce(random_runs(rng, P11, max_runs=5, max_exp=10 ** 3))
        assert q.image(w) == naive_image(q, w)

    big = Word(((Generator(K, 0), math.factorial(20)),))
    for q in family:
        q.image(big)  # warm up any cached order computation
        timings = []
        for _ in range(3):
            t0 = time.perf_counter()
            q.image(big)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 1e-3, f"fast powering took {min(timings) * 1e3:.3f} ms"


def test_criterion_stallings_membership_equals_brute_force():
    """200 random subgroups (<= 3 generators of length <= 4): membership agrees
    exactly with enumeration of products of up to 6 generator factors."""
    rng = random.Random(3)
    for _ in range(200):
        gens = random_subgroup(rng, P11)
        graph = build_stallings(P11, gens)
        closure = product_closure(gens, P11, 6)
        for runs in closure.values():
            assert membership(graph, runs_word(runs, P11))
        for _ in range(10):
            w = random_reduced_word(rng, P11, rng.randrange(1, 5))
            if not membership(graph, w):
                assert letters_of(w, P11) not in closure


def test_criterion_hall_separation_certificates():
    """100 random (H, w) with w outside H: certificates verify, and the completed
    action's degree never exceeds the folded graph's vertex count."""
    rng = random.Random(4)
    done = 0
    while done < 100:
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        graph = build_stallings(partition, gens)
        w = random_reduced_word(rng, partition, rng.randrange(1, 5))
        if membership(graph, w):
            continue
        cert = separate_from_subgroup(partition, gens, w)
        result = verify_separation(cert)
        assert result.ok, result.reasons
        folded = fold(adjoin_word_path(graph, w))
        assert _completed(cert.quotient).degree <= folded.num_vertices
        done += 1


def test_criterion_family_convergence(family_of_50):
    """50 quotients of order <= 10^4: a^(k0!) is in the kernel at the witness
    index k0, the order of image(a), which divides k! for every k >= k0."""
    assert len(family_of_50) == 50
    for q in family_of_50:
        assert q.order() <= 10 ** 4
        k0 = convergence_witness(q)
        assert k0 >= 1 and in_kernel(q, Word(((Generator(K, 0), math.factorial(k0)),)))


def test_criterion_family_closedness_at_desk_scale():
    """Every reduced word of length <= 4 outside the family gets a tail
    certificate that verifies; total runtime < 2 min."""
    started = time.perf_counter()
    words = [identity()]
    frontier = [[]]
    gens = P11.generators()
    for _ in range(4):
        nxt = []
        for prefix in frontier:
            for g in gens:
                for s in (1, -1):
                    if prefix and prefix[-1] == (g, -s):
                        continue
                    nxt.append(prefix + [(g, s)])
        frontier = nxt
        words.extend(from_letters(p) for p in frontier)
    assert len(words) == 161  # 1 + 4 + 12 + 36 + 108

    separated = 0
    for w in words:
        try:
            cert = separate_from_S(w)
        except ValueError:
            assert w in (s_element(1), s_element(2))  # the two short family members
            continue
        result = verify_ex1(cert)
        assert result.ok, (w, result.reasons)
        separated += 1
    assert separated == 159
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"closedness sweep took {elapsed:.1f}s"


def test_criterion_family_not_closed(family_of_50):
    """Every quotient in the family yields a kernel element s_k b^(-m_k)."""
    for q in family_of_50:
        witness = not_closed_witness(q)
        m_k = m_sequence(witness.k)
        cofactor = Word(((GEN_B, -m_k),)) if m_k else identity()
        assert in_kernel(q, multiply(s_element(witness.k), cofactor))
        assert verify_ex1_witness(witness)


def test_criterion_chain_end_to_end():
    """Defaults (k = l = 2, four steps, f(n) = n + 1, seed 0) build within caps
    in < 5 min; every verifier clause passes; step-1 K-index exceeds 4."""
    started = time.perf_counter()
    cert = construct_ex2()
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"construction took {elapsed:.1f}s"

    report = verify_ex2(cert)
    assert report.ok, [c for c in report.clauses if not c.ok]
    names = {c.clause for c in report.clauses}
    assert {"condition1", "condition2", "condition3", "condition4"} <= names
    assert cert.steps[0].k_index > 4
    assert cert.reciprocal_sum < Fraction(1, 2)


def test_criterion_chain_witnesses_and_mutation_sweep(chain_cert):
    """The facts verify_ex2's clauses imply hold for every step — no later
    s_m shares the Q_n-coset of s_n, and s_n r_n^-1 is in ker Q_n — and each
    of 20 single-field corruptions of the serialized certificate is caught
    (100% detection)."""
    for n in range(1, 5):
        step = chain_cert.steps[n - 1]
        q = step.quotient
        members = {m for m, other in enumerate(chain_cert.steps, 1)
                   if q.coset_equal(other.s, step.s)}
        assert n in members and members <= set(range(1, n + 1))
        assert in_kernel(q, multiply(step.s, invert(step.r)))

    base = ex2_to_obj(chain_cert)

    def set_path(obj, mutate):
        clone = copy.deepcopy(obj)
        mutate(clone)
        return clone

    mutations = [
        ("type", lambda o: o.update(type="ex1_tail")),
        ("params.f_values-short", lambda o: o["params"].update(f_values=[2, 3, 4])),
        ("params.f_values", lambda o: o["params"].update(f_values=[2, 3, 4, 4])),
        ("params.partition", lambda o: o["params"]["partition"].update(k_size=3)),
        ("params.enumeration_cap", lambda o: o["params"].update(enumeration_cap=1)),
        ("params.source.seed", lambda o: o["params"]["source"].update(seed=True)),
        ("params.source.kind", lambda o: o["params"]["source"].update(kind=5)),
        ("reciprocal_sum", lambda o: o.update(reciprocal_sum="1/3")),
        ("reciprocal_sum-syntax", lambda o: o.update(reciprocal_sum="nonsense")),
        ("steps[0].r", lambda o: o["steps"][0].update(r="a")),
        ("steps[0].r-factor", lambda o: o["steps"][0].update(r="c")),
        ("steps[1].s", lambda o: o["steps"][1].update(s=o["steps"][1]["r"])),
        ("steps[1].e", lambda o: o["steps"][1].update(e=o["steps"][1]["e"] + 1)),
        ("steps[2].k_index", lambda o: o["steps"][2].update(
            k_index=o["steps"][2]["k_index"] + 1)),
        ("steps[2].f_value", lambda o: o["steps"][2].update(f_value=9)),
        ("steps[3].e-zero", lambda o: o["steps"][3].update(e=0)),
        ("steps[0].quotient.degree", lambda o: o["steps"][0]["quotient"].update(
            degree=o["steps"][0]["quotient"]["degree"] + 1)),
        ("steps[0].quotient.kind", lambda o: o["steps"][0]["quotient"].update(
            kind="abelian")),
        ("steps[0].quotient.images.a", lambda o: o["steps"][0]["quotient"]["images"]
            .update(a=o["steps"][0]["quotient"]["images"]["a"][1::-1]
                    + o["steps"][0]["quotient"]["images"]["a"][2:])),
        ("steps[3].s-suffix", lambda o: o["steps"][3].update(
            s=o["steps"][3]["s"] + " d")),
    ]
    assert len(mutations) == 20

    def detected(obj):
        try:
            cert = ex2_from_obj(obj)
        except SchemaError:
            return True
        try:
            report = verify_ex2(cert)
        except (CapExceededError, RuntimeError, ValueError):
            return True
        return not report.ok

    missed = [name for name, mutate in mutations
              if not detected(set_path(base, mutate))]
    assert not missed, f"undetected corruptions: {missed}"
