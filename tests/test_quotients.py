"""Finite quotients: homomorphism laws, naive oracles, BFS distances, caps."""

import hashlib
import json
import math
import random
import time
from collections import deque

import pytest

from proficert import quotients, separation
from proficert.cli import CERTIFICATES, emit_certificate
from proficert.errors import CapExceededError, SchemaError
from proficert.example1 import not_closed_witness, separate_from_S
from proficert.example2 import construct_ex2
from proficert.quotients import (
    DEFAULT_ENUMERATION_CAP,
    Permutation,
    direct_product,
    element_to_obj,
    generated_image_table,
    make_abelian_quotient,
    make_permutation_quotient,
    quotient_from_obj,
    quotient_to_obj,
    subgroup_order,
    table_word,
)
from proficert.separation import (
    PartialAction,
    SeparationCertificate,
    separate_from_identity,
    verify_separation,
)
from proficert.words import (
    K,
    L,
    FactorPartition,
    Generator,
    Word,
    format_word,
    identity,
    multiply,
    parse_word,
    reduce,
    word_length,
)

from fixtures import in_kernel, trivial_quotient

P11 = FactorPartition(1, 1)
P22 = FactorPartition(2, 2)
A = Generator(K, 0)
B11 = Generator(L, 0)


def random_word(rng, partition, max_runs=6, max_exp=4):
    gens = partition.generators()
    return reduce(tuple(
        (rng.choice(gens), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(rng.randrange(max_runs + 1))))


def random_perm(rng, degree):
    values = list(range(degree))
    rng.shuffle(values)
    return Permutation(tuple(values))


def random_quotient(rng, partition, max_degree=7):
    if rng.random() < 0.4:
        return make_abelian_quotient(partition, rng.randrange(2, 9))
    degree = rng.randrange(2, max_degree + 1)
    return make_permutation_quotient(
        partition, {g: random_perm(rng, degree) for g in partition.generators()})


# --- naive oracle: apply images letter by letter --------------------------------

def naive_image(q, w):
    out = Permutation.identity(q.degree)
    for g, e in w.runs:
        img = q.generator_image(g)
        step = img if e > 0 else img.inverse()
        for _ in range(abs(e)):
            out = out * step
    return out


def test_image_matches_naive_composition():
    rng = random.Random(21)
    for _ in range(1000):
        partition = rng.choice([P11, P22])
        q = random_quotient(rng, partition)
        w = random_word(rng, partition, max_exp=10)
        assert q.image(w) == naive_image(q, w)


def test_homomorphism_laws():
    rng = random.Random(22)
    for _ in range(400):
        partition = rng.choice([P11, P22])
        q = random_quotient(rng, partition)
        u, v = random_word(rng, partition), random_word(rng, partition)
        assert q.image(multiply(u, v)) == q.image(u) * q.image(v)
        assert q.image(identity()) == Permutation.identity(q.degree)
        assert in_kernel(q, multiply(u, ~u))


def test_fast_powering_huge_exponent():
    # single runs with factorial-sized exponents stay exact
    q = make_permutation_quotient(P11, {A: Permutation((1, 2, 3, 4, 5, 6, 0)),
                                        B11: Permutation((1, 0, 2, 3, 4, 5, 6))})
    e = math.factorial(20)
    w = Word(((A, e),))
    assert q.image(w) == Permutation.identity(q.degree) if e % 7 == 0 else True
    # 20! mod 7: compare against pow on the cycle directly
    assert q.image(w) == q.generator_image(A) ** (e % 7)
    assert q.image(Word(((A, e + 3),))) == q.generator_image(A) ** ((e + 3) % 7)


def test_element_order():
    q = make_permutation_quotient(P11, {A: Permutation((1, 2, 0)), B11: Permutation((0, 1, 2))})
    assert q.element_order(Word(((A, 1),))) == 3
    assert q.element_order(identity()) == 1
    qa = make_abelian_quotient(P22, 12)
    assert qa.element_order(parse_word("a", P22)) == 12
    assert qa.element_order(parse_word("a^4", P22)) == 3
    assert qa.element_order(parse_word("a^4 c^6", P22)) == 6


def test_cyclic_image_order_three():
    q = make_permutation_quotient(P11, {A: Permutation((1, 2, 0)), B11: Permutation((0, 1, 2))})
    assert q.order() == 3


def test_abelian_order_is_modulus_to_rank():
    for n in (2, 3, 5):
        assert make_abelian_quotient(P22, n).order() == n ** 4
        assert make_abelian_quotient(P11, n).order() == n ** 2


# --- BFS distances ---------------------------------------------------------------

def naive_distance(q, w, limit=None):
    """Breadth-first over the image group, written independently."""
    target = q.image(w)
    moves = [q.generator_image(g) for g in q.partition.generators()]
    moves += [m.inverse() for m in moves]
    start = Permutation.identity(q.degree)
    seen = {start: 0}
    fringe = deque([start])
    while fringe:
        x = fringe.popleft()
        if x == target:
            return seen[x]
        if limit is not None and seen[x] >= limit:
            continue
        for m in moves:
            y = x * m
            if y not in seen:
                seen[y] = seen[x] + 1
                fringe.append(y)
    return None


def test_cayley_distance_matches_naive_bfs():
    rng = random.Random(23)
    for _ in range(200):
        partition = rng.choice([P11, P22])
        q = random_quotient(rng, partition, max_degree=5)
        w = random_word(rng, partition)
        assert q.cayley_distance(w) == naive_distance(q, w)


def test_cayley_distance_bounded_by_length_and_kernel():
    rng = random.Random(24)
    for _ in range(300):
        partition = rng.choice([P11, P22])
        q = random_quotient(rng, partition, max_degree=5)
        w = random_word(rng, partition)
        d = q.cayley_distance(w)
        assert d <= word_length(w)
        assert (d == 0) == in_kernel(q, w)


def test_cayley_distance_max_radius():
    q = make_abelian_quotient(P11, 7)
    w = parse_word("a^3", P11)
    assert q.cayley_distance(w) == 3
    assert q.cayley_distance(w, max_radius=2) is None
    assert q.cayley_distance(w, max_radius=3) == 3
    assert q.cayley_distance(identity(), max_radius=0) == 0
    # a negative radius bounds nothing, not even the identity's distance 0
    for x in (identity(), w):
        with pytest.raises(ValueError, match="max_radius"):
            q.cayley_distance(x, max_radius=-1)


def test_ball_counts():
    q = make_abelian_quotient(P11, 100)
    ball1 = q.ball(1)
    assert len(ball1) == 5  # identity plus four generator moves
    assert set(ball1.values()) == {0, 1}
    ball2 = q.ball(2)
    assert len(ball2) == 13  # l1-ball in Z^2 before wraparound


def spread_quotient(rng, partition, degree):
    """Permutation quotient of ``degree`` (a multiple of 6) points: every
    block of 6 carries the same random action, relabelled by one shuffle,
    so the image group stays that of degree 6 however wide the storage."""
    images6 = {g: tuple(rng.sample(range(6), 6)) for g in partition.generators()}
    relabel = rng.sample(range(degree), degree)
    images = {}
    for g, p in images6.items():
        mapping = [None] * degree
        for block in range(0, degree, 6):
            for i in range(6):
                mapping[relabel[block + i]] = relabel[block + p[i]]
        images[g] = mapping
    return make_permutation_quotient(partition, images)


@pytest.mark.parametrize("partition", [P11, P22])
@pytest.mark.parametrize("kind", ["abelian", 6, 300])
def test_ball_is_the_letter_table_cut_at_its_radius(partition, kind):
    # balls and K-image tables run the same search: over the letters in
    # partition order and then their inverses, a ball is the generated
    # table's prefix of depth at most r, in the same insertion order
    rng = random.Random(f"{partition.rank}-{kind}")
    if kind == "abelian":
        q = make_abelian_quotient(partition, 5 if partition is P11 else 3)
    else:
        q = spread_quotient(rng, partition, kind)
    letters = [Word(((g, 1),)) for g in partition.generators()]
    table = generated_image_table(q, letters)
    for r in range(5):
        expected = {x: d for x, (d, _, _) in table.items() if d <= r}
        ball = q.ball(r)
        assert list(ball.items()) == list(expected.items())


# --- subgroup enumeration --------------------------------------------------------

def test_subgroup_image_order_examples():
    qa = make_abelian_quotient(P22, 3)
    assert len(generated_image_table(qa, [parse_word("a", P22)])) == 3
    k_gens = [parse_word("a", P22), parse_word("b", P22)]
    assert len(generated_image_table(qa, k_gens)) == 9
    assert len(generated_image_table(qa, [])) == 1


def test_generated_image_table_words_are_geodesic_labels():
    q = make_abelian_quotient(P22, 5)
    gens = [parse_word("a", P22), parse_word("b", P22)]
    table = generated_image_table(q, gens)
    assert len(table) == 25
    for element in table:
        w = table_word(table, element)
        assert q.image(w).mapping == element
        assert all(g.factor == K for g, _ in w.runs)


# --- stabilizer chains -------------------------------------------------------------

K22 = [parse_word("a", P22), parse_word("b", P22)]


def letter_words(partition):
    return [Word(((g, 1),)) for g in partition.generators()]


def test_subgroup_order_matches_the_table_on_chain_quotients():
    # the 4- and 5-step default chains are prefixes of the 6-step one
    chains = [construct_ex2(steps=n).steps for n in (4, 5, 6)]
    assert chains[0] == chains[2][:4] and chains[1] == chains[2][:5]
    for st in chains[2]:
        order = subgroup_order(st.quotient, K22)
        assert order == len(generated_image_table(st.quotient, K22)) == st.k_index


def small_quotient(rng, partition, degree):
    """A random quotient of degree at most ``degree``: abelian when the
    rotations fit, else random permutations."""
    if rng.random() < 0.3 and 2 * partition.rank <= degree:
        return make_abelian_quotient(partition, rng.randrange(2, degree // partition.rank + 1))
    degree = rng.randrange(1, degree + 1)
    return make_permutation_quotient(
        partition, {g: random_perm(rng, degree) for g in partition.generators()})


def test_subgroup_order_matches_the_table_on_random_quotients():
    # degree <= 12; the factors of a product have degree <= 10 together, so
    # the table oracle stays well under the cap
    rng = random.Random(1212)
    products = 0
    for _ in range(40):
        partition = rng.choice([P11, P22])
        if rng.random() < 0.4:
            first = small_quotient(rng, partition, 6)
            q = direct_product(first, small_quotient(rng, partition, 10 - first.degree))
            products += 1
        else:
            q = small_quotient(rng, partition, 8 if rng.random() < 0.7 else 12)
        if q.kind == "perm" and q.degree > 8:
            words = [random_word(rng, partition)]  # cyclic: order <= lcm of the cycles
        else:
            words = [random_word(rng, partition) for _ in range(rng.randrange(4))]
            words += rng.sample(letter_words(partition), rng.randrange(partition.rank + 1))
        assert q.degree <= 12
        assert subgroup_order(q, words) == len(generated_image_table(q, words))
    assert products >= 10


@pytest.mark.parametrize("partition", [P11, P22, FactorPartition(3, 1)])
@pytest.mark.parametrize("modulus", [2, 3, 7, 12])
def test_subgroup_order_of_abelian_quotients(partition, modulus):
    q = make_abelian_quotient(partition, modulus)
    k_words = [Word(((g, 1),)) for g in partition.k_generators()]
    assert subgroup_order(q, k_words) == modulus ** partition.k_size
    assert subgroup_order(q, letter_words(partition)) == modulus ** partition.rank == q.order()
    assert subgroup_order(q, []) == 1


def cycle(points, degree):
    mapping = list(range(degree))
    for x, y in zip(points, points[1:] + points[:1]):
        mapping[x] = y
    return Permutation(tuple(mapping))


@pytest.mark.parametrize("n", range(1, 8))
def test_subgroup_order_of_symmetric_and_alternating_groups(n):
    # (0 1 ... n-1) and (0 1) generate S_n; (0 1 2) with the n-cycle (n odd)
    # or with (1 2 ... n-1) (n even) generate A_n
    words = letter_words(P11)
    symmetric = make_permutation_quotient(P11, {
        A: cycle(list(range(n)), n), B11: cycle([0, 1] if n > 1 else [0], n)})
    assert subgroup_order(symmetric, words) == math.factorial(n) == symmetric.order()
    if n >= 3:
        long_cycle = list(range(n)) if n % 2 else list(range(1, n))
        alternating = make_permutation_quotient(P11, {
            A: cycle([0, 1, 2], n), B11: cycle(long_cycle, n)})
        assert subgroup_order(alternating, words) == math.factorial(n) // 2
        assert len(generated_image_table(alternating, words)) == math.factorial(n) // 2


def test_subgroup_order_charges_compositions_not_elements():
    # one element with cycles of lengths 2, 3, 5, 7, 11 and 13 generates a
    # cyclic group of order 30,030; its chain fits a cap of 300, its table
    # does not
    mapping = []
    for length in (2, 3, 5, 7, 11, 13):
        start = len(mapping)
        mapping += [start + (i + 1) % length for i in range(length)]
    q = make_permutation_quotient(P11, {A: mapping, B11: range(len(mapping))},
                                  enumeration_cap=300)
    words = [parse_word("a", P11)]
    assert subgroup_order(q, words) == 30_030
    with pytest.raises(CapExceededError, match="generated subgroup enumeration"):
        generated_image_table(q, words)


@pytest.mark.parametrize("degree", [8, 60])
def test_subgroup_order_past_the_cap_raises(degree):
    # S_8 needs more than 50 compositions, S_60 more than 10^6
    q = make_permutation_quotient(P11, {
        A: cycle(list(range(degree)), degree), B11: cycle([0, 1], degree)},
        enumeration_cap=50 if degree == 8 else None)
    with pytest.raises(CapExceededError, match=r"\(stabilizer chain\)"):
        subgroup_order(q, letter_words(P11))


# --- direct products -------------------------------------------------------------

def test_direct_product_kernel_conjunction():
    rng = random.Random(25)
    for _ in range(200):
        partition = rng.choice([P11, P22])
        q1 = random_quotient(rng, partition, max_degree=5)
        q2 = random_quotient(rng, partition, max_degree=5)
        prod = direct_product(q1, q2)
        w = random_word(rng, partition)
        assert in_kernel(prod, w) == (in_kernel(q1, w) and in_kernel(q2, w))


def test_direct_product_coset_and_order():
    q1 = make_abelian_quotient(P11, 2)
    q2 = make_abelian_quotient(P11, 3)
    prod = direct_product(q1, q2)
    u, v = parse_word("a^7", P11), parse_word("a", P11)
    assert prod.coset_equal(u, v)  # 7 = 1 mod 6
    assert not prod.coset_equal(u, parse_word("a^2", P11))
    assert prod.element_order(parse_word("a", P11)) == 6


def test_direct_product_across_byte_storage():
    rng = random.Random(29)
    q1 = make_permutation_quotient(P11, {g: random_perm(rng, 200) for g in P11.generators()})
    q2 = make_permutation_quotient(P11, {g: random_perm(rng, 100) for g in P11.generators()})
    prod = direct_product(q1, q2)
    assert prod.degree == 300
    for g in P11.generators():
        left, right = tuple(q1.images[g].mapping), tuple(q2.images[g].mapping)
        assert prod.images[g].mapping == left + tuple(x + 200 for x in right)
    for _ in range(50):
        w = random_word(rng, P11, max_exp=50)
        x1, x2, x = q1.image(w), q2.image(w), prod.image(w)
        assert tuple(x.mapping) == tuple(x1.mapping) + tuple(v + 200 for v in x2.mapping)
        assert in_kernel(prod, w) == (in_kernel(q1, w) and in_kernel(q2, w))
    # the JSON forms hold plain int lists on both sides of the split
    for q in (q1, prod):
        images = quotient_to_obj(q)["images"]
        assert all(type(v) is list and all(type(x) is int for x in v) for v in images.values())
        elt = element_to_obj(q, q.image(parse_word("a^3 b^-2 a", P11)))["mapping"]
        assert type(elt) is list and all(type(x) is int for x in elt)
        assert quotient_from_obj(json.loads(json.dumps(quotient_to_obj(q))), P11) == q


def test_abelian_rotations_match_exponent_sums():
    # independent oracle: the abelianization mod n reads only exponent sums
    rng = random.Random(26)
    n = 4
    q = make_abelian_quotient(P22, n)
    assert q.kind == "abelian"
    assert q.degree == 16
    for _ in range(200):
        w = random_word(rng, P22)
        sums = [sum(e for g, e in w.runs if g == gen) for gen in P22.generators()]
        assert in_kernel(q, w) == all(t % n == 0 for t in sums)
        assert q.element_order(w) == math.lcm(*(n // math.gcd(n, t) for t in sums))
        assert element_to_obj(q, q.image(w))["vector"] == [t % n for t in sums]


def test_hostile_abelian_modulus_hits_cap():
    started = time.perf_counter()
    with pytest.raises(CapExceededError):
        quotient_from_obj({"kind": "abelian", "modulus": 10 ** 12}, P22)
    assert time.perf_counter() - started < 1


def test_trivial_quotient():
    q = trivial_quotient(P22)
    assert q.order() == 1
    assert in_kernel(q, parse_word("a b^-1 c d", P22))


# --- caps -----------------------------------------------------------------------

def test_enumeration_cap_is_hard_error():
    # the one search names its caller's enumeration in the error
    q = make_abelian_quotient(P22, 40, enumeration_cap=1000)
    with pytest.raises(CapExceededError, match=r"\(image group enumeration\)"):
        q.ball(100)
    with pytest.raises(CapExceededError, match=r"\(generated subgroup enumeration\)"):
        generated_image_table(q, [parse_word("a", P22), parse_word("b", P22)])
    rng = random.Random(31)
    q = make_permutation_quotient(
        P22, {g: random_perm(rng, 6) for g in P22.generators()}, enumeration_cap=10)
    with pytest.raises(CapExceededError, match=r"\(image group enumeration\)"):
        q.order()


def test_cayley_distance_does_not_depend_on_order_calls():
    # order() enumerates the whole group and keeps nothing; a distance asked
    # before and after it comes from the same search
    rng = random.Random(32)
    for _ in range(20):
        partition = rng.choice([P11, P22])
        q = random_quotient(rng, partition, max_degree=6)
        words = [random_word(rng, partition) for _ in range(5)]
        before = [q.cayley_distance(w) for w in words]
        q.order()
        assert [q.cayley_distance(w) for w in words] == before
        assert before == [naive_distance(q, w) for w in words]


def test_default_cap_value():
    assert DEFAULT_ENUMERATION_CAP == 10 ** 6
    q = make_abelian_quotient(P11, 3)
    assert q.enumeration_cap == 10 ** 6


# --- one abelian quotient per (partition, modulus, cap) ---------------------------

def test_abelian_quotients_up_to_256_points_are_shared():
    # FactorPartition(1, 3) has the rank of P22 but other blocks
    p13 = FactorPartition(1, 3)
    for partition, modulus in ((P11, 2), (P11, 128), (P22, 64), (p13, 64)):
        q = make_abelian_quotient(partition, modulus)
        assert q.partition == partition and q.modulus == modulus
        assert make_abelian_quotient(partition, modulus) is q
        assert make_abelian_quotient(partition, modulus, DEFAULT_ENUMERATION_CAP) is q
        assert quotient_from_obj({"kind": "abelian", "modulus": modulus}, partition) is q
    assert make_abelian_quotient(P22, 64) is not make_abelian_quotient(p13, 64)


def test_each_cap_has_its_own_shared_abelian_quotient():
    small = make_abelian_quotient(P22, 5, enumeration_cap=100)
    large = make_abelian_quotient(P22, 5, enumeration_cap=1000)
    assert small is not large and small == large  # equality ignores the cap
    assert (small.enumeration_cap, large.enumeration_cap) == (100, 1000)
    assert make_abelian_quotient(P22, 5, enumeration_cap=100) is small
    # the whole group of 625 elements lies within distance 4 * 2
    with pytest.raises(CapExceededError, match=r"\(image group enumeration\)"):
        small.ball(8)
    assert len(large.ball(8)) == 5 ** 4


def test_abelian_quotients_past_256_points_are_built_per_call():
    lookups = quotients._abelian_quotient.cache_info()[:2]  # hits, misses
    q = make_abelian_quotient(P11, 129)  # 258 points
    r = quotient_from_obj({"kind": "abelian", "modulus": 129}, P11)
    assert q is not r and q == r
    assert make_abelian_quotient(P11, 129) is not q
    assert quotients._abelian_quotient.cache_info()[:2] == lookups


def test_the_shared_abelian_quotients_are_bounded():
    info = quotients._abelian_quotient.cache_info()
    assert info.maxsize is not None
    for cap in range(10 ** 6, 10 ** 6 + info.maxsize + 10):
        make_abelian_quotient(P11, 2, enumeration_cap=cap)
    assert quotients._abelian_quotient.cache_info().currsize == info.maxsize


@pytest.mark.parametrize("modulus", [True, False, 2.0, "2", 1, 0, -2])
def test_bad_abelian_moduli_raise_before_the_shared_ones(modulus):
    # (P11, 2) is shared first; 2.0 equals 2 and hashes alike
    make_abelian_quotient(P11, 2)
    with pytest.raises(ValueError, match="abelian modulus must be an integer >= 2"):
        make_abelian_quotient(P11, modulus)


def test_abelian_moduli_past_the_cap_raise_before_the_shared_ones():
    # 100 * 2 points in each of 2 images: 400 entries
    make_abelian_quotient(P11, 100)
    make_abelian_quotient(P11, 100, enumeration_cap=400)
    for cap in (399, 10):
        with pytest.raises(CapExceededError, match="abelian modulus 100"):
            make_abelian_quotient(P11, 100, enumeration_cap=cap)
        with pytest.raises(CapExceededError, match="abelian modulus 100"):
            quotient_from_obj({"kind": "abelian", "modulus": 100}, P11, enumeration_cap=cap)


def test_certificates_are_the_same_bytes_from_a_cold_and_a_warm_cache():
    build = {
        "separation": lambda: separate_from_identity(P22, parse_word("a^6 c^4", P22)),
        "ex1_tail": lambda: separate_from_S(parse_word("b^21", P11)),
        "ex1_not_closed": lambda: not_closed_witness(make_abelian_quotient(P11, 6)),
        "ex2": lambda: construct_ex2(P22, steps=3),
    }
    assert build.keys() == CERTIFICATES.keys()
    for tag, make in build.items():
        from_obj = CERTIFICATES[tag][1]
        quotients._abelian_quotient.cache_clear()
        cold = emit_certificate(make())
        quotients._abelian_quotient.cache_clear()
        assert emit_certificate(from_obj(json.loads(cold))) == cold
        assert emit_certificate(make()) == cold
        assert emit_certificate(from_obj(json.loads(cold))) == cold


# --- validation and serialization -------------------------------------------------

def test_permutation_validation():
    with pytest.raises(ValueError):
        make_permutation_quotient(P11, {A: Permutation((0, 0)), B11: Permutation((0, 1))})
    with pytest.raises(ValueError):
        make_permutation_quotient(P11, {A: (1, 2), B11: (0, 1)})
    with pytest.raises(ValueError):
        make_permutation_quotient(P11, {A: (1, 0)})  # missing b
    with pytest.raises(ValueError):
        make_abelian_quotient(P11, 1)


@pytest.mark.parametrize("values, message", [
    ([1, 0], "expected 3 images, got 2"),
    ([0, "1", 2], "image '1' is not a point in 0..2"),
    ([0, 1.0, 2], "image 1.0 is not a point in 0..2"),
    ([True, 0, 2], "image True is not a point in 0..2"),
    ([0, 1, 3], "image 3 is not a point in 0..2"),
    ([0, -1, 2], "image -1 is not a point in 0..2"),
    ([0, 1, 1], "not a bijection (point 1 hit twice)"),
])
def test_permutation_validation_messages(values, message):
    # a rejected list always names its first bad image, word for word
    with pytest.raises(ValueError) as exc:
        make_permutation_quotient(P11, {A: (0, 1, 2), B11: values})
    assert str(exc.value) == f"images[b]: {message}"
    obj = {"kind": "perm", "degree": 3, "images": {"a": [0, 1, 2], "b": values}}
    with pytest.raises(SchemaError) as exc:
        quotient_from_obj(obj, P11)
    assert str(exc.value) == f"quotient.images.b: {message}"


def test_quotient_json_round_trip():
    rng = random.Random(27)
    for _ in range(100):
        partition = rng.choice([P11, P22])
        q = random_quotient(rng, partition)
        obj = quotient_to_obj(q)
        q2 = quotient_from_obj(obj, partition)
        assert q == q2
        assert quotient_to_obj(q2) == obj


def test_quotient_schema_rejections():
    with pytest.raises(SchemaError):
        quotient_from_obj({"kind": "perm", "degree": 2}, P11)  # missing images
    with pytest.raises(SchemaError):
        quotient_from_obj({"kind": "abelian", "modulus": 3, "extra": 1}, P11)
    with pytest.raises(SchemaError):
        quotient_from_obj({"kind": "abelian", "modulus": True}, P11)
    with pytest.raises(SchemaError):
        quotient_from_obj({"kind": "weird"}, P11)
    with pytest.raises(SchemaError):
        quotient_from_obj({"kind": "perm", "degree": 2,
                           "images": {"a": [0, 0], "b": [0, 1]}}, P11)
    with pytest.raises(SchemaError):
        quotient_from_obj({"kind": "perm", "degree": 2,
                           "images": {"a": [1, 0], "z": [0, 1]}}, P11)


def compose_ref(p, q):
    """Plain tuple composition, p first and then q: the reference for ``*``."""
    return tuple(q[x] for x in p)


def inverse_ref(p):
    inv = [None] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def power_ref(p, e):
    """Images of p^e, each point moved e steps along its cycle."""
    out = [None] * len(p)
    for start in range(len(p)):
        if out[start] is None:
            cycle = [start]
            while p[cycle[-1]] != start:
                cycle.append(p[cycle[-1]])
            for i, x in enumerate(cycle):
                out[x] = cycle[(i + e) % len(cycle)]
    return tuple(out)


def prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


def test_permutation_algebra():
    rng = random.Random(28)
    for _ in range(200):
        p = Permutation(tuple(rng.sample(range(6), 6)))
        q = Permutation(tuple(rng.sample(range(6), 6)))
        # composition convention: (p * q)(x) = q(p(x))
        assert all((p * q)(x) == q(p(x)) for x in range(6))
        assert p * p.inverse() == Permutation.identity(6)
        assert p ** 0 == Permutation.identity(6)
        assert p ** -2 == (p.inverse()) ** 2
        total = Permutation.identity(6)
        for _ in range(p.order()):
            total = total * p
        assert total == Permutation.identity(6)

    # both storages and both sides of the degree-256 split, against tuple references
    f20 = math.factorial(20)
    for degree in (1, 2, 255, 256, 257, 3068):
        ident = Permutation.identity(degree)
        assert ident.mapping == Permutation(range(degree)).mapping
        for _ in range(3):
            a = tuple(rng.sample(range(degree), degree))
            b = tuple(rng.sample(range(degree), degree))
            p, q = Permutation(a), Permutation(b)
            assert isinstance(p.mapping, bytes if degree <= 256 else tuple)
            assert p.degree == degree and tuple(p.mapping) == a
            assert all(type(x) is int for x in p.mapping)
            for _ in range(2):  # the second round reuses q's kept table
                assert tuple((p * q).mapping) == compose_ref(a, b)
            assert tuple((q * p).mapping) == compose_ref(b, a)
            assert (p * q) * p == p * (q * p)
            pq = Permutation(compose_ref(a, b))
            assert p * q == pq and hash(p * q) == hash(pq)
            assert len({p * q, pq, Permutation(list(compose_ref(a, b)))}) == 1
            assert (p == q) == (a == b)
            assert p != Permutation.identity(degree + 1)
            assert tuple(p.inverse().mapping) == inverse_ref(a)
            assert p * p.inverse() == ident == p.inverse() * p
            for e in (0, 1, 2, 7, -1, -2, -7, f20, -f20, f20 + 11, -(f20 + 11)):
                assert tuple((p ** e).mapping) == power_ref(a, e)
            order = p.order()
            assert p ** order == ident
            assert all(p ** (order // r) != ident for r in prime_factors(order))


# --- the raw-mapping kernel against tuple references -------------------------------

def short_cycles_perm(rng, degree, longest=6):
    """Random permutation with cycles of at most ``longest`` points, so a
    full period is short enough to apply letter by letter."""
    points = rng.sample(range(degree), degree)
    mapping = [None] * degree
    start = 0
    while start < degree:
        cycle = points[start:start + rng.randint(1, longest)]
        for i, x in enumerate(cycle):
            mapping[x] = cycle[(i + 1) % len(cycle)]
        start += len(cycle)
    return tuple(mapping)


def naive_order(p):
    ident, x, k = tuple(range(len(p))), p, 1
    while x != ident:
        x, k = compose_ref(x, p), k + 1
    return k


def letter_image(images, w):
    """Image of w applied one letter at a time; an exponent past 10^6 is
    first reduced by one naive period."""
    out = tuple(range(len(images[A])))
    for g, e in w.runs:
        p = images[g]
        if abs(e) > 10 ** 6:
            e %= naive_order(p)
        step = p if e > 0 else inverse_ref(p)
        for _ in range(abs(e)):
            out = compose_ref(out, step)
    return out


@pytest.mark.parametrize("degree", [6, 256, 300])
def test_raw_image_matches_letter_application(degree):
    rng = random.Random(degree)
    images = {g: short_cycles_perm(rng, degree) for g in P11.generators()}
    q = make_permutation_quotient(P11, images)
    assert type(q.image(identity()).mapping) is (bytes if degree <= 256 else tuple)
    big = math.factorial(20) + 11
    for g, h in ((A, B11), (B11, A)):
        order = naive_order(images[g])
        assert order > 2
        for e in (0, 1, -1, 2, -2, order - 1, -(order - 1), order, big, -big):
            for w in (reduce([(g, e)]), reduce([(g, e), (h, 2), (g, -1), (h, e)])):
                x = q.image(w)
                assert tuple(x.mapping) == letter_image(images, w)
                assert in_kernel(q, w) == (x == Permutation.identity(q.degree))


def clustered_cycles_perm(rng, degree):
    """Random permutation with a third to a half of its points fixed and the
    others in cycles of three lengths (the last cycle may be shorter)."""
    lengths = rng.sample((2, 3, 4, 5, 6, 8, 12), 3)
    points = rng.sample(range(degree), degree)
    mapping = list(range(degree))
    start = rng.randrange(degree // 3, degree // 2)
    while start < degree:
        cycle = points[start:start + rng.choice(lengths)]
        for i, x in enumerate(cycle):
            mapping[x] = cycle[(i + 1) % len(cycle)]
        start += len(cycle)
    return tuple(mapping)


@pytest.mark.parametrize("degree", [257, 258, 300, 516, 1028, 1100])
def test_wide_powers_from_cycles_match_repeated_composition(degree):
    # above the split image() reads a power off the generator's cycles in
    # one gather; every power of a period, made by composing one more copy
    # at a time, is the oracle
    rng = random.Random(f"wide-{degree}")
    images = {g: clustered_cycles_perm(rng, degree) for g in P11.generators()}
    q = make_permutation_quotient(P11, images)
    big = (math.factorial(20), math.factorial(511))
    powers, orders = {}, {}
    for g, p in images.items():
        period = [tuple(range(degree))]
        while (x := compose_ref(period[-1], p)) != period[0]:
            period.append(x)
        powers[g], orders[g] = period, len(period)
        order, step, inverse, _ = q._generator_steps(g)
        assert (order, step, inverse) == (len(period), p, quotients._inverse(p))
        for e in (0, 1, order, order - 1, order + 1) + big:
            for signed in (e, -e):
                assert q.image(Word(((g, signed),))).mapping == period[signed % order]
    exponents = [1, 2, 3, 7, 23, 10 ** 30, *big]
    for _ in range(40):
        w = reduce([(rng.choice((A, B11)), rng.choice((1, -1)) * rng.choice(exponents))
                    for _ in range(rng.randrange(2, 7))])
        expected = tuple(range(degree))
        for g, e in w.runs:
            expected = compose_ref(expected, powers[g][e % orders[g]])
        assert q.image(w).mapping == expected


def test_wide_image_gathers_once_per_run(monkeypatch):
    # squaring takes about 2 log2(order) tuple compositions a run; read off
    # the cycles a power is one gather, and each run after the first adds a
    # gather and one composition onto the runs before it
    calls = []
    original = quotients._compose_wide
    monkeypatch.setattr(quotients, "_compose_wide",
                        lambda x, m: calls.append(1) or original(x, m))
    rng = random.Random("1028")
    q = direct_product(make_abelian_quotient(P11, 257), make_abelian_quotient(P11, 2),
                       make_permutation_quotient(P11, {g: clustered_cycles_perm(rng, 510)
                                                       for g in P11.generators()}))
    assert q.degree == 1028
    f19, f20 = math.factorial(19), math.factorial(20)
    for g, e in ((A, f20), (B11, -f19)):
        order = q._generator_steps(g)[0]
        assert 1 < e % order < order - 1
    one, two = Word(((A, f20),)), Word(((A, f20), (B11, -f19)))
    got = {}
    for w in (one, two):
        calls.clear()
        got[w] = q.image(w)
        assert len(calls) == 2 * len(w.runs) - 1  # a gather per run, a composition per join
    a, b = q.images[A], q.images[B11]
    assert got[one] == a ** f20 and got[two] == a ** f20 * b ** -f19


def cycle_length(mapping, x):
    n, y = 1, mapping[x]
    while y != x:
        n, y = n + 1, mapping[y]
    return n


@pytest.mark.parametrize("degree", [1, 6, 256, 257, 400, "abelian"])
def test_basepoint_walk_matches_the_image(degree):
    # the Hall verifier walks one point along a partial action's pairs
    # without composing; image composes the whole permutation.  Written as
    # the partial action of all its pairs, a quotient's walk must end where
    # its image sends every point, and the verifier's basepoint clause must
    # read the image of point 0
    rng = random.Random(f"point-image-{degree}")
    if degree == "abelian":
        q = make_abelian_quotient(P22, 7)
    else:
        q = make_permutation_quotient(
            P22, {g: random_perm(rng, degree) for g in P22.generators()})
    big = math.factorial(20) + 11
    exponents = {}
    for g in P22.generators():
        p = q.images[g]
        exponents[g] = [1, 2, cycle_length(p.mapping, 0), p.order(), big]
    words = [Word(((g, sign * e),)) for g, es in exponents.items()
             for e in es for sign in (1, -1)]
    for _ in range(12):
        runs = []
        for _ in range(rng.randrange(2, 6)):
            g = rng.choice(P22.generators())
            runs.append((g, rng.choice((1, -1)) * rng.choice(exponents[g])))
        words.append(reduce(runs))
    gens = P22.generators()
    action = PartialAction(P22, {g: tuple(range(q.degree)) for g in gens},
                           {g: tuple(q.images[g].mapping) for g in gens})
    maps = separation._label_maps([(action.sources[g], action.targets[g]) for g in gens])
    for w in words:
        image = q.image(w).mapping
        runs = separation._letter_runs(P22, w)
        assert [separation._trace(maps, runs, x) for x in range(q.degree)] == list(image), w
        cert = SeparationCertificate(action, (), w)
        assert verify_separation(cert).ok == (image[0] != 0), w


def naive_ball(images, partition, radius):
    """(element, distance) pairs of the Cayley ball in breadth-first order:
    generator images in partition order, then their inverses."""
    moves = [images[g] for g in partition.generators()]
    moves += [inverse_ref(m) for m in moves]
    start = tuple(range(len(moves[0])))
    seen = {start: 0}
    fringe = deque([start])
    while fringe:
        x = fringe.popleft()
        if seen[x] >= radius:
            continue
        for m in moves:
            y = compose_ref(x, m)
            if y not in seen:
                seen[y] = seen[x] + 1
                fringe.append(y)
    return list(seen.items())


@pytest.mark.parametrize("degree, radius", [(6, 20), (256, 3), (300, 3)])
def test_ball_and_distance_match_naive_bfs(degree, radius):
    rng = random.Random(degree + 1)
    images = {g: tuple(rng.sample(range(degree), degree)) for g in P22.generators()}
    q = make_permutation_quotient(P22, images)
    expected = naive_ball(images, P22, radius)
    ball = q.ball(radius)
    assert all(type(x) is (bytes if degree <= 256 else tuple) for x in ball)
    assert [(tuple(x), d) for x, d in ball.items()] == expected
    distances = dict(expected)
    for _ in range(40):
        w = random_word(rng, P22, max_runs=3, max_exp=2)
        d = distances.get(tuple(q.image(w).mapping))
        assert q.cayley_distance(w, max_radius=radius) == d
    if degree == 6:  # radius 20 covers the whole group
        assert q.order() == len(expected)
        w = random_word(rng, P22)
        assert q.cayley_distance(w) == distances[tuple(q.image(w).mapping)]


def test_bounded_distance_meets_in_the_middle():
    # every radius 0..7 against the tuple BFS, with targets at ceil(f/2),
    # ceil(f/2) + 1, f and f + 1 wherever the group has such elements
    rng = random.Random(808)
    covered = set()
    for trial in range(18):
        partition = rng.choice([P11, P22])
        if trial % 3 == 0:
            q = make_abelian_quotient(partition, rng.randrange(7, 12))
        else:
            degree = rng.randrange(5, 8)
            q = make_permutation_quotient(
                partition, {g: random_perm(rng, degree) for g in partition.generators()})
        images = {g: tuple(q.images[g].mapping) for g in partition.generators()}
        distances = dict(naive_ball(images, partition, 10 ** 9))
        layers = {}
        for x, d in distances.items():
            layers.setdefault(d, []).append(x)
        for f in range(8):
            half = (f + 1) // 2
            for d in (half, half + 1, f, f + 1):
                if d in layers:
                    covered.add((f, d))
                    x = bytes(rng.choice(layers[d]))
                    assert q.bounded_distance(x, f) == (d if d <= f else None)
            for _ in range(6):
                w = random_word(rng, partition)
                d = distances[tuple(q.image(w).mapping)]
                assert q.cayley_distance(w, max_radius=f) == (d if d <= f else None)
        w = random_word(rng, partition)
        assert naive_distance(q, w) == distances[tuple(q.image(w).mapping)]
    assert covered == {(f, d) for f in range(8)
                       for d in ((f + 1) // 2, (f + 1) // 2 + 1, f, f + 1)}


@pytest.fixture(scope="module")
def seed0_chain():
    return construct_ex2()


def test_generated_image_table_order_pinned(seed0_chain):
    # the words of Q_4's K-image table in insertion order, as the
    # Permutation-keyed enumeration listed them
    q = seed0_chain.steps[3].quotient
    table = generated_image_table(q, [parse_word("a", P22), parse_word("b", P22)])
    text = "\n".join(format_word(table_word(table, x), P22) for x in table)
    assert len(table) == 5040
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "999f04c8d2188d6c6441a69ca8a80b06f01d42d15bf645b2437c3d9502b4deb2")


def test_chain_quotient_order(seed0_chain):
    # a full enumeration of 322,560 elements at degree 16
    assert seed0_chain.steps[0].quotient.order() == 322_560
