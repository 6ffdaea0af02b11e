"""Finite quotients: homomorphism laws, naive oracles, BFS distances, caps."""

import json
import math
import random
from collections import deque

import pytest

from proficert.errors import CapExceededError, SchemaError
from proficert.quotients import (
    DEFAULT_ENUMERATION_CAP,
    FiniteQuotient,
    Permutation,
    as_permutation_quotient,
    direct_product,
    element_to_obj,
    generated_image_table,
    make_abelian_quotient,
    make_permutation_quotient,
    quotient_from_obj,
    quotient_to_obj,
    subgroup_image_order,
    trivial_quotient,
)
from proficert.words import (
    K,
    L,
    FactorPartition,
    Generator,
    Word,
    identity,
    multiply,
    parse_word,
    reduce,
    word_length,
)

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
    out = q.identity_element()
    for g, e in w.runs:
        img = q.generator_image(g)
        step = img if e > 0 else q.elem_inv(img)
        for _ in range(abs(e)):
            out = q.elem_mul(out, step)
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
        assert q.image(multiply(u, v)) == q.elem_mul(q.image(u), q.image(v))
        assert q.image(identity()) == q.identity_element()
        assert q.in_kernel(multiply(u, ~u))


def test_fast_powering_huge_exponent():
    # single runs with factorial-sized exponents stay exact
    q = make_permutation_quotient(P11, {A: Permutation((1, 2, 3, 4, 5, 6, 0)),
                                        B11: Permutation((1, 0, 2, 3, 4, 5, 6))})
    e = math.factorial(20)
    w = Word(((A, e),))
    assert q.image(w) == q.identity_element() if e % 7 == 0 else True
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
    moves += [q.elem_inv(m) for m in moves]
    start = q.identity_element()
    seen = {start: 0}
    fringe = deque([start])
    while fringe:
        x = fringe.popleft()
        if x == target:
            return seen[x]
        if limit is not None and seen[x] >= limit:
            continue
        for m in moves:
            y = q.elem_mul(x, m)
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
        assert (d == 0) == q.in_kernel(w)


def test_cayley_distance_max_radius():
    q = make_abelian_quotient(P11, 7)
    w = parse_word("a^3", P11)
    assert q.cayley_distance(w) == 3
    assert q.cayley_distance(w, max_radius=2) is None
    assert q.cayley_distance(w, max_radius=3) == 3
    assert q.cayley_distance(identity(), max_radius=0) == 0


def test_ball_counts():
    q = make_abelian_quotient(P11, 100)
    ball1 = q.ball(1)
    assert len(ball1) == 5  # identity plus four generator moves
    assert set(ball1.values()) == {0, 1}
    ball2 = q.ball(2)
    assert len(ball2) == 13  # l1-ball in Z^2 before wraparound


# --- subgroup enumeration --------------------------------------------------------

def test_subgroup_image_order_examples():
    qa = make_abelian_quotient(P22, 3)
    assert subgroup_image_order(qa, [parse_word("a", P22)]) == 3
    k_gens = [parse_word("a", P22), parse_word("b", P22)]
    assert subgroup_image_order(qa, k_gens) == 9
    assert subgroup_image_order(qa, []) == 1


def test_generated_image_table_words_are_geodesic_labels():
    q = make_abelian_quotient(P22, 5)
    gens = [parse_word("a", P22), parse_word("b", P22)]
    table = generated_image_table(q, gens)
    assert len(table) == 25
    for element, w in table.items():
        assert q.image(w) == element
        assert all(g.factor == K for g, _ in w.runs)


# --- direct products -------------------------------------------------------------

def test_direct_product_kernel_conjunction():
    rng = random.Random(25)
    for _ in range(200):
        partition = rng.choice([P11, P22])
        q1 = random_quotient(rng, partition, max_degree=5)
        q2 = random_quotient(rng, partition, max_degree=5)
        prod = direct_product(q1, q2)
        w = random_word(rng, partition)
        assert prod.in_kernel(w) == (q1.in_kernel(w) and q2.in_kernel(w))


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
        assert prod.in_kernel(w) == (q1.in_kernel(w) and q2.in_kernel(w))
    # the JSON forms hold plain int lists on both sides of the split
    for q in (q1, prod):
        images = quotient_to_obj(q)["images"]
        assert all(type(v) is list and all(type(x) is int for x in v) for v in images.values())
        elt = element_to_obj(q, q.image(parse_word("a^3 b^-2 a", P11)))["mapping"]
        assert type(elt) is list and all(type(x) is int for x in elt)
        assert quotient_from_obj(json.loads(json.dumps(quotient_to_obj(q))), P11) == q


def test_as_permutation_preserves_kernel():
    rng = random.Random(26)
    q = make_abelian_quotient(P22, 4)
    qp = as_permutation_quotient(q)
    assert qp.kind == "perm"
    assert qp.degree == 16
    for _ in range(200):
        w = random_word(rng, P22)
        assert q.in_kernel(w) == qp.in_kernel(w)
        assert q.element_order(w) == qp.element_order(w)


def test_trivial_quotient():
    q = trivial_quotient(P22)
    assert q.order() == 1
    assert q.in_kernel(parse_word("a b^-1 c d", P22))


# --- caps -----------------------------------------------------------------------

def test_enumeration_cap_is_hard_error():
    q = make_abelian_quotient(P22, 40, enumeration_cap=1000)
    with pytest.raises(CapExceededError):
        q.ball(100)
    with pytest.raises(CapExceededError):
        generated_image_table(q, [parse_word("a", P22), parse_word("b", P22)])


def test_default_cap_value():
    assert DEFAULT_ENUMERATION_CAP == 10 ** 6
    q = make_abelian_quotient(P11, 3)
    assert q.enumeration_cap == 10 ** 6


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
