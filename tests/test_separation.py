"""Stallings graphs, folding, membership, and Hall separation certificates."""

import random

import pytest

from proficert import quotients
from proficert.errors import CapExceededError, SchemaError
from proficert.quotients import Permutation, make_permutation_quotient
from proficert.separation import (
    SeparationCertificate,
    StallingsGraph,
    WITNESS_BASEPOINT,
    WITNESS_IMAGE,
    adjoin_word_path,
    build_stallings,
    fold,
    graph_to_dot,
    graph_to_obj,
    loop_wedge,
    membership,
    separate_from_identity,
    separate_from_subgroup,
    separation_from_obj,
    separation_to_obj,
    trace_word,
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
    parse_word,
    reduce,
    word_length,
)

P11 = FactorPartition(1, 1)
P22 = FactorPartition(2, 2)
A = Generator(K, 0)
B11 = Generator(L, 0)


def random_word(rng, partition, letters=4):
    """Random reduced word of exactly ``letters`` letters."""
    gens = partition.generators()
    runs = []
    while sum(abs(e) for _, e in runs) < letters:
        g = rng.choice(gens)
        e = rng.choice([-1, 1])
        if runs and runs[-1][0] == g and runs[-1][1] * e < 0:
            continue
        if runs and runs[-1][0] == g:
            runs[-1] = (g, runs[-1][1] + e)
        else:
            runs.append((g, e))
    return reduce(tuple(runs))


def random_subgroup(rng, partition, max_gens=3, max_len=4):
    return [random_word(rng, partition, rng.randrange(1, max_len + 1))
            for _ in range(rng.randrange(max_gens + 1))]


def product_closure(gens, rounds, keep_len=None):
    """All reduced products of at most ``rounds`` generator^(+-1) factors.

    With ``keep_len`` set, intermediate products longer than a fixed
    corridor above it are pruned.  Pruning can only shrink the closure, so
    a pruned closure is still sound for "this word is a member" evidence;
    it is used for the negative-side proxy where missing elements weaken
    coverage but cannot produce false failures.
    """
    factors = [g for g in gens] + [invert(g) for g in gens]
    max_factor = max((word_length(f) for f in factors), default=0)
    budget = None if keep_len is None else keep_len + 2 * max_factor
    seen = {identity()}
    frontier = {identity()}
    for _ in range(rounds):
        nxt = set()
        for x in frontier:
            for f in factors:
                y = multiply(x, f)
                if y not in seen and (budget is None or word_length(y) <= budget):
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
        if not frontier:
            break
    return seen


# --- construction examples ------------------------------------------------------

def test_build_stallings_examples():
    g_empty = build_stallings(P11, [])
    assert g_empty.num_vertices == 1 and not g_empty.edges and g_empty.folded

    g_a = build_stallings(P11, [parse_word("a", P11)])
    assert g_a.num_vertices == 1
    assert g_a.edges == frozenset({(0, A, 0)})

    g = build_stallings(P11, [parse_word("a^2", P11), parse_word("b", P11)])
    assert g.num_vertices == 2
    labels = sorted((s, gen, t) for s, gen, t in g.edges)
    assert (0, B11, 0) in g.edges
    assert len([e for e in labels if e[1] == A]) == 2


def test_membership_generators_always_pass():
    rng = random.Random(31)
    for _ in range(100):
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        graph = build_stallings(partition, gens)
        assert graph.folded
        for g in gens:
            assert membership(graph, g)
        assert membership(graph, identity())


def test_membership_examples():
    graph = build_stallings(P11, [parse_word("a^2", P11), parse_word("b", P11)])
    assert not membership(graph, parse_word("a", P11))
    assert membership(graph, parse_word("a^2 b a^-2", P11))
    assert membership(graph, parse_word("a^4", P11))
    assert not membership(graph, parse_word("a b", P11))


def test_membership_matches_product_enumeration():
    rng = random.Random(32)
    for _ in range(15):
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        graph = build_stallings(partition, gens)
        # every product of up to 5 generator factors is a member
        closure = list(product_closure(gens, 5))
        if len(closure) > 2000:
            closure = rng.sample(closure, 2000)
        for w in closure:
            assert membership(graph, w)


def test_non_membership_against_pruned_closure():
    # negatives checked against a deep pruned closure used as ground truth
    rng = random.Random(33)
    for _ in range(25):
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition, max_len=3)
        graph = build_stallings(partition, gens)
        closure = product_closure(gens, 10, keep_len=4)
        for _ in range(20):
            w = random_word(rng, partition, rng.randrange(1, 5))
            if membership(graph, w):
                assert trace_word(graph, w) == 0
            else:
                assert w not in closure


def test_membership_power_shortcut_handles_huge_exponents():
    graph = build_stallings(P11, [parse_word("a^2", P11), parse_word("b", P11)])
    assert membership(graph, Word(((A, 2 * 10 ** 40),)))
    assert not membership(graph, Word(((A, 2 * 10 ** 40 + 1),)))


# --- folding ----------------------------------------------------------------------

def test_fold_idempotent():
    rng = random.Random(34)
    for _ in range(100):
        partition = rng.choice([P11, P22])
        graph = loop_wedge(partition, random_subgroup(rng, partition))
        folded = fold(graph)
        assert folded.folded
        assert fold(folded) == folded


def test_fold_partial_injections():
    rng = random.Random(35)
    for _ in range(100):
        partition = rng.choice([P11, P22])
        folded = fold(loop_wedge(partition, random_subgroup(rng, partition)))
        outgoing = set()
        incoming = set()
        for s, g, t in folded.edges:
            assert (s, g) not in outgoing
            assert (t, g) not in incoming
            outgoing.add((s, g))
            incoming.add((t, g))


def _relabel(graph, rng):
    """Permute non-basepoint vertex names (an order-changing relabeling)."""
    others = list(range(1, graph.num_vertices))
    rng.shuffle(others)
    mapping = {0: 0}
    mapping.update({old: new for new, old in enumerate(others, start=1)})
    edges = frozenset((mapping[s], g, mapping[t]) for s, g, t in graph.edges)
    return StallingsGraph(graph.partition, graph.num_vertices, edges, False)


def test_fold_confluent_under_relabeling():
    # different vertex labelings force different merge orders; the folded
    # canonical graphs must coincide
    rng = random.Random(36)
    for _ in range(80):
        partition = rng.choice([P11, P22])
        wedge = loop_wedge(partition, random_subgroup(rng, partition))
        baseline = fold(wedge)
        for _ in range(3):
            assert fold(_relabel(wedge, rng)) == baseline


def test_two_parallel_edges_merge():
    # two a-edges leaving the basepoint toward distinct targets
    graph = StallingsGraph(P11, 3, frozenset({(0, A, 1), (0, A, 2)}), False)
    folded = fold(graph)
    assert folded.num_vertices == 2
    assert folded.edges == frozenset({(0, A, 1)})


def test_adjoin_word_path_counts():
    graph = build_stallings(P11, [parse_word("b", P11)])
    adjoined = adjoin_word_path(graph, parse_word("a^3", P11))
    assert adjoined.num_vertices == graph.num_vertices + 3
    assert not adjoined.folded


def test_path_letter_cap():
    with pytest.raises(CapExceededError):
        adjoin_word_path(build_stallings(P11, []), Word(((A, 10 ** 6),)))


# --- separation certificates ------------------------------------------------------

def test_separate_from_subgroup_examples():
    cert = separate_from_subgroup(P11, [parse_word("a", P11)], parse_word("b", P11))
    q = cert.quotient
    assert q.degree == 2
    assert q.image(parse_word("a", P11))(0) == 0
    assert q.image(parse_word("b", P11))(0) != 0
    assert verify_separation(cert)

    gens = [parse_word("a^2", P11), parse_word("b", P11)]
    cert2 = separate_from_subgroup(P11, gens, parse_word("a", P11))
    assert cert2.quotient.image(parse_word("a", P11))(0) != 0
    for g in gens:
        assert cert2.quotient.image(g)(0) == 0
    assert verify_separation(cert2)


def test_separate_from_subgroup_random_round_trip():
    rng = random.Random(37)
    done = 0
    while done < 100:
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        graph = build_stallings(partition, gens)
        w = random_word(rng, partition)
        if membership(graph, w):
            continue
        cert = separate_from_subgroup(partition, gens, w)
        assert cert.witness_kind == WITNESS_BASEPOINT
        result = verify_separation(cert)
        assert result.ok, result.reasons
        # degree bound: no larger than the folded graph with the word path
        folded = fold(adjoin_word_path(graph, w))
        assert cert.quotient.degree <= folded.num_vertices
        done += 1


def test_separate_member_raises():
    gens = [parse_word("a^2", P11), parse_word("b", P11)]
    with pytest.raises(ValueError):
        separate_from_subgroup(P11, gens, parse_word("a^2 b", P11))


def test_separate_from_identity_abelian_case():
    cert = separate_from_identity(P11, parse_word("a", P11))
    assert cert.witness_kind == WITNESS_IMAGE
    assert cert.quotient.kind == "abelian"
    assert cert.quotient.modulus == 2
    assert verify_separation(cert)


def test_separate_from_identity_commutator_case():
    w = parse_word("a b a^-1 b^-1", P11)
    cert = separate_from_identity(P11, w)
    assert not cert.quotient.in_kernel(w)
    assert verify_separation(cert)


def test_separate_from_identity_large_power():
    cert = separate_from_identity(P11, parse_word("a^120", P11))
    assert cert.quotient.modulus == 7  # 2..6 all divide 120
    assert not cert.quotient.in_kernel(parse_word("a^120", P11))
    assert verify_separation(cert)


def test_separate_identity_raises():
    with pytest.raises(ValueError):
        separate_from_identity(P11, identity())


def test_separation_random_words_round_trip():
    rng = random.Random(38)
    for _ in range(100):
        partition = rng.choice([P11, P22])
        w = random_word(rng, partition)
        cert = separate_from_identity(partition, w)
        assert verify_separation(cert).ok
        assert not cert.quotient.in_kernel(w)


# --- corruption and verification ----------------------------------------------------

def test_verify_rejects_excluded_in_subgroup():
    gens = [parse_word("a", P11)]
    cert = separate_from_subgroup(P11, gens, parse_word("b", P11))
    bad = SeparationCertificate(P11, cert.quotient, cert.subgroup_gens,
                                parse_word("a", P11), cert.witness_kind)
    result = verify_separation(bad)
    assert not result.ok
    assert any("basepoint" in r for r in result.reasons)


def test_verify_rejects_non_bijective_table():
    # _wrap skips validation, so the broken table keeps the bytes storage
    # and the _table slot of any degree-2 permutation
    broken = quotients._wrap(bytes((0, 0)))
    bad_q = make_permutation_quotient(
        P11, {A: Permutation((0, 1)), B11: Permutation((1, 0))})
    object.__setattr__(bad_q, "images", {A: broken, B11: Permutation((1, 0))})
    cert = SeparationCertificate(P11, bad_q, (parse_word("a", P11),),
                                 parse_word("b", P11), WITNESS_BASEPOINT)
    result = verify_separation(cert)
    assert not result.ok
    assert any("images[a]" in r for r in result.reasons)


def test_verify_rejects_unknown_witness_kind():
    cert = separate_from_identity(P11, parse_word("a", P11))
    bad = SeparationCertificate(P11, cert.quotient, (), cert.excluded, "telepathy")
    assert not verify_separation(bad).ok


# --- serialization and DOT -----------------------------------------------------------

def test_separation_json_round_trip():
    rng = random.Random(39)
    for _ in range(50):
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        graph = build_stallings(partition, gens)
        w = random_word(rng, partition)
        if membership(graph, w):
            continue
        cert = separate_from_subgroup(partition, gens, w)
        obj = separation_to_obj(cert)
        assert obj["type"] == "separation"
        back = separation_from_obj(obj)
        assert back == cert
        assert separation_to_obj(back) == obj


def test_separation_schema_rejections():
    cert = separate_from_identity(P11, parse_word("a", P11))
    obj = separation_to_obj(cert)
    broken = dict(obj)
    broken["surprise"] = 1
    with pytest.raises(SchemaError):
        separation_from_obj(broken)
    missing = dict(obj)
    del missing["excluded"]
    with pytest.raises(SchemaError):
        separation_from_obj(missing)
    wrong = dict(obj)
    wrong["witness_kind"] = "telepathy"
    with pytest.raises(SchemaError):
        separation_from_obj(wrong)


def test_graph_dot_and_obj():
    graph = build_stallings(P11, [parse_word("a^2", P11), parse_word("b", P11)])
    dot = graph_to_dot(graph)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert 'label="a"' in dot and 'label="b"' in dot
    obj = graph_to_obj(graph)
    assert obj["num_vertices"] == 2
    assert obj["folded"] is True
    assert len(obj["edges"]) == 3
