"""Stallings graphs, folding, membership, and Hall separation certificates."""

import itertools
import json
import math
import random
import sys
import time

import pytest

from proficert import quotients, separation
from proficert.cli import canonical_json, emit_certificate
from proficert.errors import CapExceededError, SchemaError
from proficert.example1 import ex1_tail_to_obj, separate_from_S
from proficert.quotients import make_permutation_quotient
from proficert.separation import (
    SeparationCertificate,
    StallingsGraph,
    WITNESS_BASEPOINT,
    WITNESS_IMAGE,
    WITNESS_OF,
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
)

from closure_oracle import letter_runs, letters_of, product_closure, runs_word
from fixtures import adjoin_word_path, indented_digest
from test_cli import run_process
from test_perfbench import load

P11 = FactorPartition(1, 1)
P21 = FactorPartition(2, 1)
P22 = FactorPartition(2, 2)
A = Generator(K, 0)
B11 = Generator(L, 0)
MEMBER_MESSAGE = "the excluded word lies in the subgroup; nothing separates it"


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


# --- construction examples ------------------------------------------------------

def test_build_stallings_examples():
    g_empty = build_stallings(P11, [])
    assert g_empty.num_vertices == 1 and not g_empty.edges and g_empty.folded

    g_a = build_stallings(P11, [parse_word("a", P11)])
    assert g_a.num_vertices == 1
    assert g_a.edges == frozenset({(0, 0, 0)})  # a is generator position 0, b is 1

    g = build_stallings(P11, [parse_word("a^2", P11), parse_word("b", P11)])
    assert g.num_vertices == 2
    labels = sorted((s, gen, t) for s, gen, t in g.edges)
    assert (0, 1, 0) in g.edges
    assert len([e for e in labels if e[1] == 0]) == 2


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
        closure = list(product_closure(gens, partition, 5).values())
        if len(closure) > 2000:
            closure = rng.sample(closure, 2000)
        for runs in closure:
            assert membership(graph, runs_word(runs, partition))


def test_closure_runs_are_the_runs_of_their_letters():
    # the oracle joins each product's runs at the seam; letter_runs reads
    # them off the whole letter tuple, and runs_word inverts letters_of
    rng = random.Random(34)
    for _ in range(20):
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        for keep_len in (None, 4):
            for letters, runs in product_closure(gens, partition, 4, keep_len).items():
                assert runs == letter_runs(letters)
                assert letters_of(runs_word(runs, partition), partition) == letters


def test_non_membership_against_pruned_closure():
    # negatives checked against a deep pruned closure used as ground truth
    rng = random.Random(33)
    for _ in range(25):
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition, max_len=3)
        graph = build_stallings(partition, gens)
        closure = product_closure(gens, partition, 10, keep_len=4)
        for _ in range(20):
            w = random_word(rng, partition, rng.randrange(1, 5))
            if membership(graph, w):
                assert trace_word(graph, w) == 0
            else:
                assert letters_of(w, partition) not in closure


def test_membership_power_shortcut_handles_huge_exponents():
    graph = build_stallings(P11, [parse_word("a^2", P11), parse_word("b", P11)])
    assert membership(graph, Word(((A, 2 * 10 ** 40),)))
    assert not membership(graph, Word(((A, 2 * 10 ** 40 + 1),)))


def position_dict_power(mp, v, steps):
    """Reference walk: remember the step of each point's first visit and,
    at the first repeat, shortcut round the cycle it closes."""
    pos = {v: 0}
    cur = v
    i = 0
    while i < steps:
        i += 1
        cur = mp.get(cur)
        if cur is None:
            return None
        if cur in pos:
            cycle_len = i - pos[cur]
            for _ in range((steps - i) % cycle_len):
                cur = mp[cur]
            return cur
        pos[cur] = i
    return cur


def reference_trace(graph, w, start):
    gens = graph.partition.generators()
    fwd = {g: {} for g in gens}
    bwd = {g: {} for g in gens}
    for s, i, t in graph.edges:
        fwd[gens[i]][s] = t
        bwd[gens[i]][t] = s
    v = start
    for g, e in w.runs:
        v = position_dict_power(fwd[g] if e > 0 else bwd[g], v, abs(e))
        if v is None:
            return None
    return v


def test_trace_word_matches_position_dict_walk():
    # runs of +-1, +- the cycle length, +-(20! + k), and random words, from
    # every vertex of seeded folded graphs
    rng = random.Random(42)
    huge = math.factorial(20)
    cycles = left = 0
    for partition in (P11, P22, FactorPartition(13, 13)):
        gens = partition.generators()
        for _ in range(12):
            graph = build_stallings(partition, random_subgroup(rng, partition, 4, 6))
            forward = {}
            for s, i, t in graph.edges:
                forward[s, i] = t
            for v in range(graph.num_vertices):
                for i, g in enumerate(gens):
                    steps = [1] + [huge + k for k in range(-2, 3)]
                    x, n = forward.get((v, i)), 1
                    while x not in (None, v):
                        x, n = forward.get((x, i)), n + 1
                    if x == v:
                        steps.append(n)
                        cycles += 1
                    for e in steps:
                        for w in (Word(((g, e),)), Word(((g, -e),))):
                            assert trace_word(graph, w, v) == reference_trace(graph, w, v)
                for _ in range(4):
                    w = random_word(rng, partition, rng.randrange(1, 12))
                    end = trace_word(graph, w, v)
                    assert end == reference_trace(graph, w, v)
                    left += end is None
    assert cycles and left


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


def rescanning_fold(graph):
    """Reference fold: merge one conflicting pair, rescan every edge, repeat;
    then number vertices by BFS from the basepoint, out-labels first."""
    parent = list(range(graph.num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = set(graph.edges)
    while True:
        far, merge = {}, None
        for s, g, t in edges:
            for key, end in (((s, g, 1), t), ((t, g, -1), s)):
                if merge is None and far.setdefault(key, end) != end:
                    merge = (far[key], end)
        if merge is None:
            break
        parent[max(merge)] = min(merge)
        edges = {(find(s), g, find(t)) for s, g, t in edges}
    number = {find(0): 0}
    queue = [find(0)]
    for v in queue:  # the queue grows while it is read
        for sign in (1, -1):
            for g in range(graph.partition.rank):
                end = far.get((v, g, sign))
                if end is not None and end not in number:
                    number[end] = len(number)
                    queue.append(end)
    renamed = frozenset((number[s], g, number[t]) for s, g, t in edges)
    return StallingsGraph(graph.partition, len(number), renamed, True)


def test_fold_matches_rescanning_reference():
    rng = random.Random(37)
    for _ in range(300):
        partition = rng.choice([P11, P21, P22])
        wedge = loop_wedge(partition, random_subgroup(rng, partition, max_gens=4, max_len=8))
        assert fold(wedge) == rescanning_fold(wedge)
        path = adjoin_word_path(wedge, random_word(rng, partition, rng.randrange(1, 9)))
        assert fold(path) == rescanning_fold(path)


def test_two_parallel_edges_merge():
    # two a-edges leaving the basepoint toward distinct targets
    graph = StallingsGraph(P11, 3, frozenset({(0, 0, 1), (0, 0, 2)}), False)
    folded = fold(graph)
    assert folded.num_vertices == 2
    assert folded.edges == frozenset({(0, 0, 1)})


def test_hand_built_graphs_fold_and_trace_as_named():
    # edges may name vertices past num_vertices, or by any hashable name;
    # a start that no edge names has no edges
    a = parse_word("a", P22)
    graph = StallingsGraph(P22, 2, frozenset({(0, 0, 5), (5, 0, 0)}), True)
    assert [trace_word(graph, a, v) for v in (0, 5, 99, -1)] == [5, 0, None, None]
    assert trace_word(graph, identity(), 99) == 99
    assert fold(graph) == StallingsGraph(P22, 2, frozenset({(0, 0, 1), (1, 0, 0)}), True)
    named = StallingsGraph(P22, 1, frozenset({(0, 0, -1), (-1, 1, "x"), (0, 0, 10 ** 9)}), False)
    assert fold(named) == StallingsGraph(P22, 3, frozenset({(0, 0, 1), (1, 1, 2)}), True)


def test_fold_sizes_its_lists_by_the_named_vertices():
    # a graph that claims 10^9 vertices but names four folds under a
    # 512 MB address space
    code = ("from proficert.separation import StallingsGraph, fold\n"
            "from proficert.words import FactorPartition\n"
            "edges = frozenset({(0, 0, 1), (1, 1, 2), (0, 0, 3)})\n"
            "g = fold(StallingsGraph(FactorPartition(2, 2), 10 ** 9, edges, False))\n"
            "print(g.num_vertices, sorted(g.edges))\n")
    result = run_process(sys.executable, "-c", code, timeout=5, address_space=512 * 2 ** 20)
    assert (result.returncode, result.stdout) == (0, "3 [(0, 0, 1), (1, 1, 2)]\n"), result.stderr


def test_adjoin_word_path_counts():
    graph = build_stallings(P11, [parse_word("b", P11)])
    adjoined = adjoin_word_path(graph, parse_word("a^3", P11))
    assert adjoined.num_vertices == graph.num_vertices + 3
    assert not adjoined.folded


def test_path_letter_cap():
    # every layer that lays a word's letters refuses 10^6 of them
    w = Word(((A, 10 ** 6),))
    for lay in (lambda: build_stallings(P11, [w]),
                lambda: separate_from_subgroup(P11, [], w),
                lambda: loop_wedge(P11, [w])):
        with pytest.raises(CapExceededError, match="^path letter cap "):
            lay()


# --- separation certificates ------------------------------------------------------

def test_separate_from_subgroup_examples():
    # <a> against b: an a-loop at 0 and one b-edge 0 -> 1
    cert = separate_from_subgroup(P11, [parse_word("a", P11)], parse_word("b", P11))
    q = cert.quotient
    assert (q.kind, q.degree) == ("partial", 2)
    assert (q.sources, q.targets) == ({A: (0,), B11: (0,)}, {A: (0,), B11: (1,)})
    assert verify_separation(cert)

    gens = [parse_word("a^2", P11), parse_word("b", P11)]
    cert2 = separate_from_subgroup(P11, gens, parse_word("a", P11))
    completed = separation._completed(cert2.quotient)
    assert completed.image(parse_word("a", P11))(0) != 0
    for g in gens:
        assert completed.image(g)(0) == 0
    assert verify_separation(cert2)


def action_graph(action):
    """The folded graph whose edges are a partial action's pairs."""
    gens = action.partition.generators()
    edges = frozenset((s, i, t) for i, g in enumerate(gens)
                      for s, t in zip(action.sources[g], action.targets[g]))
    return StallingsGraph(action.partition, action.degree, edges, True)


def test_separate_from_subgroup_random_round_trip():
    # oracle: fold the subgroup graph, then fold again with the word's path
    # adjoined; the certificate's pairs are that graph's edges
    rng = random.Random(37)
    done = 0
    while done < 100:
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        graph = build_stallings(partition, gens)
        member = identity()
        for g in rng.sample(gens, len(gens)):
            member = multiply(member, rng.choice([g, invert(g)]))
        with pytest.raises(ValueError) as refused:
            separate_from_subgroup(partition, gens, member)
        assert str(refused.value) == MEMBER_MESSAGE
        w = random_word(rng, partition)
        if membership(graph, w):
            continue
        cert = separate_from_subgroup(partition, gens, w)
        assert cert.witness_kind == WITNESS_BASEPOINT
        result = verify_separation(cert)
        assert result.ok, result.reasons
        assert action_graph(cert.quotient) == fold(adjoin_word_path(graph, w))
        done += 1


def assert_engine_matches_rescanning(partition, gens, w, reference_gens=None):
    """``build_stallings`` and ``separate_from_subgroup`` on ``gens`` against
    the rescanning fold of the laid loops of ``reference_gens`` (default
    ``gens``), a generating set of the same subgroup."""
    wedge = loop_wedge(partition, gens if reference_gens is None else reference_gens)
    assert build_stallings(partition, gens) == rescanning_fold(wedge)
    folded = rescanning_fold(adjoin_word_path(wedge, w))
    if reference_trace(folded, w, 0) == 0:
        with pytest.raises(ValueError) as refused:
            separate_from_subgroup(partition, gens, w)
        assert str(refused.value) == MEMBER_MESSAGE
        return True
    cert = separate_from_subgroup(partition, gens, w)
    assert action_graph(cert.quotient) == folded
    return False


def test_fold_engine_matches_rescanning_reference():
    p13 = FactorPartition(13, 13)
    fixed = [
        (P11, ["a b a^-1"]),                 # not cyclically reduced
        (P11, ["b^-1 a^-4", "b^-1 a^-3"]),   # reads back into the first loop
        (P11, ["a b^-1", "a^-1"]),           # a merge moves the basepoint
        (P11, ["1", "a b", "1", "a b"]),     # identity and duplicate generators
        (P22, ["b^-1 a b", "d", "a b"]),     # a merge moves a vertex with a loop
        (P22, ["a c^-1 a^-1", "a c^2 a^-1", "d b d^-1"]),
    ]
    members = cases = 0
    for partition, texts in fixed:
        gens = [parse_word(t, partition) for t in texts]
        for w in ["a", "b", "a b a^-1", "b^-1 a^-1", "a^4", "b a^-7 b^-1"]:
            members += assert_engine_matches_rescanning(partition, gens, parse_word(w, partition))
            cases += 1
    rng = random.Random(38)
    for _ in range(300):
        partition = rng.choice([P11, P22, p13])
        gens = random_subgroup(rng, partition, max_gens=4, max_len=8)
        gens += [identity()] * rng.randrange(2) + rng.sample(gens, rng.randrange(len(gens) + 1))
        w = random_word(rng, partition, rng.randrange(1, 9))
        members += assert_engine_matches_rescanning(partition, gens, w)
        cases += 1
    for n in range(2, 41):
        gens = [parse_word(f"a^{n}", P22), parse_word(f"a^{n - 1}", P22)]
        w = random_word(rng, P22, 8)
        members += assert_engine_matches_rescanning(P22, gens, w)
        cases += 1
    assert min(members, cases - members) > 30, (members, cases)


def dict_numbering(maps, root):
    """Canonical vertex numbers of dict label maps, in a dict ordered by
    them: breadth first from ``root``, out-labels in generator order, then
    in-labels; with dict_rows and complete_to_permutation, the reference
    for the engine's canonical pass."""
    number = {root: 0}
    queue = [root]
    for v in queue:  # the queue grows while it is read
        for mp in maps:
            x = mp.get(v)
            if x is not None and x not in number:
                number[x] = len(number)
                queue.append(x)
    return number


def dict_rows(maps, number, rank):
    """For each generator, the number of each numbered vertex's far end,
    or None where the vertex has no such edge."""
    order = list(number)
    return [list(map(number.get, map(mp.get, order))) for mp in maps[:rank]]


def dict_pipeline(folding):
    """The folded graph of a folding engine, read off dict copies of its
    label lists by the dict-based clean-up."""
    partition = folding.partition
    maps = [{v: x for v, x in enumerate(mp) if x is not None} for mp in folding.maps]
    rows = dict_rows(maps, dict_numbering(maps, folding.find(0)), partition.rank)
    edges = frozenset((s, i, t) for i, row in enumerate(rows)
                      for s, t in enumerate(row) if t is not None)
    return StallingsGraph(partition, len(rows[0]), edges, True)


def assert_canonical_pass_matches_dicts(partition, gens, w):
    """The engine's graphs and a certificate's pairs equal the dict-based
    clean-up's, before and after the path of ``w`` is added; returns whether
    the path ended on a fresh vertex, or None for a member."""
    folding = separation._fold_loops(partition, gens)
    graph = dict_pipeline(folding)
    assert build_stallings(partition, gens) == folding.graph() == graph
    laid = folding.num_vertices
    end = folding.add_word(separation._letter_runs(partition, w), closed=False)
    graph = dict_pipeline(folding)
    assert folding.graph() == graph
    separate = separate_from_identity if not gens else separate_from_subgroup
    args = (partition, w) if not gens else (partition, gens, w)
    if end == folding.find(0):
        with pytest.raises(ValueError, match=MEMBER_MESSAGE):
            separate(*args)
        return None
    cert = separate(*args)
    assert cert.witness_kind == WITNESS_BASEPOINT
    assert action_graph(cert.quotient) == graph
    return end >= laid


def test_canonical_pass_matches_dict_pipeline():
    # excluded words whose path ends on a fresh vertex, on one the subgroup
    # graph had, and members
    rng = random.Random(40)
    ends = []
    for partition in (P11, P22, FactorPartition(13, 13)):
        for _ in range(60):
            gens = random_subgroup(rng, partition, max_gens=4, max_len=12)
            if not gens:
                continue
            past_a_loop = multiply(rng.choice(gens), random_word(rng, partition, 2))
            for w in (random_word(rng, partition, rng.randrange(1, 9)), past_a_loop, gens[0]):
                ends.append(assert_canonical_pass_matches_dicts(partition, gens, w))
    for n in (2, 400, 50000):
        gens = [parse_word(f"a^{n}", P22), parse_word(f"a^{n - 1}", P22)]
        for w in ("b a", "a^-3"):
            ends.append(assert_canonical_pass_matches_dicts(P22, gens, parse_word(w, P22)))
    # the trivial subgroup: separate_from_identity falls back to a path
    # graph for words of zero exponent sums
    for partition in (P11, P22):
        for w in ("a b a^-1 b^-1", "b^2 a^-1 b^-2 a", "a b a^-1 b a b^-1 a^-1 b^-1"):
            ends.append(assert_canonical_pass_matches_dicts(partition, [], parse_word(w, partition)))
    counts = [ends.count(kind) for kind in (True, False, None)]
    assert min(counts) > 20, counts


def test_fold_engine_on_many_conjugates():
    # 3,000 conjugates u w u^-1 of one 30-letter word, with |u| <= 2, fold
    # as their distinct members do under the rescanning reference
    rng = random.Random(39)
    base = random_word(rng, P22, 30)
    conjugates = []
    for _ in range(3000):
        u = random_word(rng, P22, rng.randrange(3))
        conjugates.append(multiply(multiply(u, base), invert(u)))
    distinct = sorted(set(conjugates), key=conjugates.index)
    assert len(distinct) < 100
    w = random_word(rng, P22, 6)
    assert not assert_engine_matches_rescanning(P22, conjugates, w, reference_gens=distinct)


def test_fold_engine_on_long_merges():
    # <a^n, a^(n-1)> = <a> folds to one vertex with an a-loop at any size
    for n in (400, 50000):
        gens = [parse_word(f"a^{n}", P22), parse_word(f"a^{n - 1}", P22)]
        assert build_stallings(P22, gens) == StallingsGraph(P22, 1, frozenset({(0, 0, 0)}), True)
        cert = separate_from_subgroup(P22, gens, parse_word("b", P22))
        assert cert.quotient.degree == 2
        assert verify_separation(cert)


def test_separation_folds_once(monkeypatch):
    # one folding engine per certificate: the word's path is added to the
    # folded subgroup loops
    calls = []

    class CountingFolding(separation._Folding):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

    monkeypatch.setattr(separation, "_Folding", CountingFolding)
    w = parse_word("a b a^-1 b^-1", P11)
    separate_from_subgroup(P11, [parse_word("a^2", P11)], w)
    assert len(calls) == 1
    calls.clear()
    separate_from_identity(P11, w)
    assert len(calls) == 1


def test_each_image_is_checked_once_where_it_enters(monkeypatch):
    # built maps are injective by construction and go unchecked; a file's
    # pairs are checked once, on load, and the verifier reads injectivity
    # off the label maps it walks without calling _check_partial; a caller's
    # images are checked once in make_permutation_quotient; an abelian
    # witness has no image to check
    checked = []
    check, check_partial = quotients._check_permutation, separation._check_partial
    verify = separation.verify_separation

    def counting_check(values, degree, where):
        checked.append(where)
        return check(values, degree, where)

    def counting_partial(triples, degree, prefix):
        checked.append((prefix, [x for x, _, _ in triples]))
        return check_partial(triples, degree, prefix)

    def counting_verify(cert):
        checked.append("verify")
        return verify(cert)

    monkeypatch.setattr(quotients, "_check_permutation", counting_check)
    monkeypatch.setattr(separation, "_check_partial", counting_partial)
    monkeypatch.setattr(separation, "verify_separation", counting_verify)
    letters = [P22.letter(g) for g in P22.generators()]
    on_load = ("certificate.quotient.", letters)
    gens = [parse_word("a^2 c", P22), parse_word("b d^-1 b", P22)]
    cert = separate_from_subgroup(P22, gens, parse_word("a b c d", P22))
    assert checked == []
    loaded = separation_from_obj(separation_to_obj(cert))
    assert checked == [on_load]
    checked.clear()
    assert verify_separation(loaded)
    assert checked == []
    # every separation of a seed-1 `hall` round: one check as it loads,
    # none while it verifies
    cases, tracing = load("cases"), load("tracing")
    ops = cases.make_cases("hall", 1)
    for op in ops:
        assert op.run({}, tracing.NullTracer(), lambda: 0.0).verdict_ok, op.label
    round_trips = sum(isinstance(op, cases.RoundTrip) for op in ops)
    assert round_trips == 28 and checked == [on_load, "verify"] * round_trips
    checked.clear()
    cert = separate_from_identity(P22, parse_word("a b c^2", P22))
    assert cert.quotient.kind == "abelian"
    assert verify_separation(separation_from_obj(separation_to_obj(cert)))
    assert checked == []
    cert = separate_from_identity(P22, parse_word("a b a^-1 b^-1 c d c^-1 d^-1", P22))
    completed = separation._completed(cert.quotient)
    assert cert.quotient.kind == "partial" and checked == []
    make_permutation_quotient(P22, {g: list(p.mapping) for g, p in completed.images.items()})
    assert checked == [f"images[{x}]" for x in letters]


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
    assert (cert.quotient.kind, cert.witness_kind) == ("partial", WITNESS_BASEPOINT)
    assert separation._completed(cert.quotient).image(w)(0) != 0
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
        q = cert.quotient
        assert not (separation._completed(q) if q.kind == "partial" else q).in_kernel(w)


# --- corruption and verification ----------------------------------------------------

def test_verify_rejects_excluded_in_subgroup():
    gens = [parse_word("a", P11)]
    cert = separate_from_subgroup(P11, gens, parse_word("b", P11))
    bad = SeparationCertificate(P11, cert.quotient, cert.subgroup_gens,
                                parse_word("a", P11), cert.witness_kind)
    result = verify_separation(bad)
    assert not result.ok
    assert any("basepoint" in r for r in result.reasons)


def test_verify_separation_traces_the_basepoint_without_images(monkeypatch):
    # a basepoint witness is checked on point 0 alone: no word's whole
    # image is composed, and the hostile edits keep their reasons
    rng = random.Random(41)
    certs = []
    while len(certs) < 20:
        partition = rng.choice([P11, P22])
        gens = random_subgroup(rng, partition)
        w = random_word(rng, partition, rng.randrange(1, 9))
        if not membership(build_stallings(partition, gens), w):
            certs.append(separate_from_subgroup(partition, gens, w))
    gens = [parse_word("a^2", P11), parse_word("b a b^-1", P11)]
    cert = separate_from_subgroup(P11, gens, parse_word("a b", P11))
    certs.append(cert)
    big = Word(((A, 2 * math.factorial(20)),))  # in the subgroup: fixes point 0

    def no_image(self, w):
        raise AssertionError("verify_separation composed a whole image")

    monkeypatch.setattr(quotients.FiniteQuotient, "image", no_image)
    for c in certs:
        result = verify_separation(c)
        assert result.ok, result.reasons
    moved = SeparationCertificate(P11, cert.quotient,
                                  cert.subgroup_gens + (multiply(big, cert.excluded),),
                                  cert.excluded, WITNESS_BASEPOINT)
    assert verify_separation(moved).reasons == ("subgroup generator 2 moves the basepoint",)
    fixed = SeparationCertificate(P11, cert.quotient, cert.subgroup_gens,
                                  multiply(big, gens[1]), WITNESS_BASEPOINT)
    assert verify_separation(fixed).reasons == ("excluded word fixes the basepoint",)


def test_rounds_verify_without_reading_a_permutation_image(monkeypatch):
    # every separation certificate of a `hall` round and every head of a
    # `factorial` round, as loaded, verifies with no image composed and no
    # permutation checked, and each is refused once its excluded word is
    # the identity or joins the subgroup generators
    cases, tracing = load("cases"), load("tracing")
    certs = []
    for workload in ("hall", "factorial"):
        for op in cases.make_cases(workload, 1):
            if isinstance(op, cases.RoundTrip) and op.verify[1] != "verify_ex1_witness":
                cert = op.build(tracing.NullTracer())
                for c in getattr(cert, "head_certificates", (cert,)):
                    certs.append(separation_from_obj(json.loads(emit_certificate(c))))
    kinds = {c.quotient.kind for c in certs}
    assert len(certs) > 1000 and kinds == {"partial", "abelian"}

    def refuse(*args):
        raise AssertionError("verify_separation read a permutation image")

    monkeypatch.setattr(quotients.FiniteQuotient, "image", refuse)
    monkeypatch.setattr(quotients, "_check_permutation", refuse)
    for c in certs:
        result = verify_separation(c)
        assert result.ok, result.reasons
        assert not verify_separation(c._replace(excluded=identity())).ok
        assert not verify_separation(c._replace(subgroup_gens=(*c.subgroup_gens, c.excluded))).ok


def test_the_writer_emits_only_what_the_loader_accepts():
    # every reduced word of length <= 4 over 1+1, and a product of two
    # commutators over 2+2: each separation from the identity, and each head
    # of a separation from S, carries its quotient kind's one witness,
    # loads, verifies and emits the same bytes again
    letters = [parse_word(x, P11) for x in ("a", "a^-1", "b", "b^-1")]
    words = {reduce(run for x in spelled for run in x.runs)
             for n in range(1, 5) for spelled in itertools.product(letters, repeat=n)}
    words.discard(identity())
    assert len(words) == 160
    certs = [separate_from_identity(P11, w) for w in words]
    certs.append(separate_from_identity(
        P22, parse_word("a b a^-1 b^-1 c d c^-1 d^-1", P22)))
    for w in words:
        if w not in (parse_word("a", P11), parse_word("a^2", P11)):  # s_1 and s_2
            certs += separate_from_S(w).head_certificates
    assert {c.quotient.kind for c in certs} == {"partial", "abelian"}
    for cert in certs:
        assert WITNESS_OF[cert.quotient.kind] == cert.witness_kind
        text = emit_certificate(cert)
        loaded = separation_from_obj(json.loads(text))
        assert verify_separation(loaded).ok
        assert emit_certificate(loaded) == text


# --- partial actions -----------------------------------------------------------------

# SHA-256 of the joined texts of Hall certificates as written before they
# were partial actions, when every generator's pairs were completed to a
# permutation, and in the indented layout: each RoundTrip of a seed's
# `hall` benchmark round, and the separations of differential_inputs().
COMPLETED_HALL_DIGESTS = {
    1: "ab8f0150b8cfbc8c919bcfdba79e32c3b5320dc024f294c665a4fff23b8995c8",
    2: "e384b811873fc4b285995b485b3fda4347e1c9aac74955135bf07d7a284f4054",
    3: "44f5edd8c6ab0774ea4433d582539cdc399dfb19f8ef74e0c9970a96dbe526fe",
}
COMPLETED_RANDOM_DIGEST = "e4df6c2e962875cde235443b9e9a3ea4bcaa4c05196aaf0c2ab02bc9b8874285"


def differential_inputs(count=100):
    """Seeded (partition, generators, non-member) triples."""
    rng = random.Random(2026)
    while count:
        partition = rng.choice([P11, P22, FactorPartition(13, 13)])
        gens = random_subgroup(rng, partition, max_gens=4, max_len=12)
        w = random_word(rng, partition, rng.randrange(1, 12))
        if gens and not membership(build_stallings(partition, gens), w):
            count -= 1
            yield partition, gens, w


def assert_completion_is_the_old_certificate(certs, digest):
    """Each partial certificate verifies, and its completion is a quotient
    in which each subgroup generator fixes point 0 while the excluded word
    moves it; written as permutation certificates, the completions hash to
    ``digest``: the partial witness is the defined part of the completed
    one."""
    texts = []
    for cert in certs:
        assert cert.quotient.kind == "partial"
        assert verify_separation(cert).ok
        completed = separation._completed(cert.quotient)
        assert [completed.image(g)(0) for g in cert.subgroup_gens] == [0] * len(cert.subgroup_gens)
        assert completed.image(cert.excluded)(0) != 0
        texts.append(emit_certificate(cert._replace(quotient=completed)))
    assert indented_digest(*texts) == digest


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_completed_hall_round_emits_the_permutation_certificates(seed):
    cases, tracing = load("cases"), load("tracing")
    builds = [op.build for op in cases.make_cases("hall", seed) if isinstance(op, cases.RoundTrip)]
    assert len(builds) == 28
    certs = [build(tracing.NullTracer()) for build in builds]
    assert_completion_is_the_old_certificate(certs, COMPLETED_HALL_DIGESTS[seed])


def test_completed_random_separations_emit_the_permutation_certificates():
    certs = [separate_from_subgroup(*args) for args in differential_inputs()]
    assert_completion_is_the_old_certificate(certs, COMPLETED_RANDOM_DIGEST)


def edited_separation(text, **quotient):
    """A separation certificate's JSON with fields of its quotient replaced."""
    obj = json.loads(text)
    obj["quotient"].update(quotient)
    return obj


def test_verify_rejects_tampered_partial_actions():
    # <a^2, b> against a: a swaps 0 and 1, b fixes 0
    text = emit_certificate(separate_from_subgroup(
        P11, [parse_word("a^2", P11), parse_word("b", P11)], parse_word("a", P11)))
    assert json.loads(text)["quotient"] == {
        "kind": "partial", "degree": 2, "sources": {"a": [0, 1], "b": [0]},
        "targets": {"a": [1, 0], "b": [0]}}
    edits = [
        # b's edge retargeted: generator 1 misses 0
        ({"targets": {"a": [1, 0], "b": [1]}}, ["subgroup generator 1 moves the basepoint"]),
        # a's edges retargeted into a loop at 0: the excluded word ends at 0
        ({"sources": {"a": [0], "b": [0]}, "targets": {"a": [0], "b": [0]}, "degree": 1},
         ["excluded word fixes the basepoint"]),
        # a's edge out of 0 dropped: a^2 and the excluded word fall off the maps
        ({"sources": {"a": [1], "b": [0]}, "targets": {"a": [0], "b": [0]}},
         ["subgroup generator 0 leaves the partial action",
          "excluded word leaves the partial action"]),
    ]
    for edit, reasons in edits:
        cert = separation_from_obj(edited_separation(text, **edit))
        assert verify_separation(cert).reasons == tuple(reasons)
    # a partial action is no quotient whose kernel an image witness reads
    cert = separation_from_obj(json.loads(text))._replace(witness_kind=WITNESS_IMAGE)
    assert verify_separation(cert).reasons == (
        "a partial action witnesses only 'basepoint-moved'",)


def test_verify_rejects_partial_actions_without_an_edge_on_a_walk():
    # the first edge of a walk from 0 dropped from random certificates: that
    # walk leaves the pairs at once
    rng = random.Random(43)
    dropped = 0
    for partition, gens, w in differential_inputs(40):
        cert = separate_from_subgroup(partition, gens, w)
        i = rng.randrange(len(gens) + 1)
        word = gens[i] if i < len(gens) else w
        if word.is_identity():
            continue
        g, e = word.runs[0]
        action = cert.quotient
        pairs = list(zip(action.sources[g], action.targets[g]))
        pairs.remove(next(pair for pair in pairs if pair[0 if e > 0 else 1] == 0))
        edited = action._replace(sources={**action.sources, g: tuple(s for s, _ in pairs)},
                                 targets={**action.targets, g: tuple(t for _, t in pairs)})
        reasons = verify_separation(cert._replace(quotient=edited)).reasons
        which = f"subgroup generator {i}" if i < len(gens) else "excluded word"
        assert f"{which} leaves the partial action" in reasons, reasons
        dropped += 1
    assert dropped > 30


def test_verify_refuses_in_process_actions_that_are_not_partial_injections():
    # the verifier checks no schema, only what its walks need: each
    # generator's pairs a partial injection of hashable points; anything
    # else is a reason, never an exception
    cert = separate_from_subgroup(P11, [parse_word("a^2", P11), parse_word("b", P11)],
                                  parse_word("a", P11))
    action = cert.quotient  # a swaps 0 and 1, b fixes 0
    not_injective = ("sources.a, targets.a: not a partial injection",)
    not_points = ("sources.a, targets.a: expected lists of hashable points",)
    edits = [
        ((0, 0, 1), (1, 1, 0), not_injective),  # a repeated source, same target
        ((0, 0, 1), (1, 2, 0), not_injective),  # a repeated source, another target
        ((0, 1), (1, 1), not_injective),  # a repeated target
        ((0, 1), (1,), not_injective),  # unequal lengths
        ((0,), (1, 0), not_injective),
        (None, (1, 0), not_points),  # a missing generator
        ((0, 1), None, not_points),
        ((0, [1]), (1, 0), not_points),  # an unhashable point
        ((0, 1), ({1}, 0), not_points),
    ]
    for sources, targets, reasons in edits:
        edited = action._replace(
            sources={g: p for g, p in {**action.sources, A: sources}.items() if p is not None},
            targets={g: p for g, p in {**action.targets, A: targets}.items() if p is not None})
        assert verify_separation(cert._replace(quotient=edited)).reasons == reasons, edited
    # the degree is checked where a file loads; the walks do not read it
    assert verify_separation(cert._replace(quotient=action._replace(degree=10 ** 12)))


class _EqualsAll:
    """A hashable point that compares equal to anything."""

    def __eq__(self, other):
        return True

    __hash__ = object.__hash__


def partial_certificate(sources, targets, gens, excluded):
    """An in-process Hall certificate on ``P11`` with the given pairs."""
    action = separation.PartialAction(P11, 2, {A: sources[0], B11: sources[1]},
                                      {A: targets[0], B11: targets[1]})
    return SeparationCertificate(P11, action, tuple(parse_word(g, P11) for g in gens),
                                 parse_word(excluded, P11), WITNESS_BASEPOINT)


@pytest.mark.parametrize("point", [_EqualsAll(), True, 1.0, float("nan")])
def test_verify_refuses_points_that_are_not_ints(point):
    # a: 0 -> point, b: 0 -> 1 as a witness that b avoids <a>: a point that
    # equals 0 would close a's walk, so any point not an int is a reason
    cert = partial_certificate(((0,), (0,)), ((point,), (1,)), ["a"], "b")
    assert verify_separation(cert).reasons == (
        "sources.a, targets.a: expected lists of int points",)


def test_verify_refuses_a_nan_cycle_at_once():
    # a: 1 -> nan -> 1 and b: 0 -> nan; nan equals nothing, itself included,
    # so a walk of a^(10^18) from nan would never see its cycle close
    nan = float("nan")
    cert = partial_certificate(((1, nan), (0,)), ((nan, 1), (nan,)), [], f"b a^{10 ** 18}")
    started = time.perf_counter()
    reasons = verify_separation(cert).reasons
    assert time.perf_counter() - started < 0.1
    assert reasons == ("sources.a, targets.a: expected lists of int points",
                       "sources.b, targets.b: expected lists of int points")


def test_verify_refuses_actions_with_an_edge_redirected():
    # one edge of random certificates redirected onto another target of the
    # same generator: the generator's pairs are no longer a partial
    # injection, and that is the one reason given
    rng = random.Random(44)
    redirected = 0
    for partition, gens, w in differential_inputs(40):
        cert = separate_from_subgroup(partition, gens, w)
        action = cert.quotient
        movable = [g for g in partition.generators() if len(action.targets[g]) > 1]
        if not movable:
            continue
        g = rng.choice(movable)
        i, j = rng.sample(range(len(action.targets[g])), 2)
        targets = list(action.targets[g])
        targets[i] = targets[j]
        edited = action._replace(targets={**action.targets, g: tuple(targets)})
        x = partition.letter(g)
        assert verify_separation(cert._replace(quotient=edited)).reasons == (
            f"sources.{x}, targets.{x}: not a partial injection",)
        redirected += 1
    assert redirected > 30


@pytest.mark.parametrize("edit, message", [
    ({"degree": 10 ** 12, "sources": {"a": [], "b": []}, "targets": {"a": [], "b": []}},
     "quotient.degree: expected 1, one past the largest point"),
    ({"targets": {"a": [1, 1], "b": [0]}}, "quotient.targets.a: not injective"),
    ({"sources": {"a": [1, 0], "b": [0]}}, "quotient.sources.a: not strictly ascending"),
    ({"sources": {"a": [0, 0], "b": [0]}}, "quotient.sources.a: not strictly ascending"),
    ({"targets": {"a": [1, 2], "b": [0]}}, "quotient.degree: expected 3"),
    ({"targets": {"a": [1, -1], "b": [0]}}, "quotient.targets.a: expected a list of points"),
    ({"targets": {"a": [True, 0], "b": [0]}}, "quotient.targets.a: expected a list of points"),
    ({"targets": {"a": [1.0, 0], "b": [0]}}, "quotient.targets.a: expected a list of points"),
    ({"targets": {"a": [1], "b": [0]}}, "quotient.targets.a: expected 2 points"),
    ({"sources": {"a": [0, 1]}}, "quotient.sources.b: missing field"),
    ({"targets": {"a": [1, 0], "b": [0], "z": []}}, "quotient.targets.z: unknown field"),
    ({"witness_kind": "image-differs"}, "witness_kind: a partial action witnesses only"),
    # other quotient kinds are refused by their kind field before they are read
    ({"quotient": {"kind": "perm", "degree": 10 ** 12, "images": {"a": [], "b": []}}},
     "quotient.kind: expected 'partial' or 'abelian', got 'perm'"),
    ({"quotient": {"kind": "perm", "degree": 2, "images": {"a": [1, 0], "b": [0, 1]}}},
     "quotient.kind: expected 'partial' or 'abelian', got 'perm'"),
    ({"quotient": {"kind": "abelian", "modulus": 2}},
     "witness_kind: an abelian quotient witnesses only 'image-differs', "
     "got 'basepoint-moved'"),
    ({"tail_head": "b a b^-1"},
     "head_certificates[0].quotient.kind: expected 'partial' or 'abelian', got 'perm'"),
])
def test_hostile_partial_files_are_refused_within_bounds(tmp_path, edit, message):
    # each file loads in a 512 MB address space and is refused as a schema
    # error: nothing is sized by the declared degree
    text = emit_certificate(separate_from_subgroup(
        P11, [parse_word("a^2", P11), parse_word("b", P11)], parse_word("a", P11)))
    kind = edit.pop("witness_kind", None)
    quotient = edit.pop("quotient", None)
    target = edit.pop("tail_head", None)
    obj = edited_separation(text, **edit)
    if kind is not None:
        obj["witness_kind"] = kind
    if quotient is not None:
        obj["quotient"] = quotient
    if target is not None:
        # a tail whose commutator head is written as its completed
        # permutations, as tails were before such heads were partial
        tail = separate_from_S(parse_word(target, P11))
        obj = ex1_tail_to_obj(tail)
        obj["head_certificates"][0]["quotient"] = quotients.quotient_to_obj(
            separation._completed(tail.head_certificates[0].quotient))
    path = tmp_path / "partial.json"
    path.write_text(canonical_json(obj))
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=5, address_space=512 * 2 ** 20)
    assert (result.returncode, result.stdout) == (2, "")
    assert message in result.stderr and "Traceback" not in result.stderr


def test_verify_rejects_abelian_moduli_below_two():
    # an image witness is read off the modulus alone, which must be an
    # integer >= 2: anything else is a reason, not a crash
    cert = separate_from_identity(P11, parse_word("a", P11))
    images = cert.quotient.images
    for modulus in (0, 1, True):
        bad = cert._replace(quotient=quotients.FiniteQuotient(P11, images, modulus=modulus))
        assert verify_separation(bad).reasons == (
            f"modulus: expected an integer >= 2, got {modulus!r}",)


def test_verify_rejects_unknown_witness_kind():
    cert = separate_from_identity(P11, parse_word("a", P11))
    wrong = ("an abelian quotient witnesses only 'image-differs'",)
    for kind in ("telepathy", WITNESS_BASEPOINT):
        assert verify_separation(cert._replace(witness_kind=kind)).reasons == wrong
    # a permutation quotient witnesses nothing: its images are never read
    swap = make_permutation_quotient(P11, {A: (1, 0), B11: (0, 1)})
    for kind in (WITNESS_BASEPOINT, WITNESS_IMAGE):
        bad = SeparationCertificate(P11, swap, (), cert.excluded, kind)
        assert verify_separation(bad).reasons == (
            "quotient kind 'perm': expected 'partial' or 'abelian'",)


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
