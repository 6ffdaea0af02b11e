"""Subgroup graphs, folding, and finite-quotient separation certificates.

A finitely generated subgroup is represented by its folded based graph
(vertices 0..v-1, basepoint 0, edges labeled by generators).  Folding the
wedge of generator loops, in one worklist pass with union-find where each
merge touches only the half-edges of the smaller side, yields an exact
membership test; completing the folded graph's partial injections to
permutations yields a finite quotient in which the subgroup fixes the
basepoint while a chosen excluded word moves it — an effective form of the
classical closedness of finitely generated subgroups in the profinite
topology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceededError, SchemaError
from .quotients import (
    FiniteQuotient,
    Permutation,
    _check_keys,
    _check_permutation,
    make_abelian_quotient,
    make_permutation_quotient,
    quotient_from_obj,
    quotient_to_obj,
)
from .words import FactorPartition, Word, exponent_sum, format_word, parse_word, word_length

MAX_PATH_LETTERS = 10 ** 5

WITNESS_BASEPOINT = "basepoint-moved"
WITNESS_IMAGE = "image-differs"
WITNESS_KINDS = (WITNESS_BASEPOINT, WITNESS_IMAGE)

_MEMBER_MESSAGE = "the excluded word lies in the subgroup; nothing separates it"


@dataclass(frozen=True)
class StallingsGraph:
    """A based labeled graph; basepoint is vertex 0.

    ``edges`` holds (source, generator, target) triples read positively.
    ``folded`` records that no vertex carries two equal-labeled outgoing
    (or incoming) edges, i.e. every label acts as a partial injection.
    """

    partition: FactorPartition
    num_vertices: int
    edges: frozenset
    folded: bool


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a from-scratch verification, with human-readable reasons."""

    ok: bool
    reasons: tuple

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class SeparationCertificate:
    """A finite quotient witnessing that ``excluded`` avoids the subgroup.

    With witness kind "basepoint-moved" every subgroup generator's image
    fixes point 0 while the excluded word's image moves it; with
    "image-differs" the subgroup generators land in the kernel while the
    excluded word does not.
    """

    partition: FactorPartition
    quotient: FiniteQuotient
    subgroup_gens: tuple
    excluded: Word
    witness_kind: str


def _letters(w: Word, cap=MAX_PATH_LETTERS):
    """Expand a word to single letters (generator, +-1); cap-guarded."""
    if word_length(w) > cap:
        raise CapExceededError(cap, "letter expansion of a long word", "path letter cap")
    for g, e in w.runs:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            yield g, step


def _lay_word(partition: FactorPartition, edges: set, nv: int, w: Word, closed: bool) -> int:
    """Add the path of ``w`` from the basepoint to ``edges`` on fresh
    vertices numbered from ``nv``; a ``closed`` path ends back at the
    basepoint.  Returns the new vertex count."""
    for g, _ in w.runs:
        partition.check(g)
    last = word_length(w) if closed else 0
    prev = 0
    for i, (g, step) in enumerate(_letters(w), 1):
        if i == last:
            nxt = 0
        else:
            nxt = nv
            nv += 1
        edges.add((prev, g, nxt) if step > 0 else (nxt, g, prev))
        prev = nxt
    return nv


def loop_wedge(partition: FactorPartition, gens) -> StallingsGraph:
    """Unfolded wedge of one loop per generator word, all based at 0."""
    edges = set()
    nv = 1
    for w in gens:
        nv = _lay_word(partition, edges, nv, w, closed=True)
    return StallingsGraph(partition, nv, frozenset(edges), False)


def adjoin_word_path(graph: StallingsGraph, w: Word) -> StallingsGraph:
    """Hang the path of ``w`` off the basepoint with all-fresh vertices.

    The result is unfolded; folding merges the path into the graph while
    keeping the path's endpoint distinguishable from the basepoint exactly
    when ``w`` is outside the subgroup.
    """
    edges = set(graph.edges)
    nv = _lay_word(graph.partition, edges, graph.num_vertices, w, closed=False)
    return StallingsGraph(graph.partition, nv, frozenset(edges), False)


def fold(graph: StallingsGraph) -> StallingsGraph:
    """Fold to partial injections and renumber canonically.

    A worklist holds each edge once as two half-edges ``(v, label, w)``:
    label ``i`` reads generator ``i`` forward, label ``rank + i`` reads it
    backward.  Every vertex keeps one far end per label; a half-edge that
    meets a different far end merges the two ends (union-find), and the
    side with fewer half-edges pushes its own back onto the survivor, so no
    edge is rescanned.  The result is independent of merge order, and one
    BFS from the basepoint (out-labels in generator order, then in-labels)
    renumbers it, so equality of folded graphs coincides with based
    labeled-graph isomorphism.
    """
    gens = graph.partition.generators()
    rank = len(gens)
    label = {g: i for i, g in enumerate(gens)}
    parent = list(range(graph.num_vertices))
    ends = [{} for _ in parent]  # vertex -> {label: far end, maybe not a root}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = []
    for s, g, t in graph.edges:
        work.append((s, label[g], t))
        work.append((t, label[g] + rank, s))
    while work:
        v, lab, w = work.pop()
        v, w = find(v), find(w)
        u = find(ends[v].setdefault(lab, w))
        if u != w:
            if len(ends[u]) < len(ends[w]):
                u, w = w, u
            parent[w] = u
            work.extend((u, k, x) for k, x in ends[w].items())
            ends[w] = None

    root = find(0)
    number = {root: 0}
    queue = deque([root])
    edges = []
    while queue:
        v = queue.popleft()
        for lab, x in sorted(ends[v].items()):
            x = find(x)
            if x not in number:
                number[x] = len(number)
                queue.append(x)
            if lab < rank:
                edges.append((number[v], gens[lab], number[x]))
    return StallingsGraph(graph.partition, len(number), frozenset(edges), True)


def build_stallings(partition: FactorPartition, gens) -> StallingsGraph:
    """Folded based graph of the subgroup generated by the given words."""
    return fold(loop_wedge(partition, gens))


@lru_cache(maxsize=256)
def _transitions(graph: StallingsGraph):
    fwd = {}
    bwd = {}
    for s, g, t in graph.edges:
        fwd.setdefault(g, {})[s] = t
        bwd.setdefault(g, {})[t] = s
    return fwd, bwd


def _apply_power(mp: dict, v: int, steps: int):
    """Apply a partial injection ``steps`` times; huge step counts shortcut
    around the cycle the trajectory eventually enters."""
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


def trace_word(graph: StallingsGraph, w: Word, start=0):
    """Endpoint of reading ``w`` from ``start``, or None if it leaves the graph."""
    if not graph.folded:
        raise ValueError("tracing requires a folded graph")
    fwd, bwd = _transitions(graph)
    v = start
    for g, e in w.runs:
        mp = fwd.get(g, {}) if e > 0 else bwd.get(g, {})
        v = _apply_power(mp, v, abs(e))
        if v is None:
            return None
    return v


def membership(graph: StallingsGraph, w: Word) -> bool:
    """Exact subgroup membership via the folded graph."""
    return trace_word(graph, w) == 0


def _complete_to_permutation(mp: dict, nv: int) -> Permutation:
    """Extend a partial injection to a permutation, pairing unmatched
    sources with unmatched targets in ascending vertex order."""
    mapping = [None] * nv
    for s, t in mp.items():
        mapping[s] = t
    hit = set(mp.values())
    free_targets = [v for v in range(nv) if v not in hit]
    idx = 0
    for v in range(nv):
        if mapping[v] is None:
            mapping[v] = free_targets[idx]
            idx += 1
    return Permutation(tuple(mapping))


def separate_from_subgroup(partition: FactorPartition, gens, w: Word,
                           enumeration_cap=None) -> SeparationCertificate:
    """Certificate that ``w`` lies outside the subgroup ``<gens>``.

    One fold of the generator loops with the word's path hung off the
    basepoint: the path adds a tree, so the folded graph still carries
    ``<gens>`` at the basepoint, and ``w`` is a member exactly when its
    path ends there.  Otherwise the folded action tells the basepoint's
    orbit under ``w`` apart, and completing each label's partial injection
    to a permutation gives a quotient of degree equal to the folded graph's
    vertex count.  A word longer than ``MAX_PATH_LETTERS`` letters is first
    traced by runs on the subgroup's own folded graph, so that a member is
    refused as a member; a non-member that long cannot have its path laid
    and raises :class:`CapExceededError`.
    """
    if word_length(w) > MAX_PATH_LETTERS and membership(build_stallings(partition, gens), w):
        raise ValueError(_MEMBER_MESSAGE)
    folded = fold(adjoin_word_path(loop_wedge(partition, gens), w))
    if membership(folded, w):
        raise ValueError(_MEMBER_MESSAGE)
    fwd, _ = _transitions(folded)
    images = {g: _complete_to_permutation(fwd.get(g, {}), folded.num_vertices)
              for g in partition.generators()}
    quotient = make_permutation_quotient(partition, images, enumeration_cap=enumeration_cap)
    return SeparationCertificate(partition, quotient, tuple(gens), w, WITNESS_BASEPOINT)


def separate_from_identity(partition: FactorPartition, w: Word,
                           enumeration_cap=None) -> SeparationCertificate:
    """Certificate that a nontrivial word survives in some finite quotient.

    Words with a nonzero exponent sum get the smallest abelian modulus that
    sees it; words in the commutator subgroup fall back to the path-graph
    permutation quotient from :func:`separate_from_subgroup`.
    """
    if w.is_identity():
        raise ValueError("cannot separate the identity from itself")
    sums = [(g, exponent_sum(w, g)) for g in partition.generators()]
    nonzero = [abs(t) for _, t in sums if t]
    if nonzero:
        for n in range(2, min(nonzero) + 2):
            if any(t % n for _, t in sums):
                quotient = make_abelian_quotient(partition, n, enumeration_cap=enumeration_cap)
                return SeparationCertificate(partition, quotient, (), w, WITNESS_IMAGE)
        raise AssertionError("a modulus of min|sum|+1 always separates")
    return separate_from_subgroup(partition, [], w, enumeration_cap=enumeration_cap)


def verify_separation(cert: SeparationCertificate) -> CheckResult:
    """Recompute the witness from scratch; False carries the reasons.

    A basepoint witness is checked on point 0 alone: each word is traced
    from it run by run (:meth:`FiniteQuotient.point_image`), and no word's
    whole image is composed.  An image witness composes the images and
    compares them with the identity.
    """
    reasons = []
    q = cert.quotient
    if q.partition != cert.partition:
        reasons.append("quotient partition differs from certificate partition")
    for g in cert.partition.generators():
        p = q.images.get(g)
        if p is None:
            reasons.append(f"images[{cert.partition.letter(g)}]: missing")
            continue
        try:
            _check_permutation(p.mapping, q.degree, f"images[{cert.partition.letter(g)}]")
        except ValueError as exc:
            reasons.append(str(exc))
    if cert.witness_kind not in WITNESS_KINDS:
        reasons.append(f"unknown witness kind {cert.witness_kind!r}")
    if reasons:
        return CheckResult(False, tuple(reasons))

    if cert.witness_kind == WITNESS_BASEPOINT:
        # sound for any permutation action: the stabilizer of point 0
        # contains the subgroup but not the excluded word
        for i, gw in enumerate(cert.subgroup_gens):
            if q.point_image(gw, 0) != 0:
                reasons.append(f"subgroup generator {i} moves the basepoint")
        if q.point_image(cert.excluded, 0) == 0:
            reasons.append("excluded word fixes the basepoint")
    else:
        for i, gw in enumerate(cert.subgroup_gens):
            if not q.in_kernel(gw):
                reasons.append(f"subgroup generator {i} falls outside the kernel")
        if q.in_kernel(cert.excluded):
            reasons.append("excluded word lies in the kernel")
    return CheckResult(not reasons, tuple(reasons))


# --- serialization ------------------------------------------------------------

def partition_to_obj(p: FactorPartition) -> dict:
    return {"k_size": p.k_size, "l_size": p.l_size}


def partition_from_obj(obj, path="partition") -> FactorPartition:
    allowed = {"k_size", "l_size"}
    _check_keys(obj, allowed, path)
    for key in ("k_size", "l_size"):
        v = obj[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise SchemaError(f"{path}.{key}: expected an integer >= 1")
    rank = obj["k_size"] + obj["l_size"]
    if rank > 26:
        raise SchemaError(f"{path}: k_size + l_size is {rank}, but the letter "
                          "syntax names at most 26 generators")
    return FactorPartition(obj["k_size"], obj["l_size"])


def separation_to_obj(cert: SeparationCertificate) -> dict:
    p = cert.partition
    return {
        "type": "separation",
        "partition": partition_to_obj(p),
        "quotient": quotient_to_obj(cert.quotient),
        "subgroup_gens": [format_word(w, p) for w in cert.subgroup_gens],
        "excluded": format_word(cert.excluded, p),
        "witness_kind": cert.witness_kind,
    }


def separation_from_obj(obj, path="certificate", enumeration_cap=None, partition=None,
                        shared=None) -> SeparationCertificate:
    """Parse a separation certificate.  A caller that has parsed the
    partition field already passes it as ``partition``; ``shared`` goes to
    :func:`quotient_from_obj`."""
    allowed = {"type", "partition", "quotient", "subgroup_gens", "excluded", "witness_kind"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "separation":
        raise SchemaError(f"{path}.type: expected 'separation', got {obj['type']!r}")
    if partition is None:
        partition = partition_from_obj(obj["partition"], f"{path}.partition")
    quotient = quotient_from_obj(obj["quotient"], partition, f"{path}.quotient",
                                 enumeration_cap=enumeration_cap, shared=shared)
    raw_gens = obj["subgroup_gens"]
    if not isinstance(raw_gens, list):
        raise SchemaError(f"{path}.subgroup_gens: expected a list of word strings")
    gens = []
    for i, s in enumerate(raw_gens):
        gens.append(_parse_word_field(s, partition, f"{path}.subgroup_gens[{i}]"))
    excluded = _parse_word_field(obj["excluded"], partition, f"{path}.excluded")
    kind = obj["witness_kind"]
    if kind not in WITNESS_KINDS:
        raise SchemaError(f"{path}.witness_kind: expected one of {WITNESS_KINDS}, got {kind!r}")
    return SeparationCertificate(partition, quotient, tuple(gens), excluded, kind)


def _parse_word_field(value, partition: FactorPartition, path: str) -> Word:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a word string")
    try:
        return parse_word(value, partition)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def graph_to_dot(graph: StallingsGraph) -> str:
    """Graphviz form; the basepoint is double-circled."""
    lines = ["digraph subgroup_graph {", "  rankdir=LR;", '  0 [shape=doublecircle];']
    for v in range(1, graph.num_vertices):
        lines.append(f"  {v} [shape=circle];")
    for s, g, t in sorted(graph.edges):
        lines.append(f'  {s} -> {t} [label="{graph.partition.letter(g)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_obj(graph: StallingsGraph) -> dict:
    return {
        "partition": partition_to_obj(graph.partition),
        "num_vertices": graph.num_vertices,
        "folded": graph.folded,
        "edges": sorted(
            [s, graph.partition.letter(g), t] for s, g, t in graph.edges
        ),
    }
