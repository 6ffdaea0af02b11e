"""Subgroup graphs, folding, and finite-quotient separation certificates.

A finitely generated subgroup is represented by its folded based graph
(vertices 0..v-1, basepoint 0, edges labeled by generator positions).
Folding the wedge of generator loops, in one worklist pass with union-find
where each merge touches only the half-edges of the smaller side, yields an
exact membership test; completing the folded graph's partial injections to
permutations yields a finite quotient in which the subgroup fixes the
basepoint while a chosen excluded word moves it — an effective form of the
classical closedness of finitely generated subgroups in the profinite
topology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CapExceededError, SchemaError
from .quotients import (
    FiniteQuotient,
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

    ``edges`` holds (source, i, target) triples read positively, where i is
    the generator's position in ``partition.generators()``.  ``folded``
    records that no vertex carries two equal-labeled outgoing (or incoming)
    edges, i.e. every label acts as a partial injection.
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


def _lay_word(partition: FactorPartition, edges: set, nv: int, w: Word, closed: bool) -> int:
    """Add the path of ``w`` from the basepoint to ``edges`` on fresh
    vertices numbered from ``nv``; a ``closed`` path ends back at the
    basepoint.  Returns the new vertex count."""
    runs = [(partition.flat_index(g), e) for g, e in w.runs]
    length = word_length(w)
    if length > MAX_PATH_LETTERS:
        raise CapExceededError(MAX_PATH_LETTERS, "letter expansion of a long word",
                               "path letter cap")
    fresh = length - 1 if closed and length else length
    path = [0, *range(nv, nv + fresh)]  # path[k]: the vertex after k letters
    if fresh < length:
        path.append(0)
    steps = []  # (generator position, forward) for each letter
    for i, e in runs:
        steps += [(i, e > 0)] * abs(e)
    edges.update((u, i, v) if forward else (v, i, u)
                 for u, v, (i, forward) in zip(path, path[1:], steps))
    return nv + fresh


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
    rank = graph.partition.rank
    parent = list(range(graph.num_vertices))
    ends = [{} for _ in parent]  # vertex -> {label: far end, maybe not a root}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(graph.edges)
    work.extend((t, i + rank, s) for s, i, t in graph.edges)
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
                edges.append((number[v], lab, number[x]))
    return StallingsGraph(graph.partition, len(number), frozenset(edges), True)


def build_stallings(partition: FactorPartition, gens) -> StallingsGraph:
    """Folded based graph of the subgroup generated by the given words."""
    return fold(loop_wedge(partition, gens))


def _label_maps(graph: StallingsGraph) -> list:
    """The 2·rank partial injections of the graph's labels: map ``i`` reads
    generator ``i`` forward and map ``rank + i`` reads it backward."""
    rank = graph.partition.rank
    maps = [{} for _ in range(2 * rank)]
    for s, i, t in graph.edges:
        maps[i][s] = t
        maps[rank + i][t] = s
    return maps


def _apply_power(mp: dict, v: int, steps: int):
    """Apply a partial injection ``steps`` times, or None if the walk leaves
    its domain.  On a folded graph a walk can close only at its start, and
    one back there after i steps has only ``steps mod i`` steps left (the
    rule of :meth:`FiniteQuotient.point_image`)."""
    start = v
    for i in range(1, steps + 1):
        v = mp.get(v)
        if v is None:
            return None
        if v == start:
            for _ in range(steps % i):
                v = mp[v]
            return v
    return v


def _trace(maps: list, partition: FactorPartition, w: Word, v: int):
    """:func:`trace_word` on label maps already built by :func:`_label_maps`."""
    rank = partition.rank
    for g, e in w.runs:
        i = partition.flat_index(g)
        v = _apply_power(maps[i] if e > 0 else maps[rank + i], v, abs(e))
        if v is None:
            return None
    return v


def trace_word(graph: StallingsGraph, w: Word, start=0):
    """Endpoint of reading ``w`` from ``start``, or None if it leaves the graph."""
    if not graph.folded:
        raise ValueError("tracing requires a folded graph")
    return _trace(_label_maps(graph), graph.partition, w, start)


def membership(graph: StallingsGraph, w: Word) -> bool:
    """Exact subgroup membership via the folded graph."""
    return trace_word(graph, w) == 0


def _complete_to_permutation(mp: dict, nv: int) -> list:
    """Extend a partial injection to the points of a permutation, pairing
    unmatched sources with unmatched targets in ascending vertex order."""
    free = iter(sorted(set(range(nv)).difference(mp.values())))
    return [mp[v] if v in mp else next(free) for v in range(nv)]


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
    maps = _label_maps(folded)
    if _trace(maps, partition, w, 0) == 0:
        raise ValueError(_MEMBER_MESSAGE)
    images = {g: _complete_to_permutation(maps[i], folded.num_vertices)
              for i, g in enumerate(partition.generators())}
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
    gens = graph.partition.generators()
    for s, i, t in sorted(graph.edges):
        lines.append(f'  {s} -> {t} [label="{graph.partition.letter(gens[i])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_obj(graph: StallingsGraph) -> dict:
    gens = graph.partition.generators()
    return {
        "partition": partition_to_obj(graph.partition),
        "num_vertices": graph.num_vertices,
        "folded": graph.folded,
        "edges": sorted(
            [s, graph.partition.letter(gens[i]), t] for s, i, t in graph.edges
        ),
    }
