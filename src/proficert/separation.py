"""Subgroup graphs, folding, and finite-quotient separation certificates.

A finitely generated subgroup is represented by its folded based graph
(vertices 0..v-1, basepoint 0, edges labeled by generators).  Folding the
wedge of generator loops yields an exact membership test; completing the
folded graph's partial injections to permutations yields a finite quotient
in which the subgroup fixes the basepoint while a chosen excluded word
moves it — an effective form of the classical closedness of finitely
generated subgroups in the profinite topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceededError, SchemaError
from .quotients import (
    FiniteQuotient,
    PERM,
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
        raise CapExceededError(cap, "letter expansion of a long word")
    for g, e in w.runs:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            yield g, step


def loop_wedge(partition: FactorPartition, gens) -> StallingsGraph:
    """Unfolded wedge of one loop per generator word, all based at 0."""
    edges = set()
    nv = 1
    for w in gens:
        for g, _ in w.runs:
            partition.check(g)
        letters = list(_letters(w))
        prev = 0
        for i, (g, step) in enumerate(letters):
            if i == len(letters) - 1:
                nxt = 0
            else:
                nxt = nv
                nv += 1
            if step > 0:
                edges.add((prev, g, nxt))
            else:
                edges.add((nxt, g, prev))
            prev = nxt
    return StallingsGraph(partition, nv, frozenset(edges), False)


def adjoin_word_path(graph: StallingsGraph, w: Word) -> StallingsGraph:
    """Hang the path of ``w`` off the basepoint with all-fresh vertices.

    The result is unfolded; folding merges the path into the graph while
    keeping the path's endpoint distinguishable from the basepoint exactly
    when ``w`` is outside the subgroup.
    """
    edges = set(graph.edges)
    nv = graph.num_vertices
    prev = 0
    for g, step in _letters(w):
        graph.partition.check(g)
        nxt = nv
        nv += 1
        if step > 0:
            edges.add((prev, g, nxt))
        else:
            edges.add((nxt, g, prev))
        prev = nxt
    return StallingsGraph(graph.partition, nv, frozenset(edges), False)


def fold(graph: StallingsGraph) -> StallingsGraph:
    """Fold to partial injections and renumber canonically.

    Repeatedly merges the far endpoints of equal-labeled edge pairs that
    share a source (or a target); the result is independent of merge order,
    and the final BFS renumbering from the basepoint makes equality of
    folded graphs coincide with based labeled-graph isomorphism.
    """
    parent = list(range(graph.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx

    edges = {(find(s), g, find(t)) for s, g, t in graph.edges}
    while True:
        merge = None
        out = {}
        inn = {}
        for s, g, t in sorted(edges):
            key = (s, g)
            if key in out and out[key] != t:
                merge = (out[key], t)
                break
            out[key] = t
            ikey = (t, g)
            if ikey in inn and inn[ikey] != s:
                merge = (inn[ikey], s)
                break
            inn[ikey] = s
        if merge is None:
            break
        union(*merge)
        edges = {(find(s), g, find(t)) for s, g, t in edges}
    return _canonical(graph.partition, edges, find(0))


def _canonical(partition: FactorPartition, edges, basepoint) -> StallingsGraph:
    """BFS renumbering of a folded edge set from the basepoint."""
    out = {}
    inn = {}
    for s, g, t in edges:
        out[(s, g)] = t
        inn[(t, g)] = s
    gens = partition.generators()
    number = {basepoint: 0}
    queue = [basepoint]
    while queue:
        v = queue.pop(0)
        for g in gens:
            t = out.get((v, g))
            if t is not None and t not in number:
                number[t] = len(number)
                queue.append(t)
        for g in gens:
            s = inn.get((v, g))
            if s is not None and s not in number:
                number[s] = len(number)
                queue.append(s)
    renamed = frozenset((number[s], g, number[t]) for s, g, t in edges)
    return StallingsGraph(partition, len(number), renamed, True)


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

    The word's path is adjoined to the subgroup graph before folding, so
    the folded action still tells the basepoint's orbit under ``w`` apart;
    completing each label's partial injection to a permutation gives a
    quotient of degree equal to the folded graph's vertex count.
    """
    core = build_stallings(partition, gens)
    if membership(core, w):
        raise ValueError("the excluded word lies in the subgroup; nothing separates it")
    folded = fold(adjoin_word_path(core, w))
    endpoint = trace_word(folded, w)
    if endpoint is None or endpoint == 0:
        raise AssertionError("folded graph lost the excluded word's endpoint")
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
    """Recompute the witness from scratch; False carries the reasons."""
    reasons = []
    q = cert.quotient
    if q.partition != cert.partition:
        reasons.append("quotient partition differs from certificate partition")
    if q.kind == PERM:
        for g in cert.partition.generators():
            p = q.images.get(g) if q.images else None
            if p is None:
                reasons.append(f"images[{cert.partition.letter(g)}]: missing")
                continue
            try:
                _check_permutation(p.mapping, q.degree, f"images[{cert.partition.letter(g)}]")
            except ValueError as exc:
                reasons.append(str(exc))
    else:
        if not isinstance(q.modulus, int) or q.modulus < 2:
            reasons.append(f"modulus: expected an integer >= 2, got {q.modulus!r}")
    if cert.witness_kind not in WITNESS_KINDS:
        reasons.append(f"unknown witness kind {cert.witness_kind!r}")
    if reasons:
        return CheckResult(False, tuple(reasons))

    if cert.witness_kind == WITNESS_BASEPOINT:
        if q.kind != PERM:
            reasons.append("basepoint witness requires a permutation quotient")
        else:
            for i, gw in enumerate(cert.subgroup_gens):
                if q.image(gw)(0) != 0:
                    reasons.append(f"subgroup generator {i} moves the basepoint")
            if q.image(cert.excluded)(0) == 0:
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


def separation_from_obj(obj, path="certificate", enumeration_cap=None) -> SeparationCertificate:
    allowed = {"type", "partition", "quotient", "subgroup_gens", "excluded", "witness_kind"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "separation":
        raise SchemaError(f"{path}.type: expected 'separation', got {obj['type']!r}")
    partition = partition_from_obj(obj["partition"], f"{path}.partition")
    quotient = quotient_from_obj(obj["quotient"], partition, f"{path}.quotient",
                                 enumeration_cap=enumeration_cap)
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
