"""Subgroup graphs, folding, and finite-quotient separation certificates.

A finitely generated subgroup is represented by its folded based graph
(vertices 0..v-1, basepoint 0, edges labeled by generator positions).
One folding engine keeps the graph's label maps folded while the
generator loops are added: each loop is read from the basepoint as far
as edges exist, only its unread middle is laid, and merges move the
smaller side.  The folded graph yields an exact membership test;
completing its partial injections to permutations yields a finite
quotient in which the subgroup fixes the basepoint while a chosen
excluded word moves it — an effective form of the classical closedness
of finitely generated subgroups in the profinite topology.

Records here are immutable NamedTuples equal to plain tuples of their
fields; ``*_to_obj`` turns them into plain dicts and lists for JSON.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

from .errors import CapExceededError, SchemaError
from .quotients import (
    FiniteQuotient,
    Permutation,
    _check_keys,
    _check_permutation,
    _int_field,
    make_abelian_quotient,
    quotient_from_obj,
    quotient_to_obj,
)
from .words import (
    FactorPartition,
    Word,
    _generator_table,
    exponent_sum,
    format_word,
    parse_word,
    word_length,
)

MAX_PATH_LETTERS = 10 ** 5

WITNESS_BASEPOINT = "basepoint-moved"
WITNESS_IMAGE = "image-differs"
WITNESS_KINDS = (WITNESS_BASEPOINT, WITNESS_IMAGE)

_MEMBER_MESSAGE = "the excluded word lies in the subgroup; nothing separates it"


class StallingsGraph(NamedTuple):
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


class CheckResult(NamedTuple):
    """Outcome of a from-scratch verification, with human-readable reasons."""

    ok: bool
    reasons: tuple

    def __bool__(self):
        return self.ok


class SeparationCertificate(NamedTuple):
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


def _check_letters(length: int) -> None:
    """Refuse to lay a path of more than ``MAX_PATH_LETTERS`` letters."""
    if length > MAX_PATH_LETTERS:
        raise CapExceededError(MAX_PATH_LETTERS, "letter expansion of a long word",
                               "path letter cap")


def _lay_word(partition: FactorPartition, edges: set, nv: int, w: Word) -> int:
    """Add the loop of ``w`` at the basepoint to ``edges`` on fresh
    vertices numbered from ``nv``.  Returns the new vertex count."""
    runs = [(partition.flat_index(g), e) for g, e in w.runs]
    length = word_length(w)
    _check_letters(length)
    fresh = max(length - 1, 0)
    path = [0, *range(nv, nv + fresh), 0]  # path[k]: the vertex after k letters
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
        nv = _lay_word(partition, edges, nv, w)
    return StallingsGraph(partition, nv, frozenset(edges), False)


def _letter_runs(partition: FactorPartition, w: Word) -> list:
    """The runs of ``w`` as ``(label, letters)``: generator i reads forward
    as label i and backward as label rank + i."""
    rank = partition.rank
    position = _generator_table(partition.k_size, partition.l_size).position
    try:
        return [(position[g], e) if e > 0 else (rank + position[g], -e) for g, e in w.runs]
    except KeyError as exc:
        partition.check(exc.args[0])  # raises: a generator outside the partition
        raise


def _read(maps: list, runs: list, v: int) -> tuple:
    """Follow ``runs`` from ``v`` while the label maps have edges.  The
    engine's maps are lists with None where a vertex has no edge; dict
    maps, which :func:`trace_word` reads, raise KeyError there instead.

    Returns ``(end, j, t)``: the walk read ``runs[:j]`` and ``t`` letters of
    ``runs[j]``, and ``j == len(runs)`` when it read them all.  Every map is
    a partial injection, so a walk can close only at its start; one back
    there after i steps goes round, and only the run's remaining steps
    mod i are taken (the rule of :meth:`FiniteQuotient.point_image`).
    """
    for j, (lab, count) in enumerate(runs):
        mp = maps[lab]
        start = v
        for t in range(count):
            x = mp[v]
            if x is None:
                return v, j, t
            v = x
            if v == start:
                for _ in range((count - t - 1) % (t + 1)):
                    v = mp[v]
                break
    return v, len(runs), 0


def _trace(maps: list, runs: list, v: int):
    """End of reading ``runs`` from ``v``, or None if the walk leaves the maps."""
    end, j, _ = _read(maps, runs, v)
    return end if j == len(runs) else None


class _Folding:
    """A based graph kept folded while edges and words are added.

    ``maps[lab]`` is the partial injection of label ``lab``, a list indexed
    by vertex with None where the vertex has no edge under that label:
    label i reads generator i forward and label rank + i reads it backward.
    Every entry joins two live vertices, and an edge is held under both of
    its labels.  An edge whose source already has another far end under its
    label, or whose target another near end, is not added; those ends go on
    ``pending``, and :meth:`settle` merges them.  A merge moves the vertex
    with fewer edges into the other, adds its edges again from there (which
    may queue further merges), and records it in ``alias``.  Vertex 0 is
    the basepoint wherever merges take it; :meth:`find` follows ``alias``.
    """

    def __init__(self, partition: FactorPartition, num_vertices: int = 1):
        rank = partition.rank
        self.partition = partition
        self.maps = [[None] * num_vertices for _ in range(2 * rank)]
        self.inverse = [*range(rank, 2 * rank), *range(rank)]
        self.alias = {}
        self.pending = []
        self.num_vertices = num_vertices

    def find(self, v: int) -> int:
        """The live vertex that ``v`` was merged into, halving the alias path."""
        alias = self.alias
        while v in alias:
            u = alias[v]
            w = alias.get(u)
            if w is None:
                return u
            alias[v] = w
            v = w
        return v

    def add_edge(self, u: int, lab: int, v: int) -> None:
        """Add the edge ``u -lab-> v`` between live vertices, or queue the
        merges it forces."""
        mp, back = self.maps[lab], self.maps[self.inverse[lab]]
        x, y = mp[u], back[v]
        if x is None and y is None:
            mp[u] = v
            back[v] = u
        elif x != v:
            if x is not None:
                self.pending.append((x, v))
            if y is not None:
                self.pending.append((y, u))

    def settle(self) -> None:
        """Merge the queued pairs until every label is a partial injection."""
        maps, inverse, pending = self.maps, self.inverse, self.pending
        while pending:
            x, y = pending.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            ends = [(lab, z) for lab, mp in enumerate(maps) if (z := mp[x]) is not None]
            other = [(lab, z) for lab, mp in enumerate(maps) if (z := mp[y]) is not None]
            if len(ends) > len(other):
                x, y, ends = y, x, other
            for lab, z in ends:
                maps[lab][x] = maps[inverse[lab]][z] = None
            self.alias[x] = y
            for lab, z in ends:
                self.add_edge(y, lab, y if z == x else z)

    def add_word(self, runs: list, closed: bool):
        """Add the path of a word from the basepoint and fold.  A ``closed``
        path is a loop back to the basepoint; an open one returns its end.

        The word is read forward from the basepoint as far as edges exist,
        and a loop is also read backward from it over the letters left.
        Only the unread middle is laid, on fresh vertices; its first edge
        leaves a vertex that lacks that label, so a merge can start only at
        its last edge.  A loop with no middle left merges the two places
        where the reads stopped.
        """
        _check_letters(sum(c for _, c in runs))
        root = self.find(0)
        u, j, t = _read(self.maps, runs, root)
        rest = [(runs[j][0], runs[j][1] - t), *runs[j + 1:]] if j < len(runs) else []
        if not closed:
            return self._lay(u, rest, None) if rest else u
        back = [(self.inverse[lab], c) for lab, c in reversed(rest)]
        v, jb, tb = _read(self.maps, back, root)
        if jb == len(back):
            self.pending.append((u, v))
            self.settle()
        else:
            del rest[len(rest) - jb:]
            lab, c = rest[-1]
            rest[-1] = (lab, c - tb)
            self._lay(u, rest, v)
        return None

    def _lay(self, u: int, runs: list, v) -> int:
        """Lay a path spelling ``runs`` from ``u`` on fresh vertices, ending
        at ``v`` or, if ``v`` is None, at a fresh vertex; returns its end."""
        labels = list(chain.from_iterable(map(repeat, *zip(*runs))))  # one per letter
        first = self.num_vertices
        self.num_vertices += len(labels) - (v is not None)
        path = [u, *range(first, self.num_vertices)]  # path[k]: the vertex after k letters
        if v is None:
            v = path.pop()
        maps, inverse = self.maps, self.inverse
        fresh = [None] * (self.num_vertices - first)
        for mp in maps:
            mp += fresh
        for s, lab, t in zip(path, labels, path[1:]):  # every edge but the last
            maps[lab][s] = t
            maps[inverse[lab]][t] = s
        self.add_edge(path[-1], labels[-1], v)
        self.settle()
        return v

    def rows(self, complete: bool = False) -> list:
        """For each generator, the number of each numbered vertex's far end,
        or None where the vertex has no such edge.  Only what the basepoint
        reaches is numbered, breadth first from it, out-labels in generator
        order, then in-labels.  ``complete`` pairs the vertices without an
        out-edge with those without an in-edge in ascending order, which
        completes each row to a permutation."""
        maps = self.maps
        root = self.find(0)
        number = [None] * self.num_vertices
        number[root] = 0
        order = [root]
        for v in order:  # the queue grows while it is read
            for mp in maps:
                x = mp[v]
                if x is not None and number[x] is None:
                    number[x] = len(order)
                    order.append(x)
        rows = []
        for mp, back in zip(maps, maps[self.partition.rank:]):
            free = (iter([k for k, x in enumerate(map(back.__getitem__, order)) if x is None])
                    if complete else repeat(None))
            rows.append([next(free) if x is None else number[x]
                         for x in map(mp.__getitem__, order)])
        return rows

    def graph(self) -> StallingsGraph:
        """The folded graph, numbered canonically; only what the basepoint
        reaches is kept."""
        rows = self.rows()
        edges = frozenset((s, i, t) for i, row in enumerate(rows)
                          for s, t in enumerate(row) if t is not None)
        return StallingsGraph(self.partition, len(rows[0]), edges, True)


def _fold_loops(partition: FactorPartition, gens) -> _Folding:
    """The folding of one loop per generator word at the basepoint."""
    folding = _Folding(partition)
    for w in gens:
        folding.add_word(_letter_runs(partition, w), closed=True)
    return folding


def fold(graph: StallingsGraph) -> StallingsGraph:
    """Fold to partial injections and renumber canonically.

    The edges go one by one into the folding engine, which merges where an
    edge meets a different far end, and the survivors are numbered breadth
    first from the basepoint (out-labels in generator order, then
    in-labels).  Folding is confluent, so the result does not depend on
    the order of the merges, and equality of folded graphs coincides with
    based labeled-graph isomorphism.  The engine holds only the vertices
    the edges name, renumbered from the basepoint, so its lists do not grow
    with ``num_vertices`` and any vertex names work.
    :func:`build_stallings` and :func:`separate_from_subgroup` add words to
    the engine directly and do not call this.
    """
    names = {0: 0}
    for s, _, t in graph.edges:
        names.setdefault(s, len(names))
        names.setdefault(t, len(names))
    folding = _Folding(graph.partition, len(names))
    for s, i, t in graph.edges:
        folding.add_edge(names[s], i, names[t])
    folding.settle()
    return folding.graph()


def build_stallings(partition: FactorPartition, gens) -> StallingsGraph:
    """Folded based graph of the subgroup generated by the given words."""
    return _fold_loops(partition, gens).graph()


def _label_maps(graph: StallingsGraph) -> list:
    """The 2·rank partial injections of the graph's labels: map ``i`` reads
    generator ``i`` forward and map ``rank + i`` reads it backward."""
    rank = graph.partition.rank
    maps = [{} for _ in range(2 * rank)]
    for s, i, t in graph.edges:
        maps[i][s] = t
        maps[rank + i][t] = s
    return maps


def trace_word(graph: StallingsGraph, w: Word, start=0):
    """Endpoint of reading ``w`` from ``start``, or None if it leaves the
    graph.  The label maps are dicts, so a graph may name any vertices."""
    if not graph.folded:
        raise ValueError("tracing requires a folded graph")
    runs = _letter_runs(graph.partition, w)
    try:
        return _trace(_label_maps(graph), runs, start)
    except KeyError:  # a vertex without an edge under the next label
        return None


def membership(graph: StallingsGraph, w: Word) -> bool:
    """Exact subgroup membership via the folded graph."""
    return trace_word(graph, w) == 0


def separate_from_subgroup(partition: FactorPartition, gens, w: Word) -> SeparationCertificate:
    """Certificate that ``w`` lies outside the subgroup ``<gens>``.

    One folding of the generator loops, to which the word's path is then
    added from the basepoint: the path adds a tree, so the folded graph
    still carries ``<gens>`` at the basepoint, and ``w`` is a member
    exactly when its path ends there.  Otherwise the folded action tells
    the basepoint's orbit under ``w`` apart, and completing each label's
    partial injection to a permutation gives a quotient of degree equal to
    the folded graph's vertex count, unchecked since the maps are
    bijections by construction.  A word longer than ``MAX_PATH_LETTERS``
    letters is first traced by runs on the subgroup's folded graph, so
    that a member is refused as a member; a non-member that long cannot
    have its path laid and raises :class:`CapExceededError`.
    """
    folding = _fold_loops(partition, gens)
    runs = _letter_runs(partition, w)
    root = folding.find(0)
    if word_length(w) > MAX_PATH_LETTERS and _trace(folding.maps, runs, root) == root:
        raise ValueError(_MEMBER_MESSAGE)
    if folding.add_word(runs, closed=False) == root:
        raise ValueError(_MEMBER_MESSAGE)
    images = {g: Permutation(row)
              for g, row in zip(partition.generators(), folding.rows(complete=True))}
    quotient = FiniteQuotient(partition, images)
    return SeparationCertificate(partition, quotient, tuple(gens), w, WITNESS_BASEPOINT)


def separate_from_identity(partition: FactorPartition, w: Word) -> SeparationCertificate:
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
                quotient = make_abelian_quotient(partition, n)
                return SeparationCertificate(partition, quotient, (), w, WITNESS_IMAGE)
        raise AssertionError("a modulus of min|sum|+1 always separates")
    return separate_from_subgroup(partition, [], w)


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
        _int_field(obj[key], f"{path}.{key}", minimum=1)
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


def separation_from_obj(obj, path="certificate", enumeration_cap=None,
                        partition=None) -> SeparationCertificate:
    """Parse a separation certificate.  A caller that has parsed the
    partition field already passes it as ``partition``."""
    allowed = {"type", "partition", "quotient", "subgroup_gens", "excluded", "witness_kind"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "separation":
        raise SchemaError(f"{path}.type: expected 'separation', got {obj['type']!r}")
    if partition is None:
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
