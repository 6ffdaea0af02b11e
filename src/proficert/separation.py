"""Subgroup graphs, folding, and finite-quotient separation certificates.

A finitely generated subgroup is represented by its folded based graph
(vertices 0..v-1, basepoint 0, edges labeled by generator positions).
One folding engine keeps the graph's label maps folded while the
generator loops are added: each loop is read from the basepoint as far
as edges exist, only its unread middle is laid, and merges move the
smaller side.  The folded graph yields an exact membership test; its
partial injections, which extend to permutations, are a partial action in
which the subgroup fixes the basepoint while a chosen excluded word moves
it — an effective form of the classical closedness of finitely generated
subgroups in the profinite topology.

Records here are immutable NamedTuples equal to plain tuples of their
fields; ``*_to_obj`` turns them into plain dicts and lists for JSON.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, count, repeat
from typing import NamedTuple

from .errors import CapExceededError, SchemaError
from .quotients import (
    ABELIAN,
    FiniteQuotient,
    Permutation,
    _check_keys,
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
PARTIAL = "partial"
WITNESS_OF = {PARTIAL: WITNESS_BASEPOINT, ABELIAN: WITNESS_IMAGE}  # quotient kind -> witness

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


class PartialAction(NamedTuple):
    """Partial injections of 0..degree-1: ``targets[g][i]`` is the image of
    ``sources[g][i]`` under ``g`` (tuples, sources ascending).  Each extends
    to a permutation, and a walk along the pairs ends as in any extension."""

    partition: FactorPartition
    degree: int
    sources: dict
    targets: dict
    kind = PARTIAL


def _completed(action: PartialAction) -> FiniteQuotient:
    """``action`` completed to permutations by pairing its free points ascending."""
    images, points = {}, range(action.degree)
    for g in action.partition.generators():
        row = dict(zip(action.sources[g], action.targets[g]))
        free = iter(sorted(set(points).difference(row.values())))
        images[g] = Permutation([row[x] if x in row else next(free) for x in points])
    return FiniteQuotient(action.partition, images)


class SeparationCertificate(NamedTuple):
    """A finite action witnessing that ``excluded`` avoids the subgroup.

    A :class:`PartialAction` witnesses "basepoint-moved": walked from point
    0, each subgroup generator returns there and the excluded word does not.
    An abelian quotient mod n witnesses "image-differs": of these words only
    the excluded one has an exponent sum nonzero mod n (:data:`WITNESS_OF`).
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
    """Follow ``runs`` from ``v`` while the label maps have edges; the
    engine's lists and :func:`_label_maps`' dicts read None for a missing one.

    Returns ``(end, j, t)``: the walk read ``runs[:j]`` and ``t`` letters of
    ``runs[j]``, and ``j == len(runs)`` when it read them all.  Every map is
    a partial injection, so a walk can close only at its start; one back
    there after i steps goes round, and only the run's remaining steps
    mod i are taken, whatever the run's exponent.
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

    def rows(self) -> list:
        """For each generator, the number of each numbered vertex's far end,
        or None where the vertex has no such edge.  Only what the basepoint
        reaches is numbered, breadth first from it, out-labels in generator
        order, then in-labels."""
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
        return [[None if x is None else number[x] for x in map(mp.__getitem__, order)]
                for mp in maps[:self.partition.rank]]

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


class _Edges(dict):
    def __missing__(self, v):
        return None  # a point off the pairs has no edge; the miss is not stored


def _label_maps(pairs: list) -> list:
    """Label maps of ``(sources, targets)`` per generator: map ``i`` reads
    generator ``i`` forward, ``rank + i`` backward.  A generator's two maps
    hold as many entries as its lists just when its pairs are an injection."""
    return [_Edges(zip(s, t)) for s, t in pairs] + [_Edges(zip(t, s)) for s, t in pairs]


@lru_cache(maxsize=8)
def _graph_maps(graph: StallingsGraph) -> list:
    pairs = [([], []) for _ in range(graph.partition.rank)]
    for s, i, t in graph.edges:
        pairs[i][0].append(s)
        pairs[i][1].append(t)
    return _label_maps(pairs)


def trace_word(graph: StallingsGraph, w: Word, start=0):
    """Endpoint of reading ``w`` from ``start``, or None if it leaves the
    graph.  Its label maps, dicts built once per graph, let it name any vertices."""
    if not graph.folded:
        raise ValueError("tracing requires a folded graph")
    return _trace(_graph_maps(graph), _letter_runs(graph.partition, w), start)


def membership(graph: StallingsGraph, w: Word) -> bool:
    """Exact subgroup membership via the folded graph."""
    return trace_word(graph, w) == 0


def separate_from_subgroup(partition: FactorPartition, gens, w: Word) -> SeparationCertificate:
    """Certificate that ``w`` lies outside the subgroup ``<gens>``.

    One folding of the generator loops, to which the word's path is then
    added from the basepoint: the path adds a tree, so the folded graph
    still carries ``<gens>`` at the basepoint, and ``w`` is a member
    exactly when its path ends there.  Otherwise the graph's label maps,
    unchecked partial injections, are the certificate.  A word longer than
    ``MAX_PATH_LETTERS`` letters is first traced by runs on the subgroup's
    folded graph, so that a member is refused as a member; a non-member
    that long cannot have its path laid and raises :class:`CapExceededError`.
    """
    folding = _fold_loops(partition, gens)
    runs = _letter_runs(partition, w)
    root = folding.find(0)
    if word_length(w) > MAX_PATH_LETTERS and _trace(folding.maps, runs, root) == root:
        raise ValueError(_MEMBER_MESSAGE)
    if folding.add_word(runs, closed=False) == root:
        raise ValueError(_MEMBER_MESSAGE)
    rows = folding.rows()
    sources = {g: tuple([k for k, x in enumerate(row) if x is not None])
               for g, row in zip(partition.generators(), rows)}
    targets = {g: tuple([x for x in row if x is not None])
               for g, row in zip(partition.generators(), rows)}
    action = PartialAction(partition, len(rows[0]), sources, targets)
    return SeparationCertificate(partition, action, tuple(gens), w, WITNESS_BASEPOINT)


def abelian_image(partition: FactorPartition, w: Word, n: int) -> tuple:
    """``w``'s image in the abelianization mod ``n``: its exponent sums mod ``n``."""
    return tuple(exponent_sum(w, g) % n for g in partition.generators())


def separate_from_identity(partition: FactorPartition, w: Word) -> SeparationCertificate:
    """Certificate that a nontrivial word survives in some finite quotient.

    Words with a nonzero exponent sum get the smallest abelian modulus that
    sees it; commutators get :func:`separate_from_subgroup`'s partial action
    on the trivial subgroup.
    """
    if w.is_identity():
        raise ValueError("cannot separate the identity from itself")
    sums = [exponent_sum(w, g) for g in partition.generators()]
    if any(sums):
        # a nonzero sum t is seen mod |t| + 1 at the latest
        n = next(n for n in count(2) if any(t % n for t in sums))
        return SeparationCertificate(partition, make_abelian_quotient(partition, n), (), w,
                                     WITNESS_IMAGE)
    return separate_from_subgroup(partition, [], w)


def _check_partial(triples, degree: int, prefix: str) -> None:
    """Refuse a file's ``(letter, sources, targets)`` triples as it loads unless
    each is a partial injection (two lists of one length, of ints >= 0, sources
    strictly ascending, targets distinct) and ``degree`` is one past the largest point."""
    top = 0
    for x, sources, targets in triples:
        for name, points in (("sources", sources), ("targets", targets)):
            if not isinstance(points, (list, tuple)) or points and not (
                    set(map(type, points)) == {int} and min(points) >= 0):
                raise SchemaError(f"{prefix}{name}.{x}: expected a list of points")
        if len(sources) != len(targets):
            raise SchemaError(f"{prefix}targets.{x}: expected {len(sources)} points")
        if len(set(sources)) != len(sources) or list(sources) != sorted(sources):
            raise SchemaError(f"{prefix}sources.{x}: not strictly ascending")
        if len(set(targets)) != len(targets):
            raise SchemaError(f"{prefix}targets.{x}: not injective (a point is hit twice)")
        top = max(top, sources[-1], max(targets)) if sources else top
    if degree != top + 1:
        raise SchemaError(f"{prefix}degree: expected {top + 1}, one past the largest point")


def _wrong_witness(kind: str) -> str:
    owner = "a partial action" if kind == PARTIAL else "an abelian quotient"
    return f"{owner} witnesses only {WITNESS_OF[kind]!r}"


def verify_separation(cert: SeparationCertificate) -> CheckResult:
    """Recompute the witness from scratch; False carries the reasons.

    No permutation image is read.  A basepoint witness walks each word from
    point 0 run by run along the partial action's pairs; a walk that leaves
    them shows nothing.  The walks need each generator's pairs only to be a
    partial injection of ints (not bools), read off the label maps before
    any walk; the rest of a file's schema is checked as it loads.  An image
    witness reads sums mod n.
    """
    reasons = []
    q = cert.quotient
    p = cert.partition
    if q.partition != p:
        reasons.append("quotient partition differs from certificate partition")
    gens = p.generators()
    if q.kind not in WITNESS_OF:
        reasons.append(f"quotient kind {q.kind!r}: expected 'partial' or 'abelian'")
    elif cert.witness_kind != WITNESS_OF[q.kind]:
        reasons.append(_wrong_witness(q.kind))
    elif q.kind == PARTIAL:
        letter_of, rank = _generator_table(p.k_size, p.l_size).letter_of, p.rank
        maps = [None] * (2 * rank)
        for i, g in enumerate(gens):
            s, t, x = q.sources.get(g), q.targets.get(g), letter_of.get(g, g)  # repr past 26
            try:
                maps[i], maps[rank + i] = _label_maps([(s, t)])
                if not len(maps[i]) == len(maps[rank + i]) == len(s) == len(t):
                    reasons.append(f"sources.{x}, targets.{x}: not a partial injection")
                elif not {*map(type, s), *map(type, t)} <= {int}:  # the walks compare with ==
                    reasons.append(f"sources.{x}, targets.{x}: expected lists of int points")
            except TypeError:
                reasons.append(f"sources.{x}, targets.{x}: expected lists of hashable points")
    elif not isinstance(q.modulus, int) or q.modulus < 2:
        reasons.append(f"modulus: expected an integer >= 2, got {q.modulus!r}")
    if reasons:
        return CheckResult(False, tuple(reasons))

    if q.kind == PARTIAL:
        # sound because the pairs extend to a permutation action, whose
        # stabilizer of point 0 contains the subgroup but not the excluded word
        for i, gw in enumerate(cert.subgroup_gens):
            end = _trace(maps, _letter_runs(p, gw), 0)
            if end != 0:
                reasons.append(f"subgroup generator {i} " + (
                    "moves the basepoint" if end is not None else "leaves the partial action"))
        end = _trace(maps, _letter_runs(p, cert.excluded), 0)
        if end in (0, None):
            reasons.append("excluded word " + (
                "fixes the basepoint" if end == 0 else "leaves the partial action"))
    else:
        for i, gw in enumerate(cert.subgroup_gens):
            if any(abelian_image(p, gw, q.modulus)):
                reasons.append(f"subgroup generator {i} falls outside the kernel")
        if not any(abelian_image(p, cert.excluded, q.modulus)):
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


def _partial_to_obj(action: PartialAction) -> dict:
    letters = {g: action.partition.letter(g) for g in action.partition.generators()}
    return {"kind": PARTIAL, "degree": action.degree,
            "sources": {x: list(action.sources[g]) for g, x in letters.items()},
            "targets": {x: list(action.targets[g]) for g, x in letters.items()}}


def _partial_from_obj(obj, partition: FactorPartition, path: str) -> PartialAction:
    """Parse a partial action, checking its pairs once, here; nothing is
    sized by the declared degree before the pairs bear it out."""
    _check_keys(obj, {"kind", "degree", "sources", "targets"}, path)
    degree = _int_field(obj["degree"], f"{path}.degree", minimum=1)
    letters = {partition.letter(g): g for g in partition.generators()}
    for name in ("sources", "targets"):
        _check_keys(obj[name], set(letters), f"{path}.{name}")
    _check_partial([(x, obj["sources"][x], obj["targets"][x]) for x in letters], degree,
                   f"{path}.")
    return PartialAction(partition, degree, *({g: tuple(obj[name][x]) for x, g in letters.items()}
                                              for name in ("sources", "targets")))


def separation_to_obj(cert: SeparationCertificate) -> dict:
    p = cert.partition
    q = cert.quotient
    return {
        "type": "separation",
        "partition": partition_to_obj(p),
        "quotient": _partial_to_obj(q) if q.kind == PARTIAL else quotient_to_obj(q),
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
    raw, where = obj["quotient"], f"{path}.quotient"
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in tuple(WITNESS_OF):  # a tuple: the field may be unhashable
        raise SchemaError(f"{where}.kind: expected 'partial' or 'abelian', got {kind!r}")
    if partition is None:
        partition = partition_from_obj(obj["partition"], f"{path}.partition")
    quotient = (_partial_from_obj(raw, partition, where) if kind == PARTIAL
                else quotient_from_obj(raw, partition, where, enumeration_cap=enumeration_cap))
    raw_gens = obj["subgroup_gens"]
    if not isinstance(raw_gens, list):
        raise SchemaError(f"{path}.subgroup_gens: expected a list of word strings")
    gens = tuple(_parse_word_field(s, partition, f"{path}.subgroup_gens[{i}]")
                 for i, s in enumerate(raw_gens))
    excluded = _parse_word_field(obj["excluded"], partition, f"{path}.excluded")
    witness = obj["witness_kind"]
    if witness != WITNESS_OF[kind]:
        raise SchemaError(f"{path}.witness_kind: {_wrong_witness(kind)}, got {witness!r}")
    return SeparationCertificate(partition, quotient, gens, excluded, witness)


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
