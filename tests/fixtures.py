"""Test fixtures built from the package's public types: the package itself
never needs them."""

import hashlib
import json

from proficert.cli import canonical_json
from proficert.example1 import s_family
from proficert.quotients import FiniteQuotient, Permutation
from proficert.separation import SeparationCertificate, StallingsGraph
from proficert.words import Word, invert, multiply


def trivial_quotient(partition):
    """Degree-1 permutation quotient (everything in the kernel)."""
    return FiniteQuotient(partition, {g: Permutation.identity(1)
                                      for g in partition.generators()})


def in_kernel(q, w):
    """Whether ``w`` maps to the identity of ``q``."""
    return q.coset_equal(w, Word(()))


def tail_heads(cert):
    """The separations from the identity that a tail's heads certify: head
    j's quotient with w s_j^-1, in j order, the target's own index skipped."""
    w = cert.target_word
    words = [multiply(w, invert(s)) for _, s in s_family(cert.head_bound) if s != w]
    return [SeparationCertificate(q, (), x) for q, x in zip(cert.head_certificates, words)]


def adjoin_word_path(graph, w):
    """Hang the path of ``w`` off the basepoint with all-fresh vertices.

    The result is unfolded; folding merges the path into the graph while
    keeping the path's endpoint distinguishable from the basepoint exactly
    when ``w`` is outside the subgroup.
    """
    partition, nv = graph.partition, graph.num_vertices
    edges = set(graph.edges)
    end = 0
    for g, e in w.runs:
        i = partition.flat_index(g)
        for _ in range(abs(e)):
            edges.add((end, i, nv) if e > 0 else (nv, i, end))
            end, nv = nv, nv + 1
    return StallingsGraph(partition, nv, frozenset(edges), False)


def indented(text):
    """``text`` in the layout JSON outputs had before they were compact:
    sorted keys, two-space indent, trailing newline."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def indented_digest(*texts):
    """SHA-256 of the joined ``indented`` texts, once each text is shown to be
    its own canonical re-emission: a digest recorded in the indented layout
    then still pins every byte."""
    for text in texts:
        assert text == canonical_json(json.loads(text))
    return hashlib.sha256("".join(map(indented, texts)).encode()).hexdigest()
