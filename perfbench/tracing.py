"""Per-layer tracing of proficert from outside the package.

A :class:`Tracer` replaces public functions and methods of proficert with
timing wrappers.  A function is patched in its defining module and in every
proficert module that imported it by name, so calls made inside the package
are seen too; :meth:`Tracer.uninstall` puts every original object back.

Every wrapped call updates per-name totals: calls, wall time and self time
(wall time minus the time of wrapped calls made inside it).  Calls to
coarse layer functions are also kept as spans ``(id, name, start, end,
parent_id)`` in memory.  The hot leaf calls (permutation composition, word
multiply, ``image``, ``s_element``) run up to a million times per round, so
they are folded into their totals and their nearest kept span and are not
kept one by one.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from proficert import cli, errors, example1, example2, quotients, separation, words

# (owner, attribute, span name, kept as individual spans)
WRAPPED = (
    (quotients.Permutation, "__mul__", "quotients.compose", False),
    (quotients.FiniteQuotient, "image", "quotients.image", False),
    (quotients.FiniteQuotient, "ball", "quotients.bfs", True),
    (quotients.FiniteQuotient, "cayley_distance", "quotients.bfs", True),
    (quotients.FiniteQuotient, "order", "quotients.bfs", True),
    (quotients, "generated_image_table", "quotients.kimage", True),
    (quotients, "direct_product", "quotients.product", True),
    (words, "multiply", "words.multiply", False),
    (separation, "fold", "separation.fold", True),
    (separation, "separate_from_subgroup", "separation.separate", True),
    (separation, "verify_separation", "separation.verify", True),
    (example1, "s_element", "example1.s_element", False),
    (example1, "separate_from_S", "example1.separate", True),
    (example1, "verify_ex1", "example1.verify", True),
    (example1, "not_closed_witness", "example1.witness", True),
    (example1, "verify_ex1_witness", "example1.verify_witness", True),
    (example1, "convergence_witness", "example1.convergence", True),
    (example2, "construct_ex2", "example2.construct", True),
    (example2, "choose_r", "example2.choose_r", True),
    (example2, "verify_ex2", "example2.verify", True),
    (cli, "emit_certificate", "cli.emit", True),
)

# Counts that depend only on the inputs; two traced rounds must agree on them.
DETERMINISTIC = (
    "quotients.compose_calls", "quotients.compose_points",
    "quotients.kimage_tables", "quotients.kimage_elems",
    "quotients.bfs_calls", "quotients.image_calls",
    "quotients.product_calls", "quotients.max_degree",
    "separation.fold_calls", "separation.fold_edges", "separation.fold_merges",
    "words.multiply_calls",
    "example1.head_certs", "example1.s_element_calls",
    "example2.source_draws", "example2.steps_per_draw", "example2.cap_retries",
    "example2.choose_r_calls", "example2.choose_r_misses",
)


def _count_compose(tracer, args, result):
    tracer.counts["quotients.compose_points"] += len(args[0].mapping)


def _count_kimage(tracer, args, result):
    tracer.counts["quotients.kimage_elems"] += len(result)


def _count_product(tracer, args, result):
    c = tracer.counts
    c["quotients.max_degree"] = max(c["quotients.max_degree"], result.degree)


def _count_fold(tracer, args, result):
    graph = args[0]
    tracer.counts["separation.fold_edges"] += len(graph.edges)
    tracer.counts["separation.fold_merges"] += graph.num_vertices - result.num_vertices


def _count_heads(tracer, args, result):
    tracer.counts["example1.head_certs"] += len(result.head_certificates)


def _count_steps(tracer, args, result):
    tracer.counts["example2.steps"] += result.params.steps


ON_RESULT = {
    "quotients.compose": _count_compose,
    "quotients.kimage": _count_kimage,
    "quotients.product": _count_product,
    "separation.fold": _count_fold,
    "example1.separate": _count_heads,
    "example2.construct": _count_steps,
}

# Exceptions that the program raises and catches as part of normal work.
ON_ERROR = {
    "quotients.kimage": (errors.CapExceededError, "example2.cap_retries"),
    "example2.choose_r": (example2.NoAdmissibleElementError, "example2.choose_r_misses"),
}


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "proficert" or n.startswith("proficert."))]


class CountingSource:
    """Passes a quotient source through, counting the factors drawn from it."""

    def __init__(self, source, counts: Counter):
        self._source = source
        self._counts = counts

    def describe(self) -> dict:
        return self._source.describe()

    def stream(self):
        for factor in self._source.stream():
            self._counts["example2.source_draws"] += 1
            yield factor


class NullTracer:
    """Stands in for a Tracer in untraced rounds."""

    def call(self, name, fn, *args):
        return fn(*args)

    def source(self, source):
        return source


class Tracer:
    def __init__(self):
        self.totals = {}      # name -> [calls, wall seconds, self seconds]
        self.counts = Counter()
        self.spans = []       # (id, name, start, end, parent_id)
        self._stack = []      # open calls: [child seconds, id of nearest kept span]
        self._patches = []    # (owner, attribute, original)

    # --- patching -------------------------------------------------------------

    def install(self):
        for owner, attr, name, keep in WRAPPED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, keep)
            owners = [owner] if isinstance(owner, type) else [
                m for m in _package_modules() if getattr(m, attr, None) is original]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for owner, attr, _, _ in WRAPPED:
            places = [owner] if isinstance(owner, type) else _package_modules()
            if any(hasattr(getattr(p, attr, None), "__wrapped_by_perfbench__")
                   for p in places):
                return False
        return True

    def _wrap(self, name, fn, keep):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        on_result = ON_RESULT.get(name)
        on_error = ON_ERROR.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans) if keep else (parent[1] if parent else None)
            frame = [0.0, span_id]
            if keep:
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None and isinstance(exc, on_error[0]):
                    tracer.counts[on_error[1]] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                wall = end - start
                totals[0] += 1
                totals[1] += wall
                totals[2] += wall - frame[0]
                if parent is not None:
                    parent[0] += wall
                if keep:
                    spans[span_id] = (span_id, name, start, end,
                                      parent[1] if parent else None)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` from the benchmark's own code as a kept span."""
        return self._wrap(name, fn, True)(*args)

    def source(self, source):
        return CountingSource(source, self.counts)

    # --- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Counts and self times of one traced round, by metric name."""
        def calls(name):
            return self.totals.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.totals.get(name, [0, 0.0, 0.0])[2]

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        c = self.counts
        m = {
            "quotients.compose_calls": calls("quotients.compose"),
            "quotients.compose_points": c["quotients.compose_points"],
            "quotients.compose_s": self_s("quotients.compose"),
            "quotients.kimage_tables": calls("quotients.kimage"),
            "quotients.kimage_elems": c["quotients.kimage_elems"],
            "quotients.kimage_s": self_s("quotients.kimage"),
            "quotients.bfs_calls": calls("quotients.bfs"),
            "quotients.bfs_s": self_s("quotients.bfs"),
            "quotients.image_calls": calls("quotients.image"),
            "quotients.image_s": self_s("quotients.image"),
            "quotients.product_calls": calls("quotients.product"),
            "quotients.product_s": self_s("quotients.product"),
            "quotients.max_degree": c["quotients.max_degree"],
            "separation.fold_calls": calls("separation.fold"),
            "separation.fold_edges": c["separation.fold_edges"],
            "separation.fold_merges": c["separation.fold_merges"],
            "separation.fold_s": self_s("separation.fold"),
            "separation.verify_s": self_s("separation.verify"),
            "words.multiply_calls": calls("words.multiply"),
            "words.multiply_s": self_s("words.multiply"),
            "example1.head_certs": c["example1.head_certs"],
            "example1.s_element_calls": calls("example1.s_element"),
            "example1.s_element_s": self_s("example1.s_element"),
            "example2.source_draws": c["example2.source_draws"],
            "example2.cap_retries": c["example2.cap_retries"],
            "example2.choose_r_calls": calls("example2.choose_r"),
            "example2.choose_r_misses": c["example2.choose_r_misses"],
            "example2.choose_r_s": self_s("example2.choose_r"),
            "cli.emit_s": self_s("cli.emit"),
            "cli.load_s": self_s("cli.load"),
        }
        m["quotients.compose_points_per_s"] = rate(m["quotients.compose_points"],
                                                   m["quotients.compose_s"])
        m["quotients.kimage_elems_per_s"] = rate(m["quotients.kimage_elems"],
                                                 m["quotients.kimage_s"])
        m["separation.fold_edges_per_s"] = rate(m["separation.fold_edges"],
                                                m["separation.fold_s"])
        m["example2.steps_per_draw"] = rate(c["example2.steps"],
                                            m["example2.source_draws"])
        return m
