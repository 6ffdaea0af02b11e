#!/usr/bin/env python3
"""Check the traffic claims of ROADMAP.md against a trace of the program.

    python3 perfbench/claims.py

Prints one JSON object with:

* the K-image tables built by one construct and one verify of the default
  chain certificate (partition 2+2, four steps, source seed 0), and the
  permutation compositions each makes;
* the share of the untraced construct + verify time spent composing
  permutations (self time of ``Permutation.__mul__``);
* the median time to fold the merge-heavy subgroups <a^n, a^(n-1)>.

NOTES.md records the output on the reference machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from proficert import example2, separation, words  # noqa: E402

REPEATS = 5


def traced(fn, *args):
    tracer = Tracer()
    tracer.install()
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return result, tracer


def chain_claims():
    build = cases._chain_build(0, 4)
    cert, t_construct = traced(build, NullTracer())
    report, t_verify = traced(example2.verify_ex2, cert)
    plain = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        example2.verify_ex2(build(NullTracer()))
        plain.append(perf_counter() - t0)
    compose_s = (t_construct.totals["quotients.compose"][2]
                 + t_verify.totals["quotients.compose"][2])
    return {
        "construct_kimage_tables": t_construct.totals["quotients.kimage"][0],
        "verify_kimage_tables": t_verify.totals["quotients.kimage"][0],
        "construct_compositions": t_construct.totals["quotients.compose"][0],
        "verify_compositions": t_verify.totals["quotients.compose"][0],
        "untraced_construct_plus_verify_s": statistics.median(plain),
        "compose_share": compose_s / statistics.median(plain),
        "verdict_ok": report.ok,
    }


def fold_claims():
    p = cases.P22
    a = words.parse_word
    out = {}
    for n in (50, 100, 200, 400):
        graph = separation.loop_wedge(p, [a(f"a^{n}", p), a(f"a^{n - 1}", p)])
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            separation.fold(graph)
            times.append(perf_counter() - t0)
        out[f"n={n} ({2 * n - 1} letters)"] = round(statistics.median(times) * 1000, 1)
    return out


if __name__ == "__main__":
    print(json.dumps({"chain_seed0": chain_claims(), "fold_ms": fold_claims()}, indent=2))
