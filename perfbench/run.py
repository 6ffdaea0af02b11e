#!/usr/bin/env python3
"""proficert benchmark: build, emit, load and verify certificates.

    python3 perfbench/run.py --workload {chain,factorial,hall} --seed N \
        --seconds S --trace {0,1}

A closed loop with one caller in one thread: each operation of a round
(see cases.py) builds a certificate, emits it as canonical JSON, loads it
back and verifies it before the next one starts.  Rounds repeat until the
next one would not fit in ``--seconds``; a round's operations and inputs
depend only on the workload and ``--seed``.

The program is imported from ``src/`` of the checkout this file sits in,
so no installed package or console script is needed.  The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced
round (tracing.py), each with the unit BENCHMARK.json declares for it.
Spans of traced rounds are written to
``.perfbench/trace-<workload>-<seed>.json``.

End-to-end times are read from a :class:`speed.SpeedClock`: wall time
rescaled to a fixed machine speed, which a probe samples every few
milliseconds.  Wall times and the mean speed factor go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 15
WORKLOADS = ("chain", "factorial", "hall")


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them under ``kind``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def setup(workload, seed):
    """Import the program, make the inputs and warm up; returns the cases."""
    sys.path.insert(0, str(SRC))
    import cases
    from tracing import NullTracer

    ops = cases.make_cases(workload, seed)
    cases.warm_up(NullTracer())
    return ops


def setup_seconds(workload, seed) -> float:
    """Median set-up time over fresh interpreter processes.

    Each child times its own imports, input generation and warm-up on a
    speed clock, so interpreter start-up is left out and module caches
    start cold.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Round:
    """One pass over the operations: times, verdicts and output digests."""

    def __init__(self, ops, tracer, clock, canonical=False):
        self.certs = 0
        self.cert_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = []   # wrong verdicts other than known defects
        self.digests = []
        self.times = []        # (construct, verify) seconds of each operation
        texts = {}
        for op in ops:
            self.attempted += 1
            try:
                out = op.run(texts, tracer, clock, canonical)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.unexpected.append(f"{op.label}: {type(exc).__name__}: {exc}")
                self.digests.append(None)
                self.times.append((0.0, 0.0))
                continue
            self.times.append((out.construct_s, out.verify_s))
            self.certs += out.certs
            if out.certs:
                self.cert_bytes += len(out.text.encode())
            self.digests.append((out.verdict_ok, hashlib.sha256(out.text.encode()).digest()))
            if not out.verdict_ok:
                self.failed += 1
                if not out.known_defect:
                    self.unexpected.append(f"{op.label}: {out.detail}")

    @property
    def total_s(self):
        return sum(c + v for c, v in self.times)


def run_untraced(ops, seconds):
    """Rounds timed on a speed clock, until the next one would not fit in
    ``seconds`` of wall time."""
    from speed import SpeedClock
    from tracing import NullTracer

    clock = SpeedClock()
    rounds, walls = [], []
    start = perf_counter()
    clock.start()
    try:
        while True:
            t0 = perf_counter()
            rounds.append(Round(ops, NullTracer(), clock.now, canonical=not rounds))
            walls.append(perf_counter() - t0)
            if perf_counter() - start + walls[-1] > seconds:
                break
    finally:
        clock.stop()
    print(f"{len(rounds)} rounds, wall time per round {statistics.median(walls):.3f} s "
          f"(median), mean speed factor {clock.mean_factor():.3f} over {clock.probes} probes",
          file=sys.stderr)
    return rounds


def op_medians(rounds, phase):
    """Sum over a round's operations of each one's median time over rounds.

    A burst of load on the shared machine slows the operations running
    during it; a per-operation median drops it unless it hits the same
    operation in half of the rounds.
    """
    return sum(statistics.median(r.times[i][phase] for r in rounds)
               for i in range(len(rounds[0].times)))


def end_to_end(rounds, setup_s):
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    construct_s = op_medians(rounds, 0)
    verify_s = op_medians(rounds, 1)
    return {
        "construct_s": construct_s,
        "verify_s": verify_s,
        "certs_per_s": rounds[0].certs / (construct_s + verify_s),
        "setup_s": setup_s,
        "cert_bytes": rounds[0].cert_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_ok_ratio": (attempted - failed) / attempted,
    }


def run_traced(ops, seconds, workload, seed):
    """Alternate untraced and traced rounds: at least one and two of them.

    Returns (per-layer metrics, problems, rounds).  Counts must agree
    exactly between traced rounds; main() checks that every round, traced
    or not, gave the same certificates and verdicts.
    """
    from tracing import DETERMINISTIC, NullTracer, Tracer

    plain, traced, tracers, problems = [], [], [], []
    start = perf_counter()
    while True:
        plain.append(Round(ops, NullTracer(), perf_counter, canonical=not plain))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(Round(ops, tracer, perf_counter))
        finally:
            if not tracer.uninstall():
                problems.append("a wrapper was left in place after tracing")
        tracers.append(tracer)
        pair_s = plain[-1].total_s + traced[-1].total_s
        if len(traced) >= 2 and perf_counter() - start + pair_s > seconds:
            break

    layers = [t.layer_metrics() for t in tracers]
    for name in DETERMINISTIC:
        values = {m[name] for m in layers}
        if len(values) != 1:
            problems.append(f"{name} differs between traced rounds: {sorted(values)}")

    metrics = {}
    for name, value in layers[0].items():
        if name in DETERMINISTIC:
            metrics[name] = value
        else:
            metrics[name] = statistics.median(m[name] for m in layers)
    # Wall times: the speed probe would run inside traced spans.  Each
    # traced round is compared with the untraced round just before it, so
    # that both ran at about the same machine speed.
    plain_s = statistics.median(r.total_s for r in plain)
    metrics["bench.trace_overhead"] = statistics.median(
        t.total_s / p.total_s for p, t in zip(plain, traced)) - 1
    # Wrapper overhead falls outside the composition spans, so their total
    # is compared with the untraced round time.
    metrics["quotients.compose_share"] = metrics["quotients.compose_s"] / plain_s

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump([{"totals": t.totals, "counts": dict(t.counts), "spans": t.spans}
                   for t in tracers], fh)
    return metrics, problems, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "proficert" / "__init__.py").is_file():
        print(f"error: no proficert sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        from speed import SpeedClock

        clock = SpeedClock()
        clock.start()
        t0 = clock.now()
        setup(args.workload, args.seed)
        t1 = clock.now()
        clock.stop()
        print(t1 - t0)
        return 0

    if args.trace:
        units = declared_units("per_layer")
        ops = setup(args.workload, args.seed)
        values, problems, rounds = run_traced(ops, args.seconds, args.workload, args.seed)
    else:
        units = declared_units("end_to_end")
        setup_s = setup_seconds(args.workload, args.seed)
        ops = setup(args.workload, args.seed)
        rounds = run_untraced(ops, args.seconds)
        values = end_to_end(rounds, setup_s)
        problems = []
    if set(values) != set(units):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(values) ^ set(units))}")

    for r in rounds:
        problems += r.unexpected
        if r.digests != rounds[0].digests:
            problems.append("rounds with the same inputs gave different outputs")
    for p in dict.fromkeys(problems):
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
