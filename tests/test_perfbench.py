"""The benchmark's contract with the package.

``perfbench/tracing.py`` binds dozens of proficert names when it is
imported, and ``perfbench/cases.py`` builds every workload from the public
API.  A refactor that deletes or renames one of them fails here at once
instead of in a benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path
from time import perf_counter

from proficert.cli import CERTIFICATES, canonical_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_binds_to_the_package():
    cases, tracing = load("cases"), load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cases.warm_up(tracer)
    finally:
        assert tracer.uninstall()
    assert tracer.counts["example2.source_draws"] > 0
    cases.warm_up(tracing.NullTracer())
    for workload in ("chain", "factorial", "hall"):
        assert cases.make_cases(workload, 0)


# SHA-256 of repr(Round.digests) for each workload's seed-1 round: every
# operation's verdict and the SHA-256 of its output text, in order.  A change
# that alters certificate bytes on purpose re-pins these and names the old
# and new values in CHANGES.md.
ROUND_DIGESTS = {
    "chain": "2d4725818677a498c8cc3bcd48830476bf0684297ab6e3632c8d70a254028bbd",
    "factorial": "7aeca4b13ecc48f0fa4a46c1bf61109551dde48256c4161336030849c58ecca3",
    "hall": "bc8c818ab1c243eb1d892e9ff741ead0b017f65c7fc9692ad53d0f2ab6ae1006",
}


def test_benchmark_known_answers_hold():
    # one untraced round of each workload: every certificate verifies, loads
    # back and emits the same bytes again, every hostile edit is rejected by
    # the clause it targets, and every output keeps its pinned bytes
    cases, run, tracing = load("cases"), load("run"), load("tracing")
    for workload in ("chain", "factorial", "hall"):
        result = run.Round(cases.make_cases(workload, 1), tracing.NullTracer(), perf_counter,
                           canonical=True)
        assert (workload, result.failed, result.unexpected) == (workload, 0, [])
        digest = hashlib.sha256(repr(result.digests).encode()).hexdigest()
        assert (workload, digest) == (workload, ROUND_DIGESTS[workload])


def test_canonical_json_matches_json_dumps_on_a_bench_round():
    # every certificate of one round of each workload, hostile edits
    # included, and the report its verifier renders for the CLI
    cases, tracing = load("cases"), load("tracing")

    def oracle(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    checked = 0
    for workload in ("chain", "factorial", "hall"):
        texts = {}
        for op in cases.make_cases(workload, 1):
            out = op.run(texts, tracing.NullTracer(), perf_counter)
            if not isinstance(op, (cases.RoundTrip, cases.Tampered)):
                continue
            obj = json.loads(out.text)
            assert out.text == oracle(obj) == canonical_json(obj), op.label
            _, from_obj, _, verify, render = CERTIFICATES[obj["type"]]
            report = render(verify(from_obj(obj)))
            assert canonical_json(report) == oracle(report), op.label
            assert canonical_json(json.loads(canonical_json(report))) == oracle(report), op.label
            checked += 1
    assert checked > 200
