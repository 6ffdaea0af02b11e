"""The benchmark's contract with the package.

``perfbench/tracing.py`` binds dozens of proficert names when it is
imported, and ``perfbench/cases.py`` builds every workload from the public
API.  A refactor that deletes or renames one of them fails here at once
instead of in a benchmark run.
"""

import importlib.util
from pathlib import Path
from time import perf_counter

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


def test_benchmark_known_answers_hold():
    # one untraced round of each workload: every certificate verifies and
    # every hostile edit is rejected by the clause it targets
    cases, run, tracing = load("cases"), load("run"), load("tracing")
    for workload in ("chain", "factorial", "hall"):
        result = run.Round(cases.make_cases(workload, 1), tracing.NullTracer(), perf_counter)
        assert (workload, result.failed, result.unexpected) == (workload, 0, [])
