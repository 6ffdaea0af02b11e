"""The record types: immutable NamedTuples, plain-data emission, cold start."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from proficert import cli
from proficert.example1 import EX1_PARTITION, not_closed_witness, separate_from_S
from proficert.example2 import construct_ex2, verify_ex2
from proficert.quotients import make_abelian_quotient
from proficert.separation import (
    build_stallings,
    graph_to_obj,
    separate_from_subgroup,
    verify_separation,
)
from proficert.words import IDENTITY, K, L, FactorPartition, Generator, Word, parse_word

SRC = Path(__file__).resolve().parent.parent / "src"
RECORD_TYPES = (
    "Generator", "FactorPartition", "Word", "StallingsGraph", "CheckResult",
    "SeparationCertificate", "PartialAction", "Ex1TailCertificate", "Ex1NotClosedWitness",
    "Ex2Params", "Ex2Step", "Ex2Certificate", "Ex2Clause", "Ex2Report",
)


@pytest.fixture(scope="module")
def records():
    """One record of each type, name -> record, as the constructions make them."""
    p = EX1_PARTITION
    a, b = parse_word("a", p), parse_word("b", p)
    separation = separate_from_subgroup(p, [a], b)
    tail = separate_from_S(parse_word("a b^2", p))
    chain = construct_ex2(steps=2)
    report = verify_ex2(chain)
    found = [a.runs[0][0], p, a, build_stallings(p, [a]), verify_separation(separation),
             separation, separation.quotient, tail, not_closed_witness(make_abelian_quotient(p, 4)),
             chain.params, chain.steps[0], chain, report.clauses[0], report]
    return {type(r).__name__: r for r in found}


def test_every_record_type_is_covered(records):
    assert tuple(records) == RECORD_TYPES


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_immutable_tuples(records, name):
    rec = records[name]
    assert isinstance(rec, tuple) and tuple(rec) == tuple(getattr(rec, f) for f in rec._fields)
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None  # slotted: no instance dict to take a new attribute


def test_validation_messages():
    with pytest.raises(ValueError, match=r"^factor must be 'K' or 'L', got 'M'$"):
        Generator("M", 0)
    for index in (-1, 1.0, "0"):
        with pytest.raises(ValueError, match=r"^generator index must be a nonnegative int, got "):
            Generator(K, index)
    for sizes in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match=r"^each factor needs at least one generator$"):
            FactorPartition(*sizes)
    assert Generator(factor=L, index=2) == Generator(L, 2)
    assert FactorPartition(l_size=3, k_size=2).rank == 5


def test_reprs():
    a, b = Generator(K, 0), Generator(L, 1)
    assert repr(a) == "K0" and str(b) == "L1"
    assert repr(Word(((a, 2), (b, -1), (a, 1)))) == "Word(K0^2 L1^-1 K0)"
    assert repr(IDENTITY) == "Word(1)"
    assert repr(FactorPartition(1, 2)) == "FactorPartition(k_size=1, l_size=2)"


def test_hash_and_equality_are_those_of_the_field_tuple():
    # set and frozenset orders follow these hashes, so certificates keep their bytes
    assert hash(Generator(K, 0)) == hash((K, 0))
    assert hash(FactorPartition(2, 3)) == hash((2, 3))
    runs = ((("L", 0), 5),)
    w = Word(((Generator(L, 0), 5),))
    assert hash(w) == hash((runs,)) and w == (runs,)
    assert sorted([Generator(L, 0), Generator(K, 1), Generator(K, 0)]) == [
        Generator(K, 0), Generator(K, 1), Generator(L, 0)]


def test_reports_keep_their_truth_value(records):
    check, report = records["CheckResult"], records["Ex2Report"]
    assert check and check.ok
    assert not check._replace(ok=False)
    assert report and report.ok and report.failures() == ()
    bad = report._replace(clauses=report.clauses + (report.clauses[0]._replace(ok=False),))
    assert not bad and not bad.ok and len(bad.failures()) == 1


def _plain(x) -> bool:
    """True when ``x`` is built from dicts, lists and scalars only: a record
    handed to ``json.dumps`` would be written as a list, silently."""
    if type(x) is dict:
        return all(type(k) is str and _plain(v) for k, v in x.items())
    if type(x) is list:
        return all(map(_plain, x))
    return type(x) in (str, int, bool, type(None))


def test_emitted_objects_hold_no_records(records):
    for tag, (cls, _, to_obj, verify, render) in cli.CERTIFICATES.items():
        cert = records[cls.__name__]
        assert _plain(to_obj(cert)) and _plain(render(verify(cert))), tag
    assert _plain(graph_to_obj(records["StallingsGraph"]))


def test_cold_start_imports_no_dataclasses_or_string():
    # nor pathlib, which pulls in urllib.parse and fnmatch: about 8 ms of
    # every start with no bytecode cache
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import proficert.cli
        print(sorted({{"dataclasses", "string", "pathlib"}} & set(sys.modules)))
        print(len([m for m in sys.modules if m.startswith("proficert.")]))
    """)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, package_modules = proc.stdout.split("\n")[:2]
    assert loaded == "[]"
    assert int(package_modules) >= 7  # the whole package was imported
