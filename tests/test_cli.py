"""End-to-end command-line behavior: outputs, exit codes, byte stability."""

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from proficert.cli import _build_parser, canonical_json, emit_certificate, load_certificate, main
from proficert.example1 import DEFAULT_HEAD_CAP, s_family
from proficert.quotients import make_abelian_quotient, quotient_to_obj
from proficert.words import FactorPartition, format_word

from fixtures import indented, indented_digest

P11 = FactorPartition(1, 1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- canonical JSON ---------------------------------------------------------------


def dumps_oracle(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def string_keyed(value):
    """Whether every dict in ``value`` has only str keys: other keys are
    written as strings and sorted as they were, so their text need not be
    its own re-emission."""
    if isinstance(value, dict):
        return all(type(k) is str and string_keyed(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(string_keyed, value))
    return True


def either_text_or_error(fn, obj):
    try:
        return fn(obj)
    except Exception as exc:
        return type(exc)


# leaves that stress escaping and number formatting
JSON_STRINGS = ("", "a", '"', "\\", "\\\"", "\n\r\t\b\f", "\x00\x1f\x7f", "caf\u00e9",
                "\u2028\u2029", "\U0001f600", "\ud800", "a^-1 b^720", " ")
JSON_LEAVES = (None, True, False, 0, 1, -1, -7, 255, 256, 2 ** 63, -(10 ** 40),
               0.0, -0.0, 0.5, -2.5, 1e300, 1e-300, float("inf"), float("-inf"),
               float("nan")) + JSON_STRINGS
INT_EDGES = (0, 4095, 4096, -1, 2 ** 63, 10 ** 40)


def random_json_value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        if rng.random() < 0.5:
            return rng.choice(JSON_LEAVES)
        return "".join(rng.choice(JSON_STRINGS) for _ in range(rng.randrange(4)))
    size = rng.randrange(5)
    if roll < 0.55:
        return [random_json_value(rng, depth - 1) for _ in range(size)]
    if roll < 0.65:
        return tuple(random_json_value(rng, depth - 1) for _ in range(size))
    if roll < 0.70:
        return [rng.randrange(-1000, 1000) for _ in range(size)]
    if roll < 0.75:
        # small, large and negative ints in one list
        return [rng.choice(INT_EDGES) for _ in range(size)]
    if roll < 0.95:
        keys = JSON_STRINGS + ("type", "k_size", "images")
        return {rng.choice(keys): random_json_value(rng, depth - 1) for _ in range(size)}
    # non-string keys: numbers sort and are written as strings, mixed types
    # make sorting fail
    keys = rng.choice(([1, 2, -3, 10], [0.5, 2, True], ["a", 1]))
    return {k: random_json_value(rng, depth - 1) for k in keys[:size]}


def test_canonical_json_matches_json_dumps_on_random_values():
    rng = random.Random(20261018)
    values = [random_json_value(rng, 4) for _ in range(2000)]
    values += [[], {}, (), [[]], {"a": {}}, {"a": []}, [1, True], [1, 1.0], [None, 0],
               list(INT_EDGES), [4095, 4096], (-1, 0), {"images": [[4095], [4096, 0]]}]
    reemitted = 0
    for value in values:
        text = either_text_or_error(canonical_json, value)
        assert text == either_text_or_error(dumps_oracle, value), value
        if isinstance(text, str) and string_keyed(value):
            assert canonical_json(json.loads(text)) == text, value
            reemitted += 1
    assert reemitted > 1000


@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1, x], lambda x: {"k": x},
                                  lambda x: {"k": [x]}])
def test_canonical_json_refuses_what_json_dumps_refuses(wrap):
    for bad in (10 ** 5000, object(), {1, 2}):
        with pytest.raises(Exception) as ours:
            canonical_json(wrap(bad))
        with pytest.raises(Exception) as theirs:
            dumps_oracle(wrap(bad))
        assert ours.type is theirs.type


# --- word-level commands --------------------------------------------------------


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "a a^-1 b")
    assert (code, out) == (0, "b\n")


def test_reduce_wider_partition(capsys):
    code, out, _ = run(capsys, "reduce", "a^2 c c^-1 d", "--k-size", "2", "--l-size", "2")
    assert (code, out) == (0, "a^2 d\n")


def test_reduce_rejects_garbage(capsys):
    code, _, err = run(capsys, "reduce", "a^")
    assert code == 2
    assert "error" in err


def test_image_abelian(capsys):
    code, out, _ = run(capsys, "image", "--word", "a^7", "--abelian", "5")
    assert code == 0
    assert json.loads(out) == {"kind": "abelian", "modulus": 5, "vector": [2, 0]}


def test_image_abelian_modulus_past_cap_exits_3(capsys):
    code, out, err = run(capsys, "image", "--word", "a", "--abelian", "1000000000")
    assert code == 3 and out == ""
    assert "enumeration cap" in err


def test_image_from_quotient_file(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(canonical_json(quotient_to_obj(make_abelian_quotient(P11, 5))))
    code, out, _ = run(capsys, "image", "--word", "a", "--quotient", str(path))
    assert code == 0
    assert json.loads(out)["vector"] == [1, 0]


def test_image_requires_a_quotient(capsys):
    code, _, err = run(capsys, "image", "--word", "a")
    assert code == 2
    assert "--quotient" in err or "--abelian" in err


@pytest.mark.parametrize("command", ["image", "distance"])
def test_image_and_distance_refuse_a_partial_action(capsys, tmp_path, command):
    # a Hall certificate's partial action witnesses one separation; it is no
    # finite quotient that words can be imaged in
    _, out, _ = run(capsys, "separate", "--word", "a", "--gen", "a^2", "--gen", "b")
    path = tmp_path / "partial.json"
    path.write_text(canonical_json(json.loads(out)["quotient"]))
    code, out, err = run(capsys, command, "--word", "a", "--quotient", str(path))
    assert (code, out) == (2, "")
    assert err == "error: quotient.kind: expected 'perm' or 'abelian', got 'partial'\n"


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "--word", "a b", "--abelian", "5")
    assert (code, json.loads(out)) == (0, {"distance": 2})
    code, out, _ = run(capsys, "distance", "--word", "a b", "--abelian", "5",
                       "--max-radius", "1")
    assert (code, json.loads(out)) == (0, {"distance": None})
    code, out, err = run(capsys, "distance", "--word", "1", "--abelian", "2",
                         "--max-radius", "-1")
    assert (code, out) == (2, "")
    assert "max_radius" in err


def test_stallings(capsys):
    code, out, _ = run(capsys, "stallings", "--gen", "a^2", "--gen", "b")
    assert code == 0
    json.loads(out)
    code, out, _ = run(capsys, "stallings", "--gen", "a^2", "--gen", "b", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_separate_subgroup_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "separate", "--word", "a", "--gen", "a^2", "--gen", "b")
    assert code == 0
    obj = json.loads(out)
    assert obj["type"] == "separation"
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run(capsys, "ex1-verify", str(path))
    assert code == 0
    assert json.loads(out) == {"ok": True, "reasons": []}


def test_separate_member_is_an_error(capsys):
    code, _, err = run(capsys, "separate", "--word", "a^2", "--gen", "a^2", "--gen", "b")
    assert code == 2
    assert "error" in err


# --- family commands --------------------------------------------------------------


def test_ex1_elem(capsys):
    assert run(capsys, "ex1-elem", "3") == (0, "a^6 b^4\n", "")
    assert run(capsys, "ex1-elem", "4", "--kind", "a") == (0, "a^24\n", "")
    assert run(capsys, "ex1-elem", "5", "--kind", "m") == (0, "16\n", "")
    code, out, _ = run(capsys, "ex1-elem", str(DEFAULT_HEAD_CAP))  # the cap itself
    assert code == 0 and out.startswith("a^") and " b^" in out


def test_ex1_separate_and_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "ex1-separate", "--word", "b")
    assert code == 0
    obj = json.loads(out)
    assert obj["type"] == "ex1_tail"
    assert obj["modulus"] == "2"
    path = tmp_path / "tail.json"
    path.write_text(out)
    code, out, _ = run(capsys, "ex1-verify", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_ex1_separate_rejects_family_member(capsys):
    code, _, err = run(capsys, "ex1-separate", "--word", "a^6 b^4")
    assert code == 2
    assert "error" in err
    # a member past the head cap is still refused as a member
    *_, (_, s_1500) = s_family(1501)
    code, out, err = run(capsys, "ex1-separate", "--word", format_word(s_1500, P11))
    assert (code, out) == (2, "")
    assert err == "error: the target word equals s_1500 and lies in the family\n"


def test_ex1_witness_and_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "ex1-witness", "--abelian", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["type"] == "ex1_not_closed"
    assert obj["k"] == 4
    assert set(obj) == {"type", "quotient", "k"}
    path = tmp_path / "witness.json"
    path.write_text(out)
    code, out, _ = run(capsys, "ex1-verify", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


# --- the chain certificate ----------------------------------------------------------


@pytest.fixture()
def chain(capsys, tmp_path):
    code, out, _ = run(capsys, "ex2-construct", "--steps", "2")
    assert code == 0
    path = tmp_path / "chain.json"
    path.write_text(out)
    return path, out


def test_ex2_construct_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "ex2-construct", "--steps", "2")
    _, second, _ = run(capsys, "ex2-construct", "--steps", "2")
    assert first == second


def test_ex2_emit_load_round_trip(chain):
    path, out = chain
    cert = load_certificate(path)
    assert emit_certificate(cert) == out


def test_ex2_verify_green(capsys, chain):
    path, _ = chain
    code, out, _ = run(capsys, "ex2-verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert isinstance(report, list)
    for entry in report:
        assert set(entry) == {"clause", "m", "k", "pass", "detail"}
        assert entry["pass"] is True


def test_ex2_verify_rejects_corruption(capsys, chain):
    path, out = chain
    obj = json.loads(out)
    obj["steps"][1]["s"] = obj["steps"][1]["r"]
    path.write_text(canonical_json(obj))
    code, out, _ = run(capsys, "ex2-verify", str(path))
    assert code == 1
    failing = {entry["clause"] for entry in json.loads(out) if not entry["pass"]}
    assert "condition3" in failing
    assert "step-structure" in failing


def test_ex2_construct_cap_exceeded(capsys):
    code, _, err = run(capsys, "ex2-construct", "--steps", "2", "--cap", "50")
    assert code == 3
    assert "error" in err


def test_cap_flag_only_where_a_quotient_is_loaded_or_enumerated(capsys):
    # Hall and tail separation build their quotients and take images, but
    # never enumerate one
    with_cap = set()
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    for command in subcommands:
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        if "--cap" in out:
            with_cap.add(command)
    assert with_cap == {"image", "distance", "ex1-verify", "ex1-witness",
                        "ex2-construct", "ex2-verify", "ex2-witness"}


@pytest.mark.parametrize("argv", [
    ("separate", "--word", "a", "--gen", "a^2", "--cap", "5"),
    ("ex1-separate", "--word", "b", "--cap", "5"),
])
def test_separations_take_no_cap(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --cap 5" in err


def test_ex2_witness_kinds(capsys, chain):
    path, _ = chain
    code, body, _ = run(capsys, "ex2-witness", str(path), "--step", "1", "--dot")
    assert code == 0
    assert body.startswith("digraph")


def test_ex2_witness_errors(capsys, chain):
    path, _ = chain
    code, out, err = run(capsys, "ex2-witness", str(path), "--step", "9", "--dot")
    assert (code, out) == (2, "")
    assert err == "error: step index must be in 1..2, got 9\n"
    # the JSON witnesses are gone: without --dot there is nothing to write
    code, out, err = run(capsys, "ex2-witness", str(path), "--step", "1")
    assert (code, out) == (2, "")
    assert "the following arguments are required: --dot" in err


@pytest.mark.parametrize("params", [{"f_values": [2, 3, 4]}, {"f_values": [2]}])
def test_chain_with_fewer_steps_or_f_values_than_params_steps(capsys, chain, params):
    # a step reads its bound from params.f_values: with one f value for two
    # steps ex2-verify indexed past the list, and with three ex2-witness
    # --step 3 indexed past the steps, each an IndexError
    path, text = chain
    obj = json.loads(text)
    obj["params"].update(params)
    path.write_text(canonical_json(obj))
    code, out, _ = run(capsys, "ex2-verify", str(path))
    assert code == 1
    assert {c["clause"] for c in json.loads(out) if not c["pass"]} == {"params-structure"}
    f_count = len(obj["params"]["f_values"])
    for argv in (("--step", str(f_count), "--dot"), ("--step", "1", "--dot")):
        code, out, err = run(capsys, "ex2-witness", str(path), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: the chain has 2 steps but {f_count} f values\n"


# --- error handling ---------------------------------------------------------------


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_subcommand(capsys):
    assert run(capsys)[0] == 2


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "ex1-verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(capsys, "ex2-verify", str(path))[0] == 2


def test_verify_names_the_file_of_an_integer_past_the_digit_limit(capsys, tmp_path):
    # json refuses more than 4,300 digits with a bare ValueError, which was
    # printed without the file's name
    path = tmp_path / "witness.json"
    path.write_text('{"k":' + "9" * 5000 + ',"quotient":{"kind":"abelian","modulus":4},'
                    '"type":"ex1_not_closed"}\n')
    code, out, err = run(capsys, "ex1-verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid JSON: Exceeds the limit (4300 digits)")


def test_verify_unknown_type(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"type": "mystery"}')
    code, _, err = run(capsys, "ex1-verify", str(path))
    assert code == 2
    assert "mystery" in err
    path.write_text('{"type": ["ex2"]}')
    code, _, err = run(capsys, "ex2-verify", str(path))
    assert code == 2
    assert "unknown certificate type" in err


def test_verify_wrong_type_for_subcommand(capsys, tmp_path, chain):
    chain_path, _ = chain
    code, out, _ = run(capsys, "ex1-separate", "--word", "b")
    tail = tmp_path / "tail.json"
    tail.write_text(out)
    assert run(capsys, "ex2-verify", str(tail))[0] == 2
    assert run(capsys, "ex2-witness", str(tail), "--step", "1", "--dot")[0] == 2


def test_schema_error_reports_field_path(capsys, tmp_path, chain):
    path, out = chain
    obj = json.loads(out)
    del obj["steps"]
    bad = tmp_path / "truncated.json"
    bad.write_text(canonical_json(obj))
    code, _, err = run(capsys, "ex2-verify", str(bad))
    assert code == 2
    assert "steps" in err

    obj = json.loads(out)
    obj["unexpected"] = 1
    bad.write_text(canonical_json(obj))
    code, _, err = run(capsys, "ex2-verify", str(bad))
    assert code == 2
    assert "unexpected" in err


@pytest.mark.parametrize("field, value", [
    ("head_bound", "200000"),
    ("modulus", str(2 ** 89 - 1)),  # a prime that trial division cannot factor
    ("k", 300000),  # of a not-closed witness rather than a tail certificate
])
def test_ex1_verify_bounded_on_hostile_tail_sizes(capsys, tmp_path, field, value):
    # a verifier that trusts these fields runs for minutes: it builds a^(j!)
    # for every j below the head bound, trial-divides the modulus, or builds
    # k! and m_k
    if field == "k":
        _, out, _ = run(capsys, "ex1-witness", "--abelian", "4")
    else:
        _, out, _ = run(capsys, "ex1-separate", "--word", "b")
    obj = json.loads(out)
    obj[field] = value
    path = tmp_path / "tail.json"
    path.write_text(canonical_json(obj))
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=2)
    if field == "k":
        assert result.returncode == 3
        assert f"head cap {DEFAULT_HEAD_CAP} exceeded" in result.stderr
    else:
        assert result.returncode == 1
        assert json.loads(result.stdout)["ok"] is False


@pytest.mark.parametrize("argv", [
    ("ex1-separate", "--word", "b^1024"),  # head bound 2048
    ("ex1-separate", "--word", "b^" + "9" * 4000),  # one walk of s_1 .. s_1464
    ("ex1-witness", "--abelian", "2000"),  # k = 2000
    ("ex1-elem", "2000"),  # 2000! has 5,736 digits
    ("ex1-elem", "20000", "--kind", "m"),  # lcm(1..20000) has 8,676
    ("ex1-elem", "1025", "--kind", "m"),  # printable, but past the cap all the same
    ("ex1-separate", "--word", "b^" + "9" * 4300),  # head bound of 4,301 digits
])
def test_ex1_head_cap_refuses_factorials_past_the_digit_limit(argv):
    # j! has more than 4,300 digits once j > 1,558, which CPython will not
    # convert to a string; under a head cap of 4096 the first two commands
    # built the family and then exited 2 while writing it, and uncapped
    # ex1-elem exited 2 the same way; a head bound past 4,300 digits exited
    # 2 while writing the refusal, and one below wrote all of its digits
    result = run_process(sys.executable, "-m", "proficert", *argv, timeout=2)
    assert result.returncode == 3
    assert f"head cap {DEFAULT_HEAD_CAP} exceeded" in result.stderr
    assert result.stderr.count("\n") == 1 and len(result.stderr) < 200
    assert result.stdout == ""


def test_ex1_separate_at_the_head_cap(tmp_path):
    # b^1023 has head bound 1024, the cap itself: 1023! has 2,637 digits
    path = tmp_path / "tail.json"
    result = run_process(sys.executable, "-m", "proficert", "ex1-separate",
                         "--word", "b^1023", timeout=30)
    assert result.returncode == 0
    assert json.loads(result.stdout)["head_bound"] == str(DEFAULT_HEAD_CAP)
    path.write_text(result.stdout)
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=30)
    assert result.returncode == 0
    assert json.loads(result.stdout)["ok"] is True


def test_ex1_verify_budgets_the_points_of_all_heads(capsys, tmp_path):
    # three 40-byte abelian heads of 500,000 points each, every one under the
    # cap: loading them one by one peaked at about 150 MB before the file's
    # points were summed up front
    _, out, _ = run(capsys, "ex1-separate", "--word", "b")
    obj = json.loads(out)
    obj["head_certificates"] = [{"kind": "abelian", "modulus": 250_000}] * 3
    path = tmp_path / "tail.json"
    path.write_text(canonical_json(obj))
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=2)
    assert result.returncode == 3
    assert "points of the file's quotients" in result.stderr


def test_ex1_verify_builds_each_large_head_quotient_within_bounds(capsys, tmp_path):
    # 255 heads that all declare the abelian quotient mod 400: 800 points,
    # past the size that make_abelian_quotient shares, so each head builds
    # its own (408,000 points against the file's budget of a million)
    _, out, _ = run(capsys, "ex1-separate", "--word", "b^255")
    obj = json.loads(out)
    assert len(obj["head_certificates"]) == 255
    obj["head_certificates"] = [{"kind": "abelian", "modulus": 400}] * 255
    path = tmp_path / "tail.json"
    path.write_text(canonical_json(obj))
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=5, address_space=512 * 2 ** 20)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"ok": True, "reasons": []}


def wide_separation_file(tmp_path, k_size, modulus):
    obj = {"type": "separation", "partition": {"k_size": k_size, "l_size": 1},
           "quotient": {"kind": "abelian", "modulus": modulus},
           "subgroup_gens": [], "excluded": "a"}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    return path


def test_partition_past_the_letter_syntax_is_a_schema_error(tmp_path):
    # 99+1 generators at modulus 1000: 100 images of 100,000 points loaded at
    # about 100 MB peak, and the verdict listed one "letter syntax supports at
    # most 26 generators" reason per generator
    path = wide_separation_file(tmp_path, 99, 1000)
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=2)
    assert result.returncode == 2
    assert "certificate.partition" in result.stderr and "26" in result.stderr
    assert result.stdout == ""


def test_abelian_quotient_counts_every_image_entry(tmp_path):
    # 25+1 generators at modulus 38,461: 999,986 points, under the cap, but 26
    # images of them each; this verified in about 4 s at a 345 MB peak
    path = wide_separation_file(tmp_path, 25, 38_461)
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=2)
    assert result.returncode == 3
    assert "abelian modulus 38461" in result.stderr
    assert result.stdout == ""


def test_ex2_verify_refuses_a_symmetric_k_image(tmp_path):
    # the K-images of this degree-200 step, a 200-cycle and a transposition,
    # generate S_200: its stabilizer chain runs out of the cap, and a K-image
    # table would have enumerated a million elements first
    points = list(range(200))
    step = {"quotient": {"kind": "perm", "degree": 200, "images": {
                "a": points[1:] + points[:1], "b": [1, 0] + points[2:],
                "c": points, "d": points}},
            "r": "a^3", "s": "a^3 c", "e": 1, "k_index": 1}
    obj = {"type": "ex2", "params": {
               "partition": {"k_size": 2, "l_size": 2}, "f_values": [2],
               "source": {"kind": "hand", "seed": 0}, "enumeration_cap": 10 ** 6},
           "steps": [step], "reciprocal_sum": "1"}
    path = tmp_path / "symmetric.json"
    path.write_text(canonical_json(obj))
    result = run_process(sys.executable, "-m", "proficert", "ex2-verify", str(path),
                         timeout=5, address_space=2 ** 30)
    assert result.returncode == 3
    assert "(stabilizer chain)" in result.stderr
    assert result.stdout == ""


# --- entry point, run as a separate process ------------------------------------------

# The checkout's own sources come first on the child's path, so the subprocess
# tests this tree rather than some other installed copy of the package.
ROOT = Path(__file__).resolve().parent.parent


def run_process(*argv, timeout=None, address_space=None):
    """Run argv with this checkout's sources; ``address_space`` caps the
    child's virtual memory (RLIMIT_AS) in bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    return subprocess.run(list(argv), capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=limit)


@pytest.mark.parametrize("word,code,message", [
    ("a^200000", 2, "the excluded word lies in the subgroup"),
    ("a^200001", 3, "letter expansion of a long word"),
])
def test_separate_word_past_the_path_cap(word, code, message):
    # a member too long to lay as a path is still refused as a member; a
    # non-member that long cannot be separated within the letter cap
    result = run_process(sys.executable, "-m", "proficert", "separate",
                         "--gen", "a^2", "--word", word, timeout=5)
    assert (result.returncode, result.stdout) == (code, "")
    assert message in result.stderr


@pytest.mark.parametrize("argv", [
    ("reduce", "a", "--k-size", "1000000"),
    ("stallings", "--gen", "a", "--l-size", "1000000"),
    ("reduce", "a", "--k-size", "20", "--l-size", "7"),
])
def test_partition_flags_past_the_letter_syntax(argv):
    # a rank-10^6 partition was listed generator by generator first:
    # reduce took about 2 s and 154 MB before it refused the word
    result = run_process(sys.executable, "-m", "proficert", *argv, timeout=5)
    assert (result.returncode, result.stdout) == (2, "")
    assert "the letter syntax names at most 26 generators" in result.stderr


def test_cap_errors_name_their_cap(capsys, tmp_path):
    result = run_process(sys.executable, "-m", "proficert", "separate",
                         "--gen", "a^2", "--word", "a^200001", timeout=5)
    assert result.returncode == 3
    assert result.stderr == ("error: path letter cap 100000 exceeded "
                             "(letter expansion of a long word)\n")
    _, out, _ = run(capsys, "ex1-separate", "--word", "b")
    obj = json.loads(out)
    obj["composite_quotient"] = {"kind": "perm", "degree": 2_000_000, "images": {}}
    path = tmp_path / "tail.json"
    path.write_text(canonical_json(obj))
    code, out, err = run(capsys, "ex1-verify", str(path))
    assert (code, out) == (3, "")
    assert err == ("error: point budget 1000000 exceeded "
                   "(points of the file's quotients together)\n")
    code, _, err = run(capsys, "image", "--word", "a", "--abelian", "1000000000")
    assert code == 3
    assert err.startswith("error: enumeration cap 1000000 exceeded")


@pytest.mark.parametrize("steps", ["97", "100000000"])
def test_ex2_construct_refuses_more_steps_than_draws(steps):
    # each step needs a draw of its own, so past --draws (96) no chain can
    # be built; under 1 GB these died of MemoryError (exit 1) in 4 to 12 s
    result = run_process(sys.executable, "-m", "proficert", "ex2-construct",
                         "--steps", steps, timeout=5, address_space=2 ** 30)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "error: source draw limit 96 exceeded (quotient source draws)\n"


def test_stallings_folds_long_merge_heavy_subgroup():
    # <a^n, a^(n-1)> = <a>; a fold that rescans every edge after each of its
    # ~2n merges needs minutes on this input
    result = run_process(sys.executable, "-m", "proficert", "stallings",
                         "--gen", "a^20000", "--gen", "a^19999", timeout=10)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "edges": [[0, "a", 0]], "folded": True, "num_vertices": 1,
        "partition": {"k_size": 1, "l_size": 1}}


def check_reduce_across_process(*command):
    result = run_process(*command, "reduce", "a a^-1 b")
    assert (result.returncode, result.stdout, result.stderr) == (0, "b\n", "")
    result = run_process(*command, "reduce", "a^")
    assert result.returncode == 2
    assert "error" in result.stderr


def declared_script(name):
    """The ``name = "module:function"`` target under ``[project.scripts]``.

    A line scan rather than ``tomllib``, which only exists from Python 3.11
    while the project supports 3.10.
    """
    section = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key == name:
                return value.strip("\"'")
    return None


def test_console_script():
    # The target pyproject.toml declares, called the way the setuptools
    # console-script wrapper calls it; read from the file itself, not from
    # importlib.metadata, which reports whatever build metadata lies on the path.
    target = declared_script("proficert")
    assert target == "proficert.cli:main"
    wrapper = "import sys; from proficert.cli import main; sys.exit(main())"
    check_reduce_across_process(sys.executable, "-c", wrapper)
    check_reduce_across_process(sys.executable, "-m", "proficert")
    check_reduce_across_process(sys.executable, "-m", "proficert.cli")


@pytest.mark.skipif(shutil.which("proficert") is None,
                    reason="no installed proficert console script on PATH")
def test_installed_console_script():
    check_reduce_across_process(shutil.which("proficert"))


# --- output bytes, pinned ---------------------------------------------------------

# One row per command: (file to save stdout as, argv, exit code, sha256 of
# stdout, exact stderr or None).  "{name}" in an argument is the path of a
# file saved by an earlier row or derived from one by ``DERIVED``.  The
# digests were recorded before the certificate types shared one table in
# the CLI, and pin that every command still prints the same bytes.  The two
# ``ex2-verify`` rows were recorded again when "chain-containment" became an
# exact block-restriction check, and again when "chain-descent" came to read
# the K-index ratio instead of a witness word; each time only that clause's
# details changed.  The two ``ex1-separate`` rows were recorded again when
# the composite quotient came to take each distinct factor once; only its
# ``composite_quotient`` field changed.  The ``separate``, ``ex1-separate``,
# ``ex1-witness`` and ``ex2-construct`` rows were recorded again when
# certificates stopped restating what their verifier derives: each equals
# the earlier output with ``witness_kind``, ``s_element``, ``cofactor`` and
# each step's ``f_value`` deleted.  The two ``ex1-separate`` rows were
# recorded again when a tail head came to be its quotient and excluded word
# alone: each equals the earlier output with every head's ``type``,
# ``partition`` and ``subgroup_gens`` deleted.  The ``separate``,
# ``ex1-separate``, ``ex1-witness`` and ``ex2-construct`` rows were recorded
# again when certificates stopped writing what no verifier reads: each equals
# the earlier output with the tail's and the witness's ``partition``, every
# partial action's ``degree``, and the chain's ``params.steps`` and
# ``params.max_source_draws`` deleted.  JSON outputs are compact now, and
# their digests are of the indented layout they were recorded in
# (``indented_digest``); any other output is hashed as printed.  The JSON
# rows of ``ex2-witness`` went with the Example 2 witness helpers, whose
# facts ``verify_ex2``'s clauses imply; its drawing needs ``--dot`` now.
PINNED_QUOTIENT = {"degree": 3, "images": {"a": [1, 2, 0], "b": [0, 2, 1]}, "kind": "perm"}


def _tamper_tail(obj):
    # b^2 is 0 mod n = 2, the tail value (b^3 is not, and the file proves
    # b^3 outside S as well as b)
    obj["target_word"] = "b^2"


def _tamper_chain(obj):
    obj["steps"][1]["s"] = obj["steps"][1]["r"]


DERIVED = {"tail": ("bad_tail", _tamper_tail), "chain": ("bad_chain", _tamper_chain)}

PINNED = (
    (None, ("reduce", "a a^-1 b"), 0,
     "0263829989b6fd954f72baaf2fc64bc2e2f01d692d4de72986ea808f6e99813f", None),
    (None, ("reduce", "a^2 c c^-1 d", "--k-size", "2", "--l-size", "2"), 0,
     "9ea0a8ddaf721fb58260e95a3f3080b2f4ffce9bd871485c8793694513920041", None),
    (None, ("reduce", "a^"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    (None, ("image", "--word", "a^7", "--abelian", "5"), 0,
     "b911356f3e97b6d4c5041fcf27b3a8e17f7a9d253a80977a12b2f3f55778160c", None),
    (None, ("image", "--word", "a b^-1", "--quotient", "{quotient}"), 0,
     "5332589dace8d949f0dc14a14f30cfe691b4225ccd7401b302b6baa02cb327e0", None),
    (None, ("distance", "--word", "a b", "--abelian", "5"), 0,
     "6a58c3344e1dcae68504a36832a0a6a1e51df2218659c095ae7b8595b46ce5d2", None),
    (None, ("distance", "--word", "a b", "--abelian", "5", "--max-radius", "1"), 0,
     "628847dda76bd11cf5abd843559d239c54ec1c742eb31654aaf704b750315a53", None),
    (None, ("distance", "--word", "a b^-1", "--quotient", "{quotient}"), 0,
     "6a58c3344e1dcae68504a36832a0a6a1e51df2218659c095ae7b8595b46ce5d2", None),
    (None, ("stallings", "--gen", "a^2", "--gen", "b a b^-1"), 0,
     "e6732448a041276ccfea92915dbe0f1e22b18f5f136bc5742c946d2e58dde185", None),
    (None, ("stallings", "--gen", "a^2", "--gen", "b a b^-1", "--dot"), 0,
     "37f8d1849154801adce21109480dc49abf9a9d8b285c2d2557828e2ce047c8c4", None),
    ("sep", ("separate", "--word", "a", "--gen", "a^2", "--gen", "b"), 0,
     "df60add86985df6590123d38a6dda78b0241c319fe136ce9632c487e06147c33", None),
    ("sep_id", ("separate", "--word", "a b a^-1 b^-1"), 0,
     "b637c3a7de8e2555f07ba19048a4cb975c88284a0a7228a191581cd5975a03df", None),
    (None, ("ex1-elem", "5"), 0,
     "5c2f853beb8bccb625360d200db7c7cfcc76b709652f0de4f6bffba1eb8cfc9a", None),
    (None, ("ex1-elem", "4", "--kind", "a"), 0,
     "5cd326ba1148c69f0c2d55c656be0ca9c08fdfff3e620bcb153335bb6134550b", None),
    (None, ("ex1-elem", "5", "--kind", "m"), 0,
     "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017", None),
    ("tail", ("ex1-separate", "--word", "b"), 0,
     "075cbe98bd61e940a12dfd4a51e3e0e6aafd74077e4089cf7c7ed62eaf57d4f0", None),
    (None, ("ex1-separate", "--word", "b a^-1", "--head-margin", "3"), 0,
     "71cd799430e703d034753fcd31d4feef337986b0ee81648ea21302ea215fd8ed", None),
    ("witness", ("ex1-witness", "--abelian", "4"), 0,
     "0a3373456fcaaae592f9f91d715d63961a4e16275f90e00fe21bd6e9894fde90", None),
    (None, ("ex1-witness", "--quotient", "{quotient}"), 0,
     "737d917b37124858a840fcbbf0123b58542142df95825fcaff68e5ba18b296f0", None),
    (None, ("ex1-verify", "{sep}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    (None, ("ex1-verify", "{sep_id}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    (None, ("ex1-verify", "{tail}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    (None, ("ex1-verify", "{bad_tail}"), 1,
     "ac16f73e3368157b5964771e36a04d7c80bf72a6d0be87e6db78d1c6119b4b55", None),
    (None, ("ex1-verify", "{witness}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    ("chain", ("ex2-construct",), 0,
     "d38299bbbb592e5534d02f75d38e056d3ea325ed82262316ff6938eb432a5ed1", None),
    (None, ("ex2-construct", "--steps", "2", "--seed", "3", "--f", "2,4"), 0,
     "2dcfc282902e54b43467ac974a8584f8b50b17771e5dfd9f7692ad0faac52023", None),
    (None, ("ex2-construct", "--steps", "2", "--cap", "50"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    (None, ("ex2-verify", "{chain}"), 0,
     "b21d3ca763ed1fc660604a4999a8c08ab1bbabeb3051895eb095d488ee44ebda", None),
    (None, ("ex2-verify", "{bad_chain}"), 1,
     "e0619388dea1cf5d530d54f443d647415430df243f4acce7265dbe91db11d4a3", None),
    (None, ("ex2-witness", "{chain}", "--step", "1", "--dot"), 0,
     "df1dd72731ec1227f0d6da81fe7f3efff3f02360ccce2130ca6294f42b92dac1", None),
    (None, ("ex2-witness", "{chain}", "--step", "1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    (None, ("ex2-verify", "{tail}"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: ex2-verify expects an ex2 certificate\n"),
    (None, ("ex2-witness", "{tail}", "--step", "1", "--dot"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: ex2-witness expects an ex2 certificate\n"),
    (None, ("ex1-verify", "{chain}"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: ex1-verify expects a separation, ex1_tail, or ex1_not_closed certificate\n"),
)


def run_pinned(capsys, tmp_path):
    """Run every row of ``PINNED``; returns (row, code, digest, stderr) tuples."""
    files = {"quotient": tmp_path / "quotient.json"}
    files["quotient"].write_text(canonical_json(PINNED_QUOTIENT))
    results = []
    for save, argv, *_ in PINNED:
        args = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
        code, out, err = run(capsys, *args)
        digest = (indented_digest(out) if out.startswith(("{", "["))
                  else hashlib.sha256(out.encode()).hexdigest())
        results.append((argv, code, digest, err))
        if save is not None:
            files[save] = tmp_path / f"{save}.json"
            files[save].write_text(out)
            if save in DERIVED:
                name, edit = DERIVED[save]
                obj = json.loads(out)
                edit(obj)
                files[name] = tmp_path / f"{name}.json"
                files[name].write_text(canonical_json(obj))
    return results


def test_output_bytes_pinned(capsys, tmp_path):
    mismatches = []
    for (_, argv, code, digest, stderr), got in zip(PINNED, run_pinned(capsys, tmp_path)):
        want = (argv, code, digest, got[3] if stderr is None else stderr)
        if got != want:
            mismatches.append((want, got))
    assert not mismatches


# --- files in the indented layout of earlier versions --------------------------------


def _tamper_witness(obj):
    obj["k"] -= 1  # the order of image(a) no longer divides k!


def _tamper_separation(obj):
    obj["excluded"] = "a^2"


# certificate type: (command that builds one, its verify command, an edit that breaks a clause)
OLD_LAYOUT = {
    "separation": (("separate", "--word", "a", "--gen", "a^2", "--gen", "b"), "ex1-verify",
                   _tamper_separation),
    "ex1_tail": (("ex1-separate", "--word", "b"), "ex1-verify", _tamper_tail),
    "ex1_not_closed": (("ex1-witness", "--abelian", "4"), "ex1-verify", _tamper_witness),
    "ex2": (("ex2-construct",), "ex2-verify", _tamper_chain),
}


@pytest.mark.parametrize("kind", sorted(OLD_LAYOUT))
def test_indented_files_still_load_and_verify(capsys, tmp_path, kind):
    # a file written in the indented layout verifies, re-emits compact, and
    # still fails the clause a broken field targets
    build, verify, tamper = OLD_LAYOUT[kind]
    code, text, _ = run(capsys, *build)
    assert code == 0 and json.loads(text)["type"] == kind
    old = tmp_path / "old.json"
    old.write_text(indented(text))
    assert old.read_text() != text
    assert run(capsys, verify, str(old))[0] == 0
    assert emit_certificate(load_certificate(old)) == text
    obj = json.loads(text)
    tamper(obj)
    old.write_text(indented(canonical_json(obj)))
    assert run(capsys, verify, str(old))[0] == 1


# --- files that still carry a field this version no longer writes --------------------

# As earlier versions wrote them: a separation named its witness kind (which
# its quotient's kind names), a tail head was a whole separation and then its
# quotient and excluded word (w s_j^-1, which the verifier derives), a
# not-closed witness echoed s_k and b^(-m_k) (which k names), and each chain
# step echoed its f value (which params.f_values holds).  The PARENT_* files
# are what the version before this one wrote: a tail and a not-closed witness
# named their partition (always 1+1), a partial action its degree (one past
# its largest point), and chain params their step count (one per f value)
# and the builder's source draw limit, which no verifier reads.
OLD_SEPARATION = (
    '{"excluded":"a","partition":{"k_size":1,"l_size":1},"quotient":{"degree":2,'
    '"kind":"partial","sources":{"a":[0,1],"b":[0]},"targets":{"a":[1,0],"b":[0]}},'
    '"subgroup_gens":["a^2","b"],"type":"separation","witness_kind":"basepoint-moved"}\n')
OLD_ABELIAN_SEPARATION = (
    '{"excluded":"a","partition":{"k_size":1,"l_size":1},'
    '"quotient":{"kind":"abelian","modulus":2},"subgroup_gens":[],"type":"separation",'
    '"witness_kind":"image-differs"}\n')
OLD_TAIL = (
    '{"composite_quotient":{"degree":4,"images":{"a":[1,0,2,3],"b":[0,1,3,2]},"kind":"perm"},'
    '"head_bound":"2","head_certificates":[{"excluded":"b a^-1","partition":{"k_size":1,'
    '"l_size":1},"quotient":{"kind":"abelian","modulus":2},"subgroup_gens":[],'
    '"type":"separation","witness_kind":"image-differs"}],"modulus":"2",'
    '"partition":{"k_size":1,"l_size":1},"target_word":"b","type":"ex1_tail"}\n')
EXCLUDED_TAIL = (
    '{"composite_quotient":{"degree":4,"images":{"a":[1,0,2,3],"b":[0,1,3,2]},"kind":"perm"},'
    '"head_bound":"2","head_certificates":[{"excluded":"b a^-1","quotient":{"kind":"abelian",'
    '"modulus":2}}],"modulus":"2","partition":{"k_size":1,"l_size":1},"target_word":"b",'
    '"type":"ex1_tail"}\n')
OLD_WITNESS = (
    '{"cofactor":"b^-4","k":4,"partition":{"k_size":1,"l_size":1},'
    '"quotient":{"kind":"abelian","modulus":4},"s_element":"a^24 b^4","type":"ex1_not_closed"}\n')
OLD_CHAIN = (
    '{"params":{"enumeration_cap":1000000,"f_values":[2],"max_source_draws":96,'
    '"partition":{"k_size":2,"l_size":2},"source":{"kind":"mixed","seed":0},"steps":1},'
    '"reciprocal_sum":"1/16","steps":[{"e":6,"f_value":2,"k_index":16,"quotient":'
    '{"degree":16,"images":{"a":[7,0,1,2,3,4,5,6,9,8,10,11,12,13,14,15],'
    '"b":[4,5,6,7,0,1,2,3,8,9,11,10,12,13,14,15],'
    '"c":[7,6,1,5,3,4,2,0,8,9,10,11,13,12,14,15],'
    '"d":[2,0,3,7,6,1,4,5,8,9,10,11,12,13,15,14]},"kind":"perm"},'
    '"r":"a^3","s":"a^3 c^6"}],"type":"ex2"}\n')
PARENT_SEPARATION = (
    '{"excluded":"a","partition":{"k_size":1,"l_size":1},"quotient":{"degree":2,'
    '"kind":"partial","sources":{"a":[0,1],"b":[0]},"targets":{"a":[1,0],"b":[0]}},'
    '"subgroup_gens":["a^2","b"],"type":"separation"}\n')
PARENT_TAIL = (
    '{"composite_quotient":{"degree":9,"images":{"a":[1,0,2,3,4,6,5,8,7],'
    '"b":[0,1,3,2,5,4,7,6,8]},"kind":"perm"},"head_bound":"2","head_certificates":'
    '[{"degree":5,"kind":"partial","sources":{"a":[1,4],"b":[0,3]},"targets":{"a":[2,3],'
    '"b":[1,2]}}],"modulus":"2","partition":{"k_size":1,"l_size":1},'
    '"target_word":"b a b^-1","type":"ex1_tail"}\n')
PARENT_WITNESS = (
    '{"k":4,"partition":{"k_size":1,"l_size":1},"quotient":{"kind":"abelian","modulus":4},'
    '"type":"ex1_not_closed"}\n')
PARENT_CHAIN = OLD_CHAIN.replace('"f_value":2,', "")


def deleted(root, *keys):
    """A deleted field, refused by its path: (the error, the edit that deletes it)."""
    def edit(obj):
        for k in keys[:-1]:
            obj = obj[k]
        del obj[keys[-1]]
    where = root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    return f"{where}: unknown field", edit


def _heads_as_quotients(obj):
    obj["head_certificates"] = [h["quotient"] for h in obj["head_certificates"]]


# a head is read as a bare quotient, so one written as more is refused by its kind
HEADS_AS_QUOTIENTS = ("certificate.head_certificates[0].kind: expected 'partial' or "
                      "'abelian', got None", _heads_as_quotients)

# name: (command that writes it now, its verify command, the file as written
# before, and the error and edit of each restated field in the order the
# loader meets them)
TAIL_PARTITION = deleted("certificate", "partition")
PARTIAL_DEGREE = deleted("certificate", "quotient", "degree")
WITNESS_PARTITION = deleted("witness", "partition")
CHAIN_PARAMS = [deleted("certificate", "params", "max_source_draws"),
                deleted("certificate", "params", "steps")]

RESTATED = {
    "separation": (("separate", "--word", "a", "--gen", "a^2", "--gen", "b"), "ex1-verify",
                   OLD_SEPARATION, [deleted("certificate", "witness_kind"), PARTIAL_DEGREE]),
    "abelian separation": (("separate", "--word", "a"), "ex1-verify", OLD_ABELIAN_SEPARATION,
                           [deleted("certificate", "witness_kind")]),
    "tail head": (("ex1-separate", "--word", "b"), "ex1-verify", OLD_TAIL,
                  [TAIL_PARTITION, HEADS_AS_QUOTIENTS]),
    "tail head with its excluded word": (("ex1-separate", "--word", "b"), "ex1-verify",
                                         EXCLUDED_TAIL, [TAIL_PARTITION, HEADS_AS_QUOTIENTS]),
    "witness": (("ex1-witness", "--abelian", "4"), "ex1-verify", OLD_WITNESS,
                [deleted("witness", "cofactor"), WITNESS_PARTITION,
                 deleted("witness", "s_element")]),
    "chain step": (("ex2-construct", "--steps", "1"), "ex2-verify", OLD_CHAIN,
                   [*CHAIN_PARAMS, deleted("certificate", "steps", 0, "f_value")]),
    "partial degree": (("separate", "--word", "a", "--gen", "a^2", "--gen", "b"), "ex1-verify",
                       PARENT_SEPARATION, [PARTIAL_DEGREE]),
    "tail partition and head degree": (
        ("ex1-separate", "--word", "b a b^-1"), "ex1-verify", PARENT_TAIL,
        [TAIL_PARTITION, deleted("certificate", "head_certificates", 0, "degree")]),
    "witness partition": (("ex1-witness", "--abelian", "4"), "ex1-verify", PARENT_WITNESS,
                          [WITNESS_PARTITION]),
    "chain params": (("ex2-construct", "--steps", "1"), "ex2-verify", PARENT_CHAIN,
                     CHAIN_PARAMS),
}


@pytest.mark.parametrize("name", list(RESTATED))
def test_files_with_a_restated_field_are_refused(capsys, tmp_path, name):
    # each restated field is refused by its path; with every one edited away
    # the old file is what this version writes, byte for byte, and it verifies
    build, verify, text, steps = RESTATED[name]
    path = tmp_path / "old.json"
    obj = json.loads(text)
    for error, edit in steps:
        path.write_text(canonical_json(obj))
        result = run_process(sys.executable, "-m", "proficert", verify, str(path), timeout=5)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {error}\n"
        edit(obj)
    code, now, _ = run(capsys, *build)
    assert (code, canonical_json(obj)) == (0, now)
    path.write_text(now)
    assert run(capsys, verify, str(path))[0] == 0


# `ex1-separate --word "a^3"` as earlier versions wrote it, with head 0
# declaring the partition 2+2: each head was then read in its own partition,
# so this head's quotient and excluded word were read in F(a, b, c, d) and
# the file verified.  Heads are now bare quotients read in the tail's
# partition, so the head is refused before anything is read in it.
FOREIGN_HEAD_TAIL = (
    '{"composite_quotient":{"degree":18,"images":{"a":[1,2,3,0,4,5,6,7,9,10,8,11,12,13,15,14,'
    '16,17],"b":[0,1,2,3,5,6,7,4,8,9,10,12,13,11,14,15,17,16]},"kind":"perm"},'
    '"head_bound":"4","head_certificates":[{"excluded":"a^2","partition":{"k_size":2,'
    '"l_size":2},"quotient":{"kind":"abelian","modulus":3},"subgroup_gens":[],'
    '"type":"separation"},{"excluded":"a","partition":{"k_size":1,"l_size":1},'
    '"quotient":{"kind":"abelian","modulus":2},"subgroup_gens":[],"type":"separation"},'
    '{"excluded":"a^3 b^-4 a^-6","partition":{"k_size":1,"l_size":1},'
    '"quotient":{"kind":"abelian","modulus":2},"subgroup_gens":[],"type":"separation"}],'
    '"modulus":"4","partition":{"k_size":1,"l_size":1},"target_word":"a^3",'
    '"type":"ex1_tail"}\n')


def test_a_tail_head_cannot_declare_its_own_partition(tmp_path):
    # a head is a quotient read in the family's partition 1+1: neither it nor
    # the tail has a partition field
    path = tmp_path / "foreign.json"
    obj = json.loads(FOREIGN_HEAD_TAIL)
    del obj["partition"]
    for text, error in (
            (FOREIGN_HEAD_TAIL, "certificate.partition: unknown field"),
            (canonical_json(obj), "certificate.head_certificates[0].kind: expected 'partial' "
                                  "or 'abelian', got None")):
        path.write_text(text)
        result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                             timeout=5)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {error}\n"
