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
    assert obj["s_element"] == "a^24 b^4"
    assert obj["cofactor"] == "b^-4"
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
    path, out = chain
    code, body, _ = run(capsys, "ex2-witness", str(path), "--step", "1")
    assert code == 0
    assert json.loads(body) == {"members": [1], "step": 1}

    s2 = json.loads(out)["steps"][1]["s"]
    code, body, _ = run(capsys, "ex2-witness", str(path), "--step", "2",
                        "--kind", "intersection", "--word", s2)
    assert code == 0
    witness = json.loads(body)
    assert 2 in witness["members"]
    assert witness["word"] == s2

    code, body, _ = run(capsys, "ex2-witness", str(path), "--step", "2",
                        "--kind", "not-closed")
    assert code == 0
    parts = json.loads(body)
    assert set(parts) == {"step", "u", "v"}

    code, body, _ = run(capsys, "ex2-witness", str(path), "--step", "1", "--dot")
    assert code == 0
    assert body.startswith("digraph")


def test_ex2_witness_errors(capsys, chain):
    path, _ = chain
    code, _, err = run(capsys, "ex2-witness", str(path), "--step", "9")
    assert code == 2
    code, _, err = run(capsys, "ex2-witness", str(path), "--step", "1",
                       "--kind", "intersection")
    assert code == 2
    assert "--word" in err


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
    assert run(capsys, "ex2-witness", str(tail), "--step", "1")[0] == 2


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
    head = obj["head_certificates"][0]
    head["quotient"] = {"kind": "abelian", "modulus": 250_000}
    obj["head_certificates"] = [head] * 3
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
    for head in obj["head_certificates"]:
        head["quotient"] = {"kind": "abelian", "modulus": 400}
    path = tmp_path / "tail.json"
    path.write_text(canonical_json(obj))
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=5, address_space=512 * 2 ** 20)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"ok": True, "reasons": []}


def wide_separation_file(tmp_path, k_size, modulus):
    obj = {"type": "separation", "partition": {"k_size": k_size, "l_size": 1},
           "quotient": {"kind": "abelian", "modulus": modulus},
           "subgroup_gens": [], "excluded": "a", "witness_kind": "image-differs"}
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
            "r": "a^3", "s": "a^3 c", "e": 1, "f_value": 2, "k_index": 1}
    obj = {"type": "ex2", "params": {
               "partition": {"k_size": 2, "l_size": 2}, "steps": 1, "f_values": [2],
               "source": {"kind": "hand", "seed": 0}, "enumeration_cap": 10 ** 6,
               "max_source_draws": 1},
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
# ``composite_quotient`` field changed.  JSON outputs are compact now, and
# their digests are of the indented layout they were recorded in
# (``indented_digest``); any other output is hashed as printed.
PINNED_QUOTIENT = {"degree": 3, "images": {"a": [1, 2, 0], "b": [0, 2, 1]}, "kind": "perm"}


def _tamper_tail(obj):
    obj["target_word"] = "b^3"


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
     "180e42f4d4319e4bbec7c34276ba4d6e80a4be97945d2bba08a2eb1ecaea8240", None),
    ("sep_id", ("separate", "--word", "a b a^-1 b^-1"), 0,
     "848451ced8ae4471aaf04352ad8f4dd3fa14aa90762f75115a69a25d4c9c553a", None),
    (None, ("ex1-elem", "5"), 0,
     "5c2f853beb8bccb625360d200db7c7cfcc76b709652f0de4f6bffba1eb8cfc9a", None),
    (None, ("ex1-elem", "4", "--kind", "a"), 0,
     "5cd326ba1148c69f0c2d55c656be0ca9c08fdfff3e620bcb153335bb6134550b", None),
    (None, ("ex1-elem", "5", "--kind", "m"), 0,
     "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017", None),
    ("tail", ("ex1-separate", "--word", "b"), 0,
     "f26406126dbd2d4eb59b854f9500bbafd65dfda0db55b9696e66f45c1d1e95d0", None),
    (None, ("ex1-separate", "--word", "b a^-1", "--head-margin", "3"), 0,
     "0a74ec720d78403c3f29ba7867fb91f46c9b5a5b03f6b1a5e83beb0f12e21916", None),
    ("witness", ("ex1-witness", "--abelian", "4"), 0,
     "9e51394876b37cb4d03e291c2b49f34c669c5bd20af6b888297972318d8076ae", None),
    (None, ("ex1-witness", "--quotient", "{quotient}"), 0,
     "07b8689b6930ec076bcd25747b3ef36cb945d5be930f57a275ddec427c6fb9a8", None),
    (None, ("ex1-verify", "{sep}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    (None, ("ex1-verify", "{sep_id}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    (None, ("ex1-verify", "{tail}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    (None, ("ex1-verify", "{bad_tail}"), 1,
     "e6e42d3c2ec12e7403b9738b8bdeb4867abb715282d025aea154e80287c2381a", None),
    (None, ("ex1-verify", "{witness}"), 0,
     "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80", None),
    ("chain", ("ex2-construct",), 0,
     "2eae17985ffbd3d1a987316875f1117775bb110ec33605a22680c928c4e7bc1f", None),
    (None, ("ex2-construct", "--steps", "2", "--seed", "3", "--f", "2,4"), 0,
     "004cbf9f81ef6eccff0f4989b189e3f3fe255699fa166bc1f450c27cb069e502", None),
    (None, ("ex2-construct", "--steps", "2", "--cap", "50"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    (None, ("ex2-verify", "{chain}"), 0,
     "b21d3ca763ed1fc660604a4999a8c08ab1bbabeb3051895eb095d488ee44ebda", None),
    (None, ("ex2-verify", "{bad_chain}"), 1,
     "e0619388dea1cf5d530d54f443d647415430df243f4acce7265dbe91db11d4a3", None),
    (None, ("ex2-witness", "{chain}", "--step", "3"), 0,
     "fc4caa327b7382067d613201df946dd0867b2bbeb93f7d58f81e0d408870d27b", None),
    (None, ("ex2-witness", "{chain}", "--step", "2", "--kind", "intersection",
            "--word", "a^4 c^6"), 0,
     "97cafc061ceef028a189ab25d5b5542e29cdd17de59e6014cf3168b455f9d0dd", None),
    (None, ("ex2-witness", "{chain}", "--step", "2", "--kind", "not-closed"), 0,
     "785408cf35066c12a6e8dd264176af6c24f5ec7a2f58c61b7daecfa6432d4da2", None),
    (None, ("ex2-witness", "{chain}", "--step", "1", "--dot"), 0,
     "df1dd72731ec1227f0d6da81fe7f3efff3f02360ccce2130ca6294f42b92dac1", None),
    (None, ("ex2-verify", "{tail}"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: ex2-verify expects an ex2 certificate\n"),
    (None, ("ex2-witness", "{tail}", "--step", "1"), 2,
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
    obj["cofactor"] = "b"


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
