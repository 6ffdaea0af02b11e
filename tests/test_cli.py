"""End-to-end command-line behavior: outputs, exit codes, byte stability."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from proficert.cli import canonical_json, emit_certificate, load_certificate, main
from proficert.quotients import make_abelian_quotient, quotient_to_obj
from proficert.words import FactorPartition

P11 = FactorPartition(1, 1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "--word", "a b", "--abelian", "5")
    assert (code, json.loads(out)) == (0, {"distance": 2})
    code, out, _ = run(capsys, "distance", "--word", "a b", "--abelian", "5",
                       "--max-radius", "1")
    assert (code, json.loads(out)) == (0, {"distance": None})


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
])
def test_ex1_verify_bounded_on_hostile_tail_sizes(capsys, tmp_path, field, value):
    # a verifier that trusts these fields runs for minutes: it builds a^(j!)
    # for every j below the head bound, or trial-divides the modulus
    _, out, _ = run(capsys, "ex1-separate", "--word", "b")
    obj = json.loads(out)
    obj[field] = value
    path = tmp_path / "tail.json"
    path.write_text(canonical_json(obj))
    result = run_process(sys.executable, "-m", "proficert", "ex1-verify", str(path),
                         timeout=2)
    assert result.returncode == 1
    assert json.loads(result.stdout)["ok"] is False


# --- entry point, run as a separate process ------------------------------------------

# The checkout's own sources come first on the child's path, so the subprocess
# tests this tree rather than some other installed copy of the package.
ROOT = Path(__file__).resolve().parent.parent


def run_process(*argv, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(list(argv), capture_output=True, text=True, env=env,
                          timeout=timeout)


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
# the CLI, and pin that every command still prints the same bytes.
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
     "8f336a04ad56101102b0f066ab56d8de3e5b5b2a6f81f178d52d6336021e0c5a", None),
    ("sep_id", ("separate", "--word", "a b a^-1 b^-1"), 0,
     "b9b63927c0817e6187fe5a19f6a5b722bf60985151317d4569874ac54981a50a", None),
    (None, ("ex1-elem", "5"), 0,
     "5c2f853beb8bccb625360d200db7c7cfcc76b709652f0de4f6bffba1eb8cfc9a", None),
    (None, ("ex1-elem", "4", "--kind", "a"), 0,
     "5cd326ba1148c69f0c2d55c656be0ca9c08fdfff3e620bcb153335bb6134550b", None),
    (None, ("ex1-elem", "5", "--kind", "m"), 0,
     "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017", None),
    ("tail", ("ex1-separate", "--word", "b"), 0,
     "cb9376f71b842edff3c79953431c8ec48f9d8433a80ea2cd64667e99b994fda0", None),
    (None, ("ex1-separate", "--word", "b a^-1", "--head-margin", "3"), 0,
     "28950b4195d8f9d88c9a62dd803fdab641b7f14020663c219bd11586f9a81e58", None),
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
     "ba6ff5e0663974dc13c60e9b3196364a01a4b0cd71bc2de1d73c022ab1aca734", None),
    (None, ("ex2-verify", "{bad_chain}"), 1,
     "a441f11408edaf187f1ba7eb7c6f4dac06f1786ced92b159ef49be87f276a95e", None),
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
        results.append((argv, code, hashlib.sha256(out.encode()).hexdigest(), err))
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
