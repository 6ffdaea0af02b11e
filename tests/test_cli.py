"""End-to-end command-line behavior: outputs, exit codes, byte stability."""

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


# --- entry point, run as a separate process ------------------------------------------

# The checkout's own sources come first on the child's path, so the subprocess
# tests this tree rather than some other installed copy of the package.
ROOT = Path(__file__).resolve().parent.parent


def run_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(list(argv), capture_output=True, text=True, env=env)


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


@pytest.mark.skipif(shutil.which("proficert") is None,
                    reason="no installed proficert console script on PATH")
def test_installed_console_script():
    check_reduce_across_process(shutil.which("proficert"))
