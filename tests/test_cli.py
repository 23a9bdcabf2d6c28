"""Command line interface.

Core claims:
    - every command emits one line of canonical JSON (sorted keys, no
      whitespace, exact rational strings) and the bytes are identical
      across repeated runs
    - check reports structure and only fails under --require-acyclic
    - report pins the relation matrices and ranks for K2, A3, triangle_tails
    - hh1 pins dimension, basis labels, brackets, and eigenvalues
    - derivations pins the canonical basis and the verify/oracle blocks
    - semantic failures exit 1, usage and parse failures exit 2; a file
      with no vertex line passes check and derivations, and report and
      hh1 reject it with exit 1 and one line
    - exit code, stdout and stderr of every fixture under check, report,
      hh1, hh1 --oracle, derivations and derivations --oracle --verify
      match the digests in cli_golden.json, and hh1 on K_6, T_5 and a
      seeded genus-1 quiver, built by the test, matches pinned digests
    - a CLI process imports none of dataclasses, inspect, ast or dis, and
      ``python -S -m quiverdiff.cli --help`` exits 0
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from quiverdiff.cli import main

from quiverdiff import quiverfile

from helpers import FIXTURE_DIR, kronecker, seeded_embedded_quiver, tournament


# -- Helpers ---------------------------------------------------------------

def _fixture(name):
    return str(FIXTURE_DIR / f"{name}.quiver")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    _assert_canonical(out)
    return json.loads(out)


def _assert_canonical(out):
    assert out.endswith("\n") and out.count("\n") == 1
    body = json.loads(out)
    assert out == json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


# -- check -------------------------------------------------------------------

def test_check_a2(capsys):
    payload = _payload(capsys, ["check", _fixture("a2")])
    assert payload == {
        "quiver": "a2",
        "numVertices": 2,
        "numArrows": 1,
        "acyclic": True,
        "connected": True,
        "rotation": "valid",
        "ok": True,
    }


def test_check_loop_passes_without_flag(capsys):
    payload = _payload(capsys, ["check", _fixture("loop")])
    assert payload["acyclic"] is False
    assert payload["ok"] is True


def test_check_require_acyclic_fails_on_loop(capsys):
    code, out, err = _run(capsys, ["check", "--require-acyclic", _fixture("loop")])
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "CyclicQuiver" in err


def test_check_reports_absent_rotation(tmp_path, capsys):
    f = tmp_path / "plain.quiver"
    f.write_text("vertex u v\narrow a u v\n")
    payload = _payload(capsys, ["check", str(f)])
    assert payload["rotation"] == "absent"
    assert payload["ok"] is True


# -- report --------------------------------------------------------------------

def test_report_k2(capsys):
    payload = _payload(capsys, ["report", _fixture("k2")])
    assert payload["numVertices"] == 2
    assert payload["numArrows"] == 2
    assert payload["numFaces"] == 2
    assert payload["genus"] == 0
    assert (payload["dimDV"], payload["dimDE"], payload["dimDF"]) == (1, 2, 1)
    assert payload["dimSum"] == 2
    assert payload["eulerHolds"] is True
    assert payload["spacesDisjoint"] is True
    assert payload["rankTheoremsHold"] is True
    assert payload["facesSumToZero"] is True
    assert payload["ranks"] == {"Cva": 1, "Cca": 1, "Cgamma": 2, "Bgamma": 1}
    assert payload["matrices"]["Cva"] == [["1", "1"], ["-1", "-1"]]
    assert payload["matrices"]["Bgamma"] == [["2", "-2"], ["-2", "2"]]
    assert payload["matrices"]["Cca"] in (
        [["1", "-1"], ["-1", "1"]],
        [["-1", "1"], ["1", "-1"]],
    )
    assert len(payload["faces"]) == 2


def test_report_a3(capsys):
    payload = _payload(capsys, ["report", _fixture("a3")])
    assert payload["numFaces"] == 1
    assert (payload["dimDV"], payload["dimDE"], payload["dimDF"]) == (2, 2, 0)
    assert payload["ranks"]["Bgamma"] == 0
    assert payload["matrices"]["Bgamma"] == [["0"]]
    assert payload["eulerHolds"] is True


def test_report_triangle_tails(capsys):
    payload = _payload(capsys, ["report", _fixture("triangle_tails")])
    assert payload["genus"] == 0
    assert payload["numFaces"] == 2
    assert (payload["dimDV"], payload["dimDE"], payload["dimDF"]) == (4, 5, 1)
    assert payload["dimSum"] == 5
    assert payload["eulerHolds"] is True


def test_report_torus(capsys):
    payload = _payload(capsys, ["report", _fixture("torus_k4")])
    assert payload["genus"] == 1
    assert payload["dimDE"] - payload["dimSum"] == 2
    assert payload["eulerHolds"] is True


# -- hh1 -------------------------------------------------------------------------

def test_hh1_triangle_tails(capsys):
    payload = _payload(capsys, ["hh1", _fixture("triangle_tails")])
    assert payload["dim"] == 2
    assert payload["faceFormula"] == 2
    assert payload["happel"] == 2
    assert payload["oracle"] is None
    assert payload["droppedFace"] == 0
    assert payload["basis"] == ["AL(p2,p1p3)", "Face(1)"]
    st = payload["structure"]
    assert st["enforced"] is True
    assert st["eigenvalues"] == [
        {"al": "AL(p2,p1p3)", "face": "Face(1)", "value": "-3"}
    ]
    assert st["verdicts"] == {
        "facesCommute": True,
        "faceActsDiagonally": True,
        "alBracketsInAlSpan": True,
    }
    entry = next(
        b
        for b in st["brackets"]
        if (b["left"], b["right"]) == ("AL(p2,p1p3)", "Face(1)")
    )
    assert entry["coords"] == ["3", "0"]


def test_hh1_k2_with_oracle(capsys):
    payload = _payload(capsys, ["hh1", "--oracle", _fixture("k2")])
    assert payload["dim"] == 3
    assert payload["oracle"] == 3
    assert payload["basis"] == ["AL(p1,p2)", "AL(p2,p1)", "Face(1)"]
    st = payload["structure"]
    assert st["verdicts"]["alBracketsInAlSpan"] is False
    entry = next(
        b
        for b in st["brackets"]
        if (b["left"], b["right"]) == ("AL(p1,p2)", "AL(p2,p1)")
    )
    assert entry["coords"] == ["0", "0", "1"]
    eigen = {(e["al"], e["value"]) for e in st["eigenvalues"]}
    assert eigen == {("AL(p1,p2)", "2"), ("AL(p2,p1)", "-2")}


def test_hh1_outer_face_override(capsys):
    payload = _payload(capsys, ["hh1", "--outer-face", "1", _fixture("triangle_tails")])
    assert payload["droppedFace"] == 1
    assert payload["basis"] == ["AL(p2,p1p3)", "Face(0)"]


def test_hh1_outer_face_out_of_range(capsys):
    code, out, err = _run(capsys, ["hh1", "--outer-face", "2", _fixture("triangle_tails")])
    assert code == 2
    assert out == ""


def test_hh1_empty_on_chain(capsys):
    payload = _payload(capsys, ["hh1", _fixture("a3")])
    assert payload["dim"] == 0
    assert payload["basis"] == []
    assert payload["structure"]["brackets"] == []


# -- derivations -----------------------------------------------------------------

def test_derivations_a2(capsys):
    payload = _payload(capsys, ["derivations", _fixture("a2")])
    assert payload["dim"] == 2
    # inner rank is |paths| - 1 = 2: HH1 of a chain vanishes
    assert payload["innerRank"] == 2
    assert payload["labels"] == ["Inner(p1)", "EdgePair(p1,p1)"]
    assert [b["label"] for b in payload["basis"]] == payload["labels"]
    for b in payload["basis"]:
        # one row per basis path of kA2: e_v1, e_v2, p1
        assert len(b["matrix"]) == 3
        assert all(len(row) == 3 for row in b["matrix"])


def test_derivations_k2(capsys):
    payload = _payload(capsys, ["derivations", _fixture("k2")])
    assert payload["dim"] == 6
    assert payload["innerRank"] == 3
    assert payload["labels"] == [
        "Inner(p1)",
        "Inner(p2)",
        "EdgePair(p1,p1)",
        "EdgePair(p1,p2)",
        "EdgePair(p2,p1)",
        "EdgePair(p2,p2)",
    ]


def test_derivations_single_vertex(capsys):
    payload = _payload(capsys, ["derivations", _fixture("single_vertex")])
    assert payload["dim"] == 0
    assert payload["innerRank"] == 0
    assert payload["labels"] == []
    assert payload["basis"] == []


def test_derivations_oracle_block(capsys):
    payload = _payload(capsys, ["derivations", "--oracle", _fixture("k2")])
    assert payload["oracle"] == {"dim": 6, "spansMatch": True}


def test_derivations_verify_block(capsys):
    payload = _payload(capsys, ["derivations", "--verify", _fixture("a3")])
    verify = payload["verify"]
    assert len(verify["members"]) == payload["dim"]
    for member in verify["members"]:
        assert member["isDerivation"] is True
        assert member["violations"] == 0
    assert verify["bracketChecks"] == {"innerInner": True, "edgeEdge": True}
    assert verify["innerEdgeBracketSign"] == -1


# -- Failure modes -----------------------------------------------------------------

def test_report_requires_rotation(tmp_path, capsys):
    f = tmp_path / "plain.quiver"
    f.write_text("vertex u v\narrow a u v\n")
    for command in ("report", "hh1"):
        code, out, err = _run(capsys, [command, str(f)])
        assert code == 1
        assert out == ""
        assert err == "QuiverError: the file declares no rotation system\n"


def test_report_rejects_cyclic(capsys):
    code, out, err = _run(capsys, ["report", _fixture("loop")])
    assert code == 1
    assert err.startswith("CyclicQuiverError:")


def test_report_rejects_disconnected(capsys):
    code, out, err = _run(capsys, ["report", _fixture("disconnected")])
    assert code == 1
    assert err.startswith("DisconnectedError:")


def test_report_and_hh1_reject_a_quiver_with_no_vertices(tmp_path, capsys):
    f = tmp_path / "empty.quiver"
    f.write_text("# no vertex line\n")
    for argv in (["report"], ["hh1"], ["hh1", "--outer-face", "3"]):
        code, out, err = _run(capsys, argv + [str(f)])
        assert (code, out) == (1, ""), argv
        assert err == "DisconnectedError: genus is defined for quivers with at least one vertex\n"
    assert _payload(capsys, ["check", str(f)])["numVertices"] == 0
    assert _payload(capsys, ["check", str(f)])["connected"] is False
    assert _payload(capsys, ["derivations", str(f)])["dim"] == 0


def _bare_python(*args):
    """Run ``python -S`` on the package sources: no site, no .pth imports."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURE_DIR.parent / "src")}
    return subprocess.run(
        [sys.executable, "-S", *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_start_up_skips_the_introspection_modules():
    probe = (
        "import sys, quiverdiff.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    proc = _bare_python("-c", probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    proc = _bare_python("-m", "quiverdiff.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["check", "/nonexistent/x.quiver"])
    assert code == 2
    assert err.startswith("cannot read")


def test_parse_error_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.quiver"
    f.write_text("vertex u\nvertex u\n")
    code, out, err = _run(capsys, ["check", str(f)])
    assert code == 2
    assert "line 2" in err


def test_non_ascii_outer_index_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "superscript.quiver"
    f.write_text("vertex v\nouter \u00b2\n", encoding="utf-8")
    code, out, err = _run(capsys, ["check", str(f)])
    assert code == 2
    assert out == ""
    assert "line 2" in err and err.count("\n") == 1


def test_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "latin1.quiver"
    f.write_bytes(b"vertex u\n# caf\xe9\n")
    code, out, err = _run(capsys, ["check", str(f)])
    assert code == 2
    assert out == ""
    assert err.startswith("cannot read") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["hh1", "derivations"])
def test_negative_oracle_cap_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--oracle", "--max-oracle-paths", "-1", _fixture("k2")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-oracle-paths" in captured.err


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- Determinism ---------------------------------------------------------------------

def test_repeated_runs_are_byte_identical(capsys):
    for argv in (
        ["report", _fixture("k2")],
        ["hh1", "--oracle", _fixture("triangle_tails")],
        ["derivations", "--verify", _fixture("k3")],
    ):
        first = _run(capsys, argv)
        second = _run(capsys, argv)
        assert first == second


# -- Golden bytes ----------------------------------------------------------------------

GOLDEN_FILE = pathlib.Path(__file__).resolve().parent / "cli_golden.json"
GOLDEN_COMMANDS = (
    ("check",),
    ("report",),
    ("hh1",),
    ("hh1", "--oracle"),
    ("derivations",),
    ("derivations", "--oracle", "--verify"),
)


def _digest(argv, directory):
    """sha256 of (exit code, stdout, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # messages that quote the file name must not depend on the checkout
    streams = [s.getvalue().replace(str(directory), "quivers") for s in (out, err)]
    return hashlib.sha256(json.dumps([code, *streams]).encode("utf-8")).hexdigest()


def _golden_digests():
    """Digests for every fixture x command."""
    return {
        " ".join((*command, fixture)): _digest([*command, _fixture(fixture)], FIXTURE_DIR)
        for fixture in sorted(p.stem for p in FIXTURE_DIR.glob("*.quiver"))
        for command in GOLDEN_COMMANDS
    }


# hh1 on quivers the test builds; digests recorded before HH1 was computed
# from edge-pair labels, so they pin the output of the operator route
GENERATED_GOLDEN = {
    "hh1 k6": "86936f0d889cfc0a6971449ae2db00c63976c2a2adfa9366e7a7316cc0d43a50",
    "hh1 t5": "1267d53a68e05667a977c6d41edb471f3837dfaf7eb363e3f3dc066c95746193",
    "hh1 genus1_seed0": "7430e4e33722c09d7000be7664ce6b9978c8040cb5df8b733c7ab1c0026f4ab8",
}


def _generated_digests(directory):
    built = {
        "k6": kronecker(6),
        "t5": tournament(5),
        "genus1_seed0": seeded_embedded_quiver(0, 1),
    }
    digests = {}
    for name, (q, rot) in built.items():
        path = directory / f"{name}.quiver"
        qf = quiverfile.QuiverFile(name=name, quiver=q, rotation=rot, outer=None)
        path.write_text(quiverfile.serialize(qf), encoding="utf-8")
        digests[f"hh1 {name}"] = _digest(["hh1", str(path)], directory)
    return digests


def test_cli_bytes_match_the_golden_digests():
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    digests = _golden_digests()
    assert len(digests) == 72
    assert sorted(digests) == sorted(golden)
    assert [job for job in golden if digests[job] != golden[job]] == []


def test_hh1_bytes_on_built_quivers_match_the_golden_digests(tmp_path):
    assert _generated_digests(tmp_path) == GENERATED_GOLDEN


if __name__ == "__main__":
    # re-record the golden digests; only for a deliberate change of CLI output:
    # PYTHONPATH=src python tests/test_cli.py --record
    if sys.argv[1:] == ["--record"]:
        GOLDEN_FILE.write_text(
            json.dumps(_golden_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
