"""Command line interface.

Core claims:
    - every command emits one line of canonical JSON (sorted keys, no
      whitespace, exact rational strings) and the bytes are identical
      across repeated runs
    - check reports structure and only fails under --require-acyclic
    - report pins the relation matrices and ranks for K2, A3, triangle_tails
    - hh1 pins dimension, basis labels, brackets, and eigenvalues
    - derivations pins the canonical basis and the verify/oracle blocks
    - derivations --oracle and hh1 --oracle on a quiver over the oracle
      cap (T_7, T_40) exit 1 before they enumerate a path, build the
      canonical basis or the bracket table
    - semantic failures exit 1, usage and parse failures exit 2; running
      out of memory in a command or while the file is read is exit 1 and
      one line; a file
      with no vertex line passes check and derivations, and report and
      hh1 reject it with exit 1 and one line; an outer index that is not
      an ASCII number or has more digits than int() converts is exit 2
      and one line under check, report and hh1; a --max-oracle-paths
      value that is negative, not a number or longer than int() converts
      is exit 2 with a message that names which
    - hh1 --oracle builds no canonical basis, and an outer face index
      that names no face, from the flag or the file, is the exit 2 and
      the stderr line of plain hh1, before the oracle runs, also over
      the oracle cap
    - no command on any fixture builds a dense row or flattens an
      operator; derivations --oracle finds spansMatch false when one
      basis member is replaced by a multiple of another
    - a leading UTF-8 byte-order mark changes no output, and the byte
      offset of a non-UTF-8 file counts from the start of the file
    - exit code, stdout and stderr of every fixture under check, report,
      hh1, hh1 --oracle, derivations and derivations --oracle --verify
      match the digests in cli_golden.json; hh1 on K_6, T_5, a seeded
      genus-1 quiver, the 4x4 checkerboard grid, the 6x6 torus grid and a
      seeded rotation of the 10x10 grid, report on the 4x4 and 12x12
      grids, a rotated 8x8 grid and that genus-1 quiver, and derivations
      on T_5, built by the test, match pinned digests
    - a CLI process imports none of dataclasses, inspect, ast or dis, and
      ``python -S -m quiverdiff.cli --help`` exits 0
    - in a fresh ``python -S`` process, --help runs only the cli and errors
      modules, check adds quiverfile, quiver and embedding, report adds
      cohomology and linalg but no derivation code, derivations adds
      derivations and linalg but not cohomology, hh1 and hh1 --oracle run
      all but algebra, and derivations --oracle --verify adds algebra to
      what derivations runs; ``import quiverdiff`` runs no submodule, and
      every name of its __all__, the star import, dir() and a submodule
      reached as an attribute resolve on first use
    - the argument parser is built once per process, and a usage error
      between two runs changes neither run's bytes
    - one hh1 job, with or without --oracle, traces its faces (in the CLI
      and in cohomology together), builds C_va and calls hh1_dimension
      once each
    - one derivations --verify job on torus_k4 and T_6 builds each
      canonical member once: 11 and 57 d_rs calls, one _member call per
      label, and D_p once per basis path
    - check, report, hh1 and derivations, which all write through one
      piecewise writer (matrices from their sparse rows, hh1 one text per
      bracket record), print json.dumps of the dense payload on the
      fixtures, planar and rotated grids, T_n (n <= 6), K_m (m <= 5) and
      seeded genus-1 quivers, the hh1 table rebuilt from hh1_structure
      and the oracle and verify fields of derivations --oracle --verify
      from the library, spansMatch by a dense rref of the flattened
      operators; derivations reads no member's op.matrix for it; the
      writer matches json.dumps on n/d coefficients, escaped names and
      empty values
    - hh1 on K_12 into a stdout that keeps no text peaks (tracemalloc)
      within 1 MB of hh1_structure's own peak
    - output that stdout refuses (a full device, a closed stdout, a reader
      that closes the pipe early, buffered or with PYTHONUNBUFFERED=1) ends
      in exit 2 and one stderr line, not a traceback
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from quiverdiff.cli import main

from quiverdiff import cli, cohomology, derivations, embedding, quiverfile
from quiverdiff.derivations import DerivationBasis, LinearOperator
from quiverdiff.linalg import RationalMatrix
from quiverdiff.quiver import Path, Quiver

from helpers import (
    FIXTURE_DIR,
    checkerboard_grid,
    kronecker,
    rand_frac,
    random_rotation,
    seeded,
    seeded_embedded_quiver,
    serialize,
    tournament,
)


# -- Helpers ---------------------------------------------------------------

_BOM = "\ufeff".encode("utf-8")


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


def test_hh1_k2_with_oracle(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("hh1 --oracle built the canonical basis")

    # the inner rank is read from its closed form, not from a basis
    monkeypatch.setattr(derivations, "canonical_basis", unreachable)
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


@pytest.mark.parametrize("where", ["flag", "file"])
def test_hh1_oracle_checks_the_outer_face_before_the_oracle(tmp_path, capsys, monkeypatch, where):
    # a bad index is the usage error plain hh1 gives, found before any
    # solve, also on T_7, which is over the oracle cap
    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle ran for an outer index that names no face")

    monkeypatch.setattr(derivations, "derivation_space_oracle", unreachable)
    for n in (4, 7):
        q, rot = tournament(n)
        path = tmp_path / f"t{n}.quiver"
        outer = 99 if where == "file" else None
        qf = quiverfile.QuiverFile(name=f"t{n}", quiver=q, rotation=rot, outer=outer)
        path.write_text(serialize(qf), encoding="utf-8")
        flag = ["--outer-face", "99"] if where == "flag" else []
        plain = _run(capsys, ["hh1", *flag, str(path)])
        assert plain[:2] == (2, "") and "outer face 99 out of range" in plain[2]
        assert _run(capsys, ["hh1", "--oracle", *flag, str(path)]) == plain


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


@pytest.mark.parametrize("name", ["a3", "k2", "torus_k4"])
def test_derivations_oracle_sees_a_basis_one_dimension_short(capsys, monkeypatch, name):
    # the last member replaced by a multiple of the first: the dimensions
    # still agree, but the last oracle operator lies outside the span
    true_canonical_basis = derivations.canonical_basis

    def short(q):
        basis = true_canonical_basis(q)
        ops = basis.operators
        return DerivationBasis(q, basis.labels, ops[:-1] + (2 * ops[0],))

    monkeypatch.setattr(derivations, "canonical_basis", short)
    payload = _payload(capsys, ["derivations", "--oracle", _fixture(name)])
    assert payload["oracle"]["spansMatch"] is False
    assert payload["oracle"]["dim"] == payload["dim"]


def test_no_command_builds_a_dense_row(capsys, monkeypatch):
    # derivations --oracle compares the spans on sparse |P|^2-column rows;
    # dense tuples are built only for tests
    def dense(*args):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(RationalMatrix, "rows", property(dense))
    monkeypatch.setattr(RationalMatrix, "row", dense)
    monkeypatch.setattr(LinearOperator, "flatten", dense)
    for path in sorted(FIXTURE_DIR.glob("*.quiver")):
        for command in GOLDEN_COMMANDS:
            _run(capsys, [*command, str(path)])


def _tournament_file(tmp_path, n):
    q, rot = tournament(n)
    path = tmp_path / f"t{n}.quiver"
    qf = quiverfile.QuiverFile(name=f"t{n}", quiver=q, rotation=rot, outer=None)
    path.write_text(serialize(qf), encoding="utf-8")
    return str(path)


def test_running_out_of_memory_is_one_line_and_exit_1(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(derivations, "canonical_basis", exhausted)
    code, out, err = _run(capsys, ["derivations", _fixture("k2")])
    assert (code, out, err) == (1, "", "MemoryError: out of memory\n")


@pytest.mark.parametrize("command", ["check", "report", "hh1", "derivations"])
def test_running_out_of_memory_while_reading_is_one_line_and_exit_1(capsys, monkeypatch, command):
    # a file too large for the memory at hand fails in quiverfile.load, at
    # the read, before any command runs
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(quiverfile, "load", exhausted)
    code, out, err = _run(capsys, [command, _fixture("k2")])
    assert (code, out, err) == (1, "", "MemoryError: out of memory\n")


def test_derivations_oracle_over_the_cap_fails_before_the_basis(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("work done for a quiver the oracle refuses")

    # the oracle counts the paths before it enumerates any, and hh1 asks
    # it before building the bracket table
    monkeypatch.setattr(derivations, "canonical_basis", unreachable)
    monkeypatch.setattr(cohomology, "hh1_structure", unreachable)
    monkeypatch.setattr(Quiver, "paths", unreachable)
    # T_n has 2^n - 1 paths, over the default cap of 60
    for n in (7, 40):
        path = _tournament_file(tmp_path, n)
        for command in ("derivations", "hh1"):
            code, out, err = _run(capsys, [command, "--oracle", path])
            assert (code, out) == (1, ""), command
            assert err == f"TooLargeError: {2**n - 1} paths exceed the oracle cap of 60\n", command


def test_derivations_verify_block(capsys):
    payload = _payload(capsys, ["derivations", "--verify", _fixture("a3")])
    verify = payload["verify"]
    assert len(verify["members"]) == payload["dim"]
    for member in verify["members"]:
        assert member["isDerivation"] is True
        assert member["violations"] == 0
    assert verify["bracketChecks"] == {"innerInner": True, "edgeEdge": True}
    assert verify["innerEdgeBracketSign"] == -1


@pytest.mark.parametrize("name, num_pairs", [("torus_k4", 11), ("t6", 57)])
def test_derivations_verify_builds_each_member_once(tmp_path, capsys, monkeypatch, name, num_pairs):
    # the checks read the members canonical_basis built: in the whole job
    # one d_rs call per edge pair, one _member call per label, and D_p
    # built once per basis path, the |V| vertex idempotents among them
    calls = {"d_rs": [], "_member": [], "inner_derivation": []}
    for fn in calls:
        def recorded(q, *args, _fn=fn, _orig=getattr(derivations, fn)):
            calls[_fn].append(args)
            return _orig(q, *args)
        monkeypatch.setattr(derivations, fn, recorded)
    path = _fixture(name) if name == "torus_k4" else _tournament_file(tmp_path, 6)
    payload = _payload(capsys, ["derivations", "--verify", path])
    assert payload["verify"]["bracketChecks"] == {"innerInner": True, "edgeEdge": True}
    assert len(calls["d_rs"]) == len(set(calls["d_rs"])) == num_pairs
    assert len(calls["_member"]) == payload["dim"]
    paths = [args[0] for args in calls["inner_derivation"] if isinstance(args[0], Path)]
    q = quiverfile.load(path).quiver
    assert sorted(paths) == sorted(q.paths())


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


# a lazily registered module is a plain module once its code has run
_RAN_PROBE = """
import sys, types
from quiverdiff import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as e:
    code = e.code
ran = sorted(name.split(".")[1] for name, module in sys.modules.items()
             if name.startswith("quiverdiff.") and type(module) is types.ModuleType)
sys.stderr.write(f"{code} {' '.join(ran)}")
"""

# what every command that reads a quiver file runs
_FILE_MODULES = ("cli", "embedding", "errors", "quiver", "quiverfile")


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["--help"], ("cli", "errors")),
        (["check", _fixture("a3")], _FILE_MODULES),
        (["report", _fixture("torus_k4")], (*_FILE_MODULES, "cohomology", "linalg")),
        (["derivations", _fixture("a5")], (*_FILE_MODULES, "derivations", "linalg")),
        (["hh1", _fixture("k2")], (*_FILE_MODULES, "cohomology", "derivations", "linalg")),
        (["hh1", "--oracle", _fixture("k2")], (*_FILE_MODULES, "cohomology", "derivations", "linalg")),
        (
            ["derivations", "--oracle", "--verify", _fixture("a3")],
            (*_FILE_MODULES, "algebra", "derivations", "linalg"),
        ),
    ],
)
def test_each_command_runs_only_the_modules_it_uses(argv, ran):
    # --help builds the parser, the oracle's cap among its defaults, from
    # cli and errors alone; report runs no derivation code, derivations none
    # of the HH1 code, and only --verify builds algebra elements
    proc = _bare_python("-c", _RAN_PROBE, *argv)
    assert proc.stdout.startswith("usage:" if argv == ["--help"] else "{"), proc.stderr
    assert proc.stderr == f"0 {' '.join(sorted(ran))}"


def test_the_library_surface_resolves_on_first_use():
    probe = """
import sys, types, quiverdiff
print(sorted(name for name, module in sys.modules.items()
             if name.startswith("quiverdiff.") and type(module) is types.ModuleType))
print(quiverdiff.linalg.RationalMatrix([[1, 2]]).rank())
names = {}
exec("from quiverdiff import *", names)
del names["__builtins__"]
print(sorted(names) == quiverdiff.__all__ and set(names) <= set(dir(quiverdiff)))
homes = {name: sys.modules[getattr(quiverdiff, name).__module__] for name in quiverdiff.__all__}
print(all(names[n] is getattr(quiverdiff, n) is getattr(homes[n], n) for n in names))
print(sorted({module.__name__ for module in homes.values()}))
try:
    quiverdiff.no_such_name
except AttributeError as e:
    print(e)
"""
    proc = _bare_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    modules = ["algebra", "cohomology", "derivations", "embedding", "errors", "quiver", "quiverfile"]
    assert proc.stdout.splitlines() == [
        "[]",
        "1",
        "True",
        "True",
        str([f"quiverdiff.{name}" for name in modules]),
        "module 'quiverdiff' has no attribute 'no_such_name'",
    ]


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
    f = tmp_path / "outer.quiver"
    # a digit to str.isdigit but not to int(), and more digits than int() converts
    for index in ("\u00b2", "1" * 5000):
        f.write_text(f"vertex v\nouter {index}\n", encoding="utf-8")
        for command in ("check", "report", "hh1"):
            code, out, err = _run(capsys, [command, str(f)])
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


@pytest.mark.parametrize("name", ["a2", "torus_k4"])
def test_a_leading_byte_order_mark_changes_no_output(tmp_path, capsys, name):
    marked = tmp_path / f"{name}.quiver"
    marked.write_bytes(_BOM + pathlib.Path(_fixture(name)).read_bytes())
    for command in GOLDEN_COMMANDS:
        assert _run(capsys, [*command, str(marked)]) == _run(capsys, [*command, _fixture(name)])


def test_a_non_utf8_offset_counts_from_the_start_of_the_file(tmp_path, capsys):
    # the bad byte is byte 14 of the text, and byte 17 behind a mark
    f = tmp_path / "latin1.quiver"
    for prefix, offset in ((b"", 14), (_BOM, 17)):
        f.write_bytes(prefix + b"vertex u\n# caf\xe9\n")
        code, out, err = _run(capsys, ["check", str(f)])
        assert (code, out, err) == (2, "", f"cannot read {f}: not UTF-8 text (byte {offset})\n")


@pytest.mark.parametrize("command", ["hh1", "derivations"])
def test_negative_oracle_cap_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--oracle", "--max-oracle-paths", "-1", _fixture("k2")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-oracle-paths" in captured.err


@pytest.mark.parametrize("command", ["hh1", "derivations"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("-3", "a path count cannot be negative: -3"),
        ("ten", "not a whole number: 'ten'"),
        ("7" * 5000, "a path count has too many digits (5000)"),
    ],
    ids=["negative", "not-a-number", "5000-digits"],
)
def test_oracle_cap_messages(capsys, command, value, message):
    with pytest.raises(SystemExit) as exc:
        main([command, "--oracle", "--max-oracle-paths", value, _fixture("k2")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"argument --max-oracle-paths: {message}"
    )


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_reused(capsys):
    assert cli._build_parser() is cli._build_parser()
    argv = ["hh1", _fixture("k2")]
    first = _run(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["hh1", "--outer-face", "x", _fixture("k2")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert first[0] == 0
    assert _run(capsys, argv) == first


@pytest.mark.parametrize("name", ["torus_k4", "k2"])
def test_an_hh1_job_traces_its_faces_and_builds_c_va_once(capsys, monkeypatch, name):
    # happel_dimension runs once too: the payload prints the checked dimension
    names = ("trace_faces", "vertex_arrow_matrix", "hh1_dimension", "happel_dimension")
    calls = dict.fromkeys(names, 0)
    for fn in calls:
        orig = getattr(embedding if fn == "trace_faces" else cohomology, fn)

        def counted(*args, _fn=fn, _orig=orig):
            calls[_fn] += 1
            return _orig(*args)
        # every binding counts: hh1 --oracle checks the outer index on the
        # faces before the oracle runs, and hh1_basis reads them
        for module in (embedding, cohomology, cli):
            if getattr(module, fn, None) is orig:
                monkeypatch.setattr(module, fn, counted)
    # the almost oriented cycles are enumerated once: one parallel_paths
    # call per arrow, although hh1_basis and hh1_dimension both read them
    asked = []
    parallel_paths = Quiver.parallel_paths

    def counted_parallel(self, path):
        asked.append(path)
        return parallel_paths(self, path)

    monkeypatch.setattr(Quiver, "parallel_paths", counted_parallel)
    for command in (["hh1"], ["hh1", "--oracle"]):
        calls.update(dict.fromkeys(calls, 0))
        asked.clear()
        assert _run(capsys, [*command, _fixture(name)])[0] == 0
        assert calls == dict.fromkeys(calls, 1), command
        assert asked and len(asked) == len(set(asked)), command


def _cli_env():
    return {**os.environ, "PYTHONPATH": str(FIXTURE_DIR.parent / "src")}


def _cli_process(argv, stdout, env=None):
    return subprocess.Popen(
        [sys.executable, "-m", "quiverdiff.cli", *argv],
        env=env or _cli_env(), stdout=stdout, stderr=subprocess.PIPE,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_is_one_line_and_exit_2():
    with open("/dev/full", "wb") as full:
        proc = _cli_process(["check", _fixture("k2")], full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"cannot write output: No space left on device\n"


def test_a_closed_stdout_is_one_line_and_exit_2():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "quiverdiff.cli",
         "check", _fixture("k2")],
        env=_cli_env(), capture_output=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == b"cannot write output: stdout is closed\n"


def _grid16_file(tmp_path):
    # the report is about 2 MB, far more than a pipe buffers, so the CLI is
    # still writing when the reader goes away
    q, rot = checkerboard_grid(16)
    path = tmp_path / "grid16.quiver"
    qf = quiverfile.QuiverFile(name="grid16", quiver=q, rotation=rot, outer=None)
    path.write_text(serialize(qf), encoding="utf-8")
    return path


def test_a_reader_closing_the_pipe_early_is_one_line_and_exit_2(tmp_path):
    proc = _cli_process(["report", str(_grid16_file(tmp_path))], subprocess.PIPE)
    assert proc.stdout.read(20).startswith(b'{"dimDE":480,')
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"cannot write output: Broken pipe\n"


def test_an_unbuffered_stdout_still_sees_the_reader_close_the_pipe(tmp_path):
    # unbuffered, stdout's text layer sits on a raw file that takes short
    # writes and drops the rest unseen; the CLI writes the bytes itself
    env = {**_cli_env(), "PYTHONUNBUFFERED": "1"}
    proc = _cli_process(["report", str(_grid16_file(tmp_path))], subprocess.PIPE, env)
    assert proc.stdout.read(20).startswith(b'{"dimDE":480,')
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"cannot write output: Broken pipe\n"


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


# -- The piecewise writer ----------------------------------------------------------------

def _dense_rows(m):
    return [[str(x) for x in row] for row in m.rows]


def _report_payload(qf):
    """The report payload with every matrix written out dense."""
    rep = cohomology.combinatorial_report(qf.quiver, qf.rotation)
    ranks = (rep.rank_c_va, rep.rank_c_ca, rep.rank_c_gamma, rep.rank_b_gamma)
    matrices = (rep.c_va, rep.c_ca, rep.c_gamma, rep.b_gamma)
    return {
        "quiver": qf.name,
        "numVertices": rep.num_vertices,
        "numArrows": rep.num_arrows,
        "numFaces": rep.num_faces,
        "genus": rep.genus,
        "dimDV": rep.dim_dv,
        "dimDE": rep.dim_de,
        "dimDF": rep.dim_df,
        "dimSum": rep.dim_sum,
        "eulerHolds": rep.euler_holds,
        "spacesDisjoint": rep.spaces_disjoint,
        "rankTheoremsHold": rep.rank_theorems_hold,
        "facesSumToZero": rep.faces_sum_to_zero,
        "ranks": dict(zip(("Cva", "Cca", "Cgamma", "Bgamma"), ranks)),
        "matrices": dict(zip(("Cva", "Cca", "Cgamma", "Bgamma"), map(_dense_rows, matrices))),
        "faces": [list(f.display(qf.quiver)) for f in rep.faces],
    }


def _dense_basis(q):
    basis = derivations.canonical_basis(q)
    return [
        {"label": label, "matrix": _dense_rows(op.matrix)}
        for label, op in zip(basis.display_labels(), basis.operators)
    ]


def _hh1_payload(qf):
    """The hh1 payload (no oracle) rebuilt from hh1_structure, every
    bracket's coordinates written out dense."""
    st = cohomology.hh1_structure(qf.quiver, qf.rotation, qf.outer)
    labels = st.basis.display_labels()
    dim = len(labels)
    num_al = sum(label.kind == "al" for label in st.basis.labels)
    return {
        "quiver": qf.name,
        "dim": dim,
        "faceFormula": len(st.basis.faces) + num_al - 1 + 2 * st.basis.genus,
        "oracle": None,
        "happel": cohomology.happel_dimension(qf.quiver),
        "genus": st.basis.genus,
        "droppedFace": st.basis.dropped_face,
        "basis": list(labels),
        "structure": {
            "enforced": st.enforced,
            "brackets": [
                {"left": labels[i], "right": labels[j],
                 "coords": [str(row.get(k, 0)) for k in range(dim)]}
                for i, j, row in st.brackets
            ],
            "eigenvalues": [
                {"al": labels[i], "face": labels[j], "value": str(lam)}
                for i, j, lam in st.eigenvalues
            ],
            "verdicts": {
                "facesCommute": st.faces_commute,
                "faceActsDiagonally": st.face_acts_diagonally,
                "alBracketsInAlSpan": st.al_brackets_in_al_span,
            },
        },
    }


def _check_payload(qf):
    q = qf.quiver
    return {
        "quiver": qf.name,
        "numVertices": q.num_vertices,
        "numArrows": q.num_arrows,
        "acyclic": q.is_acyclic(),
        "connected": q.is_connected(),
        "rotation": "absent" if qf.rotation is None else "valid",
        "ok": True,
    }


def _writer_inputs():
    """(name, QuiverFile) pairs: the fixtures, planar and randomly rotated
    grids, T_n for n <= 6, K_m for m <= 5 and seeded quivers of genus 1."""
    inputs = [(path.stem, quiverfile.load(path)) for path in sorted(FIXTURE_DIR.glob("*.quiver"))]
    built = [(f"t{n}", tournament(n)) for n in range(1, 7)]
    built += [(f"k{m}", kronecker(m)) for m in range(1, 6)]
    for k in (3, 5):
        q, rot = checkerboard_grid(k)
        built += [(f"grid{k}", (q, rot)), (f"grid{k}_rotated", (q, random_rotation(seeded(k), q)))]
    built += [(f"genus1_seed{s}", seeded_embedded_quiver(s, 1)) for s in range(3)]
    for name, (q, rot) in built:
        inputs.append((name, quiverfile.QuiverFile(name=name, quiver=q, rotation=rot, outer=None)))
    return inputs


_WRITER_INPUTS = _writer_inputs()


@pytest.mark.parametrize("qf", [qf for _, qf in _WRITER_INPUTS], ids=[n for n, _ in _WRITER_INPUTS])
def test_report_and_derivations_bytes_are_the_json_dumps_of_the_dense_payload(
    tmp_path, capsys, monkeypatch, qf
):
    # every command writes through the one piecewise writer: report and
    # derivations each matrix from its sparse rows, derivations with no
    # matrix of a member built for it, hh1 each bracket record as one text
    path = tmp_path / "input.quiver"
    path.write_text(serialize(qf), encoding="utf-8")
    q = qf.quiver
    code, out, _ = _run(capsys, ["check", str(path)])
    assert code == 0
    assert out == _canonical(_check_payload(qf))
    connected = q.num_vertices > 0 and q.is_connected() and q.is_acyclic()
    if qf.rotation is not None and connected:
        code, out, _ = _run(capsys, ["report", str(path)])
        assert code == 0
        assert out == _canonical(_report_payload(qf))
        code, out, _ = _run(capsys, ["hh1", str(path)])
        assert code == 0
        assert out == _canonical(_hh1_payload(qf))
    if not q.is_acyclic():
        return
    basis = _dense_basis(q)
    matrix = LinearOperator.matrix
    monkeypatch.setattr(LinearOperator, "matrix", property(lambda op: pytest.fail("op.matrix read")))
    code, out, _ = _run(capsys, ["derivations", str(path)])
    monkeypatch.setattr(LinearOperator, "matrix", matrix)
    assert code == 0
    labels = list(derivations.canonical_basis(q).display_labels())
    rank = derivations.inner_subspace(q).rank()
    expected = {"quiver": qf.name, "dim": len(basis), "innerRank": rank, "labels": labels}
    assert out == _canonical({**expected, "basis": basis})
    if len(q.paths()) <= 40:
        code, out, _ = _run(capsys, ["derivations", "--oracle", "--verify", str(path)])
        assert code == 0
        assert out == _canonical({**expected, "basis": basis, **_oracle_and_verify(q)})


def _oracle_and_verify(q):
    """The oracle and verify fields of derivations --oracle --verify from
    the library, spansMatch by a dense rref of the flattened operators."""
    basis = derivations.canonical_basis(q)
    oracle = derivations.derivation_space_oracle(q)
    n = len(q.paths())

    def flat_rref(ops):
        return RationalMatrix([op.flatten() for op in ops], n * n).rref()

    identities = derivations.verify_bracket_identities(basis)
    members = [
        {
            "label": label,
            "isDerivation": derivations.is_derivation(op),
            "violations": len(derivations.check_coefficient_conditions(op)),
        }
        for label, op in zip(basis.display_labels(), basis.operators)
    ]
    return {
        "oracle": {"dim": len(oracle), "spansMatch": flat_rref(oracle) == flat_rref(basis.operators)},
        "verify": {
            "members": members,
            "bracketChecks": {
                "innerInner": identities["inner_inner"],
                "edgeEdge": identities["edge_edge"],
            },
            "innerEdgeBracketSign": derivations.inner_edge_bracket_sign(basis),
        },
    }


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_the_writer_is_json_dumps_on_fractions_escapes_and_empty_values():
    # the coefficients print as n/d, a name needs escaping, and the matrices,
    # objects and arrays are empty or not
    rng = seeded(3140)
    matrices = [
        RationalMatrix([[rand_frac(rng) if rng.random() < 0.5 else 0 for _ in range(cols)]
                        for _ in range(rows)], cols)
        for rows, cols in ((0, 0), (0, 3), (2, 0), (1, 1), (3, 4), (5, 2))
    ]
    assert any("/" in str(x) for m in matrices for row in m._entries for x in row.values())
    payload = {
        "n\u00e4me \"q\"\n": ["\u2603", None, True, 1.5],
        "empty": {},
        "nested": {"z": 1, "a": {"b": []}},
        "matrices": {str(i): m for i, m in enumerate(matrices)},
    }
    dense = {**payload, "matrices": {k: _dense_rows(m) for k, m in payload["matrices"].items()}}
    pieces = {**payload, "matrices": {k: cli._dense_rows(m._entries, m.num_cols)
                                      for k, m in payload["matrices"].items()}}
    assert "".join(cli._pieces(pieces)) + "\n" == _canonical(dense)
    for items in ([], [{"m": matrices[4]}], [{"m": m, "i": i} for i, m in enumerate(matrices)]):
        written = {"items": ({k: cli._dense_rows(v._entries, v.num_cols) if k == "m" else v
                              for k, v in item.items()} for item in items)}
        expected = {"items": [{k: _dense_rows(v) if k == "m" else v for k, v in item.items()}
                              for item in items]}
        assert "".join(cli._pieces(written)) + "\n" == _canonical(expected)


class _Sink:
    """A stdout that keeps no text."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_hh1_writes_in_the_memory_of_its_table(tmp_path):
    # hh1 on K_12 (143 classes, 10,153 brackets, 5.8 MB of JSON) holds one
    # bracket or eigenvalue record and 64 KiB of text at a time: its
    # tracemalloc peak stays within 1 MB of hh1_structure's own (about 1.7
    # against 1.3 MB), where a whole-payload json.dumps peaked at about 19 MB
    q, rot = kronecker(12)
    path = tmp_path / "k12.quiver"
    qf = quiverfile.QuiverFile(name="k12", quiver=q, rotation=rot, outer=None)
    path.write_text(serialize(qf), encoding="utf-8")
    with contextlib.redirect_stdout(_Sink()):
        assert main(["hh1", str(path)]) == 0  # imports and first-use caches
    loaded = quiverfile.load(str(path))
    tracemalloc.start()
    try:
        cohomology.hh1_structure(loaded.quiver, loaded.rotation)
        table = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with contextlib.redirect_stdout(_Sink()):
            assert main(["hh1", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table + 1_000_000, (peak, table)


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


# "command quiver" runs on quivers the test builds.  The first three were
# recorded before HH1 was computed from edge-pair labels, so they pin the
# output of the operator route; the next three were recorded while brackets
# and matrices were still formatted from dense tuples, and pin long runs of
# zero rows beyond the fixtures; the last three were recorded while report
# decided spacesDisjoint by a row-space intersection, and pin it off the
# fixtures, in genus 0 and above
GENERATED_GOLDEN = {
    "hh1 k6": "86936f0d889cfc0a6971449ae2db00c63976c2a2adfa9366e7a7316cc0d43a50",
    "hh1 t5": "1267d53a68e05667a977c6d41edb471f3837dfaf7eb363e3f3dc066c95746193",
    "hh1 genus1_seed0": "7430e4e33722c09d7000be7664ce6b9978c8040cb5df8b733c7ab1c0026f4ab8",
    "derivations t5": "c60fb3289e5ba37ae69a7d9080f799590a859b1f0e380c4226aa5209408500bf",
    "hh1 grid4": "353805635aa6004aefe95d3fed77ff1d13729a450044c87add1ac4d561f91ed5",
    "report grid4": "417c736df5d91227c5ea7e443605564eb9abef24bde58ab0c2bb3271c8b16efa",
    "report genus1_seed0": "7c9432a009a05cf0d4318a5bc2095d3949c940d01c320e528e51471305c30b57",
    "report grid12": "094411c88b4744eb159259ac43e2af2619d8b1ddbf0cc3c8c3849ad4a6c451d3",
    "report grid8_rotated": "3d1a9e75e5d9d5811df1d3df9a74c19f7a2b91fd20197aa0f4bbccfc1928737b",
    "hh1 torus6": "7bcfcb77ac1f5ffc5be76d62d022a013ff5f91786463723c2bf9558a0865d359",
    "hh1 grid10_rotated": "6cf7032dcb8ed2949474d1151811390b74147fb8da85a9ecdadb4e17f94edf01",
}

def _generated_digests(directory):
    built = {
        "k6": kronecker(6),
        "t5": tournament(5),
        "genus1_seed0": seeded_embedded_quiver(0, 1),
        "grid4": checkerboard_grid(4),
        "grid12": checkerboard_grid(12),
    }
    q, _ = checkerboard_grid(8)
    built["grid8_rotated"] = q, random_rotation(seeded(8), q)
    q, _ = checkerboard_grid(10)
    built["grid10_rotated"] = q, random_rotation(seeded(10), q)
    built["torus6"] = checkerboard_grid(6, torus=True)
    for name, (q, rot) in built.items():
        qf = quiverfile.QuiverFile(name=name, quiver=q, rotation=rot, outer=None)
        (directory / f"{name}.quiver").write_text(serialize(qf), encoding="utf-8")
    digests = {}
    for job in GENERATED_GOLDEN:
        command, name = job.split()
        digests[job] = _digest([command, str(directory / f"{name}.quiver")], directory)
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
