"""Output checks: golden digests and invariants the benchmark computes.

A job execution can go wrong in two ways, and both count it as failed:

* a wrong answer: stdout disagrees with the golden digest recorded at
  the seed commit, with an invariant from the benchmark's own path
  counts and face tracing, or reports a false verdict field;
* a broken contract: a wrong exit code, a traceback or a message of
  more than one line on stderr, output on stdout for a failing exit,
  or a timeout.

``correct`` in the result line is false when any execution gave a
wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import re

ONE_LINE_ERROR = re.compile(r"[A-Za-z]+Error: [^\n]+\n\Z")


def golden_key(argv: list[str], data: bytes) -> str:
    """Identifies a job by its command and the bytes of its input file."""
    return hashlib.sha256(" ".join(argv[:-1]).encode() + b"\0" + data).hexdigest()


def check_execution(job, rc, stdout, stderr, timed_out, golden_digest, digest):
    """Returns (wrong answers, broken contracts) for one execution."""
    wrong, broken = [], []
    if timed_out:
        return wrong, ["timeout"]
    if rc != job.expect_rc:
        broken.append(f"exit code {rc}, expected {job.expect_rc}")
    if "Traceback" in stderr:
        broken.append("traceback on stderr")
    if rc != 0:
        if stdout:
            broken.append("stdout on a failing exit")
        if stderr.count("\n") != 1 or not stderr.endswith("\n"):
            broken.append("stderr is not one line")
        elif rc == 1 and not ONE_LINE_ERROR.match(stderr):
            broken.append("exit 1 without an 'XError: message' line")
    elif stderr:
        broken.append("stderr on success")
    if broken:
        return wrong, broken
    if golden_digest is not None and golden_digest != digest:
        wrong.append("stdout differs from the golden digest")
    if rc == 0 and not job.malformed:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return wrong + ["stdout is not one JSON object"], broken
        wrong += invariants(job.argv[0], job.argv[1:-1], payload, job.facts, job.planar_grid)
    return wrong, broken


def invariants(command, flags, out, f, planar_grid=None) -> list[str]:
    """Compare one payload with the benchmark's facts about the input."""
    bad = []

    def want(name, got, expected):
        if got != expected:
            bad.append(f"{name} = {got!r}, expected {expected!r}")

    if command == "check":
        want("numVertices", out["numVertices"], f["V"])
        want("numArrows", out["numArrows"], f["E"])
        want("acyclic", out["acyclic"], f["acyclic"])
        want("connected", out["connected"], f["connected"])
        want("rotation", out["rotation"], "valid" if f["rotation"] else "absent")
        want("ok", out["ok"], True)
    elif command == "report":
        g, faces = f["genus"], f["F"]
        want("numVertices", out["numVertices"], f["V"])
        want("numArrows", out["numArrows"], f["E"])
        want("numFaces", out["numFaces"], faces)
        want("genus", out["genus"], g)
        want("dimDV", out["dimDV"], f["V"] - 1)
        want("dimDF", out["dimDF"], faces - 1)
        want("dimSum", out["dimSum"], f["E"] - 2 * g)
        want("ranks.Cva", out["ranks"]["Cva"], f["V"] - 1)
        want("ranks.Cca", out["ranks"]["Cca"], faces - 1)
        want("ranks.Bgamma", out["ranks"]["Bgamma"], faces - 1)
        want("ranks.Cgamma", out["ranks"]["Cgamma"], f["E"] - 2 * g)
        want("len(faces)", len(out["faces"]), faces)
        for verdict in ("eulerHolds", "rankTheoremsHold", "facesSumToZero", "spacesDisjoint"):
            want(verdict, out[verdict], True)
        if planar_grid is not None:
            want("planar grid genus", g, 0)
            want("planar grid faces", faces, (planar_grid - 1) ** 2 + 1)
    elif command == "hh1":
        dim, g, faces = f["happel"], f["genus"], f["F"]
        want("dim", out["dim"], dim)
        want("happel", out["happel"], dim)
        want("faceFormula", out["faceFormula"], dim)
        want("oracle", out["oracle"], dim if "--oracle" in flags else None)
        want("genus", out["genus"], g)
        labels = out["basis"]
        want("len(basis)", len(labels), dim)
        want("AL classes", sum(x.startswith("AL(") for x in labels), f["al"])
        want("Face classes", sum(x.startswith("Face(") for x in labels), faces - 1)
        want("Extra classes", sum(x.startswith("Extra(") for x in labels), 2 * g)
        st = out["structure"]
        want("len(brackets)", len(st["brackets"]), dim * (dim - 1) // 2)
        want("len(eigenvalues)", len(st["eigenvalues"]), f["al"] * (faces - 1))
        want("enforced", st["enforced"], g == 0)
        if g == 0:
            want("facesCommute", st["verdicts"]["facesCommute"], True)
            want("faceActsDiagonally", st["verdicts"]["faceActsDiagonally"], True)
    elif command == "derivations":
        paths, dim = f["P"], f["dim_der"]
        want("dim", out["dim"], dim)
        want("innerRank", out["innerRank"], paths - f["components"])
        want("len(labels)", len(out["labels"]), dim)
        want("Inner members", sum(x.startswith("Inner(") for x in out["labels"]), paths - f["V"])
        shapes = {(len(m["matrix"]), len(m["matrix"][0]) if m["matrix"] else 0) for m in out["basis"]}
        if shapes and shapes != {(paths, paths)}:
            bad.append(f"basis matrices are {sorted(shapes)}, expected {paths}x{paths}")
        if "--oracle" in flags:
            want("oracle.dim", out["oracle"]["dim"], dim)
            want("oracle.spansMatch", out["oracle"]["spansMatch"], True)
        if "--verify" in flags:
            v = out["verify"]
            for m in v["members"]:
                if not m["isDerivation"] or m["violations"]:
                    bad.append(f"member {m['label']} fails the Leibniz check")
            want("bracketChecks.innerInner", v["bracketChecks"]["innerInner"], True)
            want("bracketChecks.edgeEdge", v["bracketChecks"]["edgeEdge"], True)
            if v["innerEdgeBracketSign"] not in (-1, 1, None):
                bad.append(f"innerEdgeBracketSign = {v['innerEdgeBracketSign']!r}")
    return bad
