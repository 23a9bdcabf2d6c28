"""The benchmark's own tests.

    python3 -m pytest -q bench/test_bench.py

Run from the root of a checkout.  They check the benchmark's
independent facts against the package, that inputs depend only on the
seed, that the output checks catch what they should, and that two
traced runs give identical exact counts.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from quiverdiff import (  # noqa: E402
    canonical_basis,
    genus,
    happel_dimension,
    quiverfile,
    trace_faces,
)


def _sample_quivers():
    rng = random.Random(7)
    out = []
    for name in inputs.FIXTURES:
        text = (ROOT / "quivers" / f"{name}.quiver").read_text(encoding="utf-8")
        out.append((name, inputs.parse_fixture(text)))
    for i, slot in enumerate(inputs.HH1_SLOTS + inputs.ORACLE_SLOTS):
        out.append((f"slot{i}", inputs.sized_quiver(rng, f"slot{i}", slot)))
    out.append(("kronecker5", inputs.kronecker(5)))
    for k in (3, 4):
        out.append((f"grid{k}", inputs.grid(k)))
        out.append((f"grid{k}_random", inputs.grid(k, rng)))
    return out


@pytest.mark.parametrize("name,q", _sample_quivers(), ids=lambda x: x if isinstance(x, str) else "")
def test_facts_agree_with_the_package(name, q):
    qf = quiverfile.parse(q.text())
    f = inputs.facts(q)
    assert f["acyclic"] == qf.quiver.is_acyclic()
    assert f["connected"] == qf.quiver.is_connected()
    if not f["acyclic"]:
        return
    assert f["P"] == len(qf.quiver.paths())
    assert f["happel"] == happel_dimension(qf.quiver)
    if f["P"] <= 25:
        assert f["dim_der"] == len(canonical_basis(qf.quiver))
    if "F" in f:
        assert f["F"] == len(trace_faces(qf.rotation))
        assert f["genus"] == genus(qf.rotation)


def test_grid_is_checkerboard_and_planar():
    q = inputs.grid(5)
    out_degree = [0] * 25
    for _a, t, _h in q.arrows:
        out_degree[t] += 1
    heads = {h for _a, _t, h in q.arrows}
    assert all(out_degree[v] == 0 or v not in heads for v in range(25))
    f = inputs.facts(q)
    assert (f["genus"], f["F"], f["P"]) == (0, 17, 25 + 40)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(workload, seed, sub):
        out = tmp_path / sub
        out.mkdir()
        jobs = inputs.build(workload, seed, ROOT, out)
        return [(j.id, Path(j.argv[-1]).read_bytes()) for j in jobs]

    for workload in ("cli-fixtures", "hh1-structure", "report-wide"):
        assert files(workload, 5, f"{workload}-a") == files(workload, 5, f"{workload}-b")
        assert files(workload, 5, f"{workload}-a2") != files(workload, 6, f"{workload}-c")


def test_checks_classify_outcomes():
    job = inputs.Job("check x", ["check", "x.quiver"], {}, 2, malformed=True)
    tb = "Traceback (most recent call last):\n  ...\nUnicodeDecodeError: bad\n"
    wrong, broken = checks.check_execution(job, 1, "", tb, False, None, "")
    assert not wrong and len(broken) == 3
    assert checks.check_execution(job, 2, "", "line 3: unknown directive\n", False, None, "") == ([], [])
    q = inputs.kronecker(2)
    f = inputs.facts(q)
    job = inputs.Job("check k2", ["check", "k2.quiver"], f, 0)
    good = {"numVertices": 2, "numArrows": 2, "acyclic": True, "connected": True,
            "rotation": "valid", "ok": True, "quiver": "k2"}
    assert checks.check_execution(job, 0, json.dumps(good), "", False, None, "") == ([], [])
    bad = dict(good, numArrows=3)
    wrong, broken = checks.check_execution(job, 0, json.dumps(bad), "", False, None, "")
    assert wrong and not broken
    wrong, _ = checks.check_execution(job, 0, json.dumps(good), "", False, "a" * 64, "b" * 64)
    assert wrong == ["stdout differs from the golden digest"]


def _traced_worker_run(tmp_path, tag):
    jobs = [
        {"id": "hh1 --oracle k2", "argv": ["hh1", "--oracle", str(ROOT / "quivers/k2.quiver")]},
        {"id": "derivations a3", "argv": ["derivations", "--oracle", "--verify", str(ROOT / "quivers/a3.quiver")]},
        {"id": "report grid2x2", "argv": ["report", str(ROOT / "quivers/grid2x2.quiver")]},
    ]
    jobs_file, out_file = tmp_path / f"jobs-{tag}.json", tmp_path / f"out-{tag}.json"
    jobs_file.write_text(json.dumps(jobs), encoding="utf-8")
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", str(jobs_file), str(out_file), "0", "1"],
        cwd=ROOT, env=env, check=True, timeout=300,
    )
    return json.loads(out_file.read_text(encoding="utf-8"))


def test_two_traced_runs_give_identical_exact_counts(tmp_path):
    first, second = _traced_worker_run(tmp_path, "a"), _traced_worker_run(tmp_path, "b")
    for result in (first, second):
        untraced = {e["job"]: e["digest"] for e in result["executions"] if not e["traced"]}
        traced = {e["job"]: e["digest"] for e in result["executions"] if e["traced"]}
        assert traced == untraced
    a = next(p["layers"] for p in first["passes"] if p["traced"])
    b = next(p["layers"] for p in second["passes"] if p["traced"])
    for name in spans.EXACT:
        assert a[name] == b[name]
        assert a[name] > 0, name
    for name in spans.CALLS:
        assert a[name] == b[name], name


def test_traced_self_times_add_up(tmp_path):
    result = _traced_worker_run(tmp_path, "c")
    layers = next(p["layers"] for p in result["passes"] if p["traced"])
    total = sum(layers[f"{layer}.self_s"] for layer in (*spans.LAYERS, "trace"))
    assert total + layers["trace.remainder_s"] == pytest.approx(layers["trace.wall_s"], rel=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hh1-structure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
