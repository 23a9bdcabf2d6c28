"""quiverdiff benchmark: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``--workload all`` runs each workload
in turn, each in a fresh process.  The seed makes the workload's input
files (see inputs.py); jobs are CLI invocations, as subprocesses for
``cli-fixtures`` and through ``cli.main`` in one fresh worker process
for the others.  Every output is checked (checks.py).  The last line of
stdout is one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  Times are in
reference seconds (clock.py); the lines above it give the raw times.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from clock import SpeedClock, pin_to_one_cpu  # noqa: E402
from worker import JOB_TIMEOUT_S, run_passes  # noqa: E402

# reference seconds one pass of each workload takes at the seed commit;
# a run makes max(1, seconds // PASS_S) passes, so the same --seconds
# always measures the same work, however fast the machine is just then
PASS_S = {"cli-fixtures": 8.0, "hh1-structure": 18.0, "verify-oracle": 25.0, "report-wide": 12.0}
SETUP_PROBES = 9
IMPORTTIME_PROBES = 5
RUN_LIMIT_S = 170.0


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def timed_child(argv, root, env, speed, timeout):
    """Run one child; returns (completed process or None, start, end)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    end = time.perf_counter()
    speed.sample()
    return proc, start, end


def measure_setup(workload, root, env, speed):
    """Median time from process start until the first job could run."""
    if workload == "cli-fixtures":
        argv = [sys.executable, "-m", "quiverdiff.cli", "--help"]
    else:
        argv = [sys.executable, str(HERE / "worker.py"), "probe"]
    ref, raw = [], []
    speed.sample()
    for _ in range(SETUP_PROBES):
        proc, start, end = timed_child(argv, root, env, speed, 60)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {' '.join(argv)}")
        raw.append(end - start)
        ref.append((end - start) / speed.slowdown(start, end))
    return statistics.median(ref), statistics.median(raw)


def measure_import(root, env, speed):
    """Import time of quiverdiff.cli from ``-X importtime``, in seconds."""
    argv = [sys.executable, "-X", "importtime", "-c", "import quiverdiff.cli"]
    samples = []
    speed.sample()
    for _ in range(IMPORTTIME_PROBES):
        proc, start, end = timed_child(argv, root, env, speed, 60)
        total_us = 0
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (quiverdiff\S*)$", line)
            if m:  # top-level entries only: nested ones are indented
                total_us += int(m.group(1))
        samples.append(total_us / 1e6 / speed.slowdown(start, end))
    return statistics.median(samples)


def subprocess_executor(root, env, speed, spans_file, collected):
    """Executes a job as ``python -m quiverdiff.cli``, or, when traced,
    through the launcher that installs the span wrappers first and
    leaves its spans in ``spans_file``; those go to ``collected``."""

    def execute(job, traced):
        if traced:
            argv = [sys.executable, str(HERE / "worker.py"), "launch", str(spans_file), *job["argv"]]
        else:
            argv = [sys.executable, "-m", "quiverdiff.cli", *job["argv"]]
        proc, start, end = timed_child(argv, root, env, speed, JOB_TIMEOUT_S)
        if proc is None:
            return -1, b"", "", True, start, end, 0.0
        if traced and spans_file.exists():
            data = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            offset = len(collected["spans"])  # ids in a child count from 1
            for sid, parent, _job, name, s0, s1 in data["spans"]:
                collected["spans"].append(
                    (sid + offset, parent + offset if parent else 0, job["id"], name, s0, s1)
                )
            collected["counts"].update(data["counts"])
        return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace"), False, start, end, 0.0

    return execute


def run_cli_workload(jobs, count, trace, root, env, speed, workdir):
    collected = {"spans": [], "counts": Counter()}
    trace_hook = None
    if trace:
        def trace_hook():
            def finish(raw, ref):
                return spans.summarize(collected["spans"], collected["counts"], raw, ref)

            return finish

    execute = subprocess_executor(root, env, speed, workdir / "launch.json", collected)
    executions, passes = run_passes(jobs, count, execute, speed, trace_hook)
    if trace:
        (workdir / "result.spans.json").write_text(json.dumps(collected), encoding="utf-8")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return executions, passes, peak


def run_worker_workload(workload, jobs, count, trace, root, env, workdir, budget):
    jobs_file, out_file = workdir / "jobs.json", workdir / "result.json"
    jobs_file.write_text(json.dumps(jobs), encoding="utf-8")
    argv = [sys.executable, str(HERE / "worker.py"), "run", str(jobs_file), str(out_file),
            str(count), "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(out_file.read_text(encoding="utf-8"))
    return result["executions"], result["passes"], result["peak_rss_mb"], result["slowdown"]


def check_all(jobs, executions, golden, root):
    """Classify every execution; returns (failed, wrong answers, notes)."""
    expected = {}
    for i, job in enumerate(jobs):
        key = checks.golden_key(job.argv, (root / job.argv[-1]).read_bytes())
        expected[i] = None if job.malformed else golden["jobs"].get(key, {}).get("digest")
    first = {}
    for e in executions:
        first.setdefault(e["job"], e)
    failed = wrong_answers = 0
    notes = []
    for e in executions:
        job = jobs[e["job"]]
        wrong, broken = checks.check_execution(
            job, e["rc"], first[e["job"]]["stdout"], e["stderr"], e["timed_out"],
            expected[e["job"]], e["digest"],
        )
        if not e["timed_out"] and e["digest"] != first[e["job"]]["digest"]:
            what = "traced" if e["traced"] else "repeated"
            wrong.append(f"{what} output differs from the first pass")
        failed += bool(wrong or broken)
        wrong_answers += bool(wrong)
        notes += [f"{job.id} (pass {e['pass']}): {x}" for x in wrong + broken]
    return failed, wrong_answers, notes


def run_all(args) -> int:
    """Every workload in a fresh process; the last line maps each
    workload to its result line."""
    results = {}
    for workload in inputs.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd().resolve()
    if not (root / "src" / "quiverdiff" / "cli.py").is_file() or not (root / "quivers").is_dir():
        sys.stderr.write("run from the root of a quiverdiff checkout (src/quiverdiff and quivers/ are missing)\n")
        return 2
    pin_to_one_cpu()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    workdir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = inputs.build(args.workload, args.seed, root, workdir)
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        speed = SpeedClock()
        setup_ref, setup_raw = measure_setup(args.workload, root, env, speed)
        job_dicts = [job.to_json() for job in jobs]
        count = max(1, int(args.seconds // PASS_S[args.workload]))
        if args.workload == "cli-fixtures":
            executions, passes, peak = run_cli_workload(
                job_dicts, count, args.trace, root, env, speed, workdir
            )
            slowdown = speed.median_slowdown()
        else:
            budget = RUN_LIMIT_S - (time.perf_counter() - began)
            executions, passes, peak, slowdown = run_worker_workload(
                args.workload, job_dicts, count, args.trace, root, env, workdir, budget
            )
        import_s = measure_import(root, env, speed) if args.trace else None
        failed, wrong, notes = check_all(jobs, executions, golden, root)
        if args.trace:
            kept = workdir.parent / f"trace-{args.workload}-{args.seed}.json"
            (workdir / "result.spans.json").replace(kept)
            print(f"spans of the traced pass: {kept.relative_to(root)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for note in notes:
        print(f"check: {note}")
    attempted = len(executions)
    untraced = [p for p in passes if not p["traced"]]
    wall_ref = statistics.median(p["ref_s"] for p in untraced)
    wall_raw = statistics.median(p["raw_s"] for p in untraced)
    lat = [t * 1000 for p in untraced for t in p["jobs_ref_s"]]
    lat_raw = [t * 1000 for p in untraced for t in p["jobs_raw_s"]]
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs a pass, "
          f"{len(untraced)} untraced and {len(passes) - len(untraced)} traced passes, "
          f"median machine slowdown x{slowdown:.2f}")
    print(f"setup_s {setup_ref:.4f} s (raw {setup_raw:.4f} s, median of {SETUP_PROBES})")
    print(f"wall_s {wall_ref:.4f} s (raw {wall_raw:.4f} s, median of {len(untraced)} passes)")
    print(f"cli_p50_ms {percentile(lat, 50):.2f} ms, cli_p90_ms {percentile(lat, 90):.2f} ms "
          f"(raw {percentile(lat_raw, 50):.2f} / {percentile(lat_raw, 90):.2f} ms, "
          f"{len(lat)} job latencies, {len(lat) - int(len(lat) * 0.9)} beyond p90)")
    print(f"peak_rss_mb {peak:.1f} MB")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} failed of {attempted} attempted, "
          f"{wrong} wrong answers)")

    if not args.trace:
        metrics = {
            "setup_s": metric(setup_ref, "s"),
            "wall_s": metric(wall_ref, "s"),
            "cli_p50_ms": metric(percentile(lat, 50), "ms"),
            "cli_p90_ms": metric(percentile(lat, 90), "ms"),
            "peak_rss_mb": metric(peak, "MB"),
            "ok_ratio": metric(1 - failed / attempted, "ratio"),
        }
    else:
        layers = next(p["layers"] for p in passes if p["traced"])
        layers["trace_overhead"] = layers["trace.wall_s"] / wall_ref - 1
        layers["cli.import_s"] = import_s
        layers["machine.slowdown"] = slowdown
        metrics = {name: metric(value, spans.unit(name)) for name, value in layers.items()}
        accounted = sum(layers[f"{layer}.self_s"] for layer in (*spans.LAYERS, "trace"))
        print(f"trace: self times {accounted:.4f} s + remainder {layers['trace.remainder_s']:.4f} s"
              f" = traced wall {layers['trace.wall_s']:.4f} s")
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
