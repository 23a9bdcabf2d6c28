"""Runs a workload's jobs in passes: a closed loop with one client.

    python3 bench/worker.py probe
    python3 bench/worker.py run JOBS.json OUT.json PASSES TRACE
    python3 bench/worker.py launch SPANS.json CLI-ARGS...

``probe`` imports the package and exits; its wall time is one set-up
sample.  ``run`` executes the jobs in process through ``cli.main`` and
writes every execution to OUT.json.  ``launch`` is one traced CLI call
in a fresh interpreter, used by the subprocess workload.

``run`` makes PASSES passes over the job list; with TRACE=1 it makes
one untraced and one traced pass instead, so the tracing overhead and
the digest check come from the same run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from clock import JobTimeout, SpeedClock  # noqa: E402

JOB_TIMEOUT_S = 120.0
MAX_REPS = 5
# in-process jobs shorter than this are repeated (see run_passes)
MIN_JOB_S = 1.0


def digest(rc: int, stdout: bytes) -> str:
    return hashlib.sha256(f"{rc}\n".encode() + stdout).hexdigest()


def run_passes(jobs, count, execute, speed, trace_hook=None, min_job_s=0.0):
    """Closed-loop passes over ``jobs``: ``count`` untraced passes, or,
    with ``trace_hook``, one untraced pass and one traced pass.

    ``execute(job, traced)`` returns (rc, stdout bytes, stderr text,
    timed_out, start, end, busy) where busy is time the clock spent
    sampling inside the job.  In an untraced pass a job runs again, up
    to MAX_REPS times, until its runs add up to ``min_job_s`` reference
    seconds, and its time in the pass is the median of its runs; this
    steadies the times of short jobs.  ``trace_hook()`` switches
    tracing on before the traced pass, which runs each job once, and
    returns a callable that yields the pass's per-layer summary.
    """
    executions, passes = [], []
    speed.sample()
    for index in range(2 if trace_hook is not None else count):
        traced = trace_hook is not None and index > 0
        finish = trace_hook() if traced else None
        record = {"traced": traced, "jobs_raw_s": [], "jobs_ref_s": []}
        stdout_bytes = 0
        for j, job in enumerate(jobs):
            runs = []
            while True:
                rc, out, err, timed_out, start, end, busy = execute(job, traced)
                raw = end - start - busy
                runs.append((raw / speed.slowdown(start, end), raw))
                executions.append(
                    {
                        "job": j,
                        "pass": index,
                        "traced": traced,
                        "rc": rc,
                        "digest": digest(rc, out),
                        "stdout": out.decode("utf-8", "replace"),
                        "stderr": err,
                        "timed_out": timed_out,
                    }
                )
                done = sum(r[0] for r in runs) >= min_job_s or len(runs) == MAX_REPS
                if traced or timed_out or done:
                    break
            stdout_bytes += len(out)
            record["jobs_ref_s"].append(statistics.median(r[0] for r in runs))
            record["jobs_raw_s"].append(statistics.median(r[1] for r in runs))
        record["ref_s"] = sum(record["jobs_ref_s"])
        record["raw_s"] = sum(record["jobs_raw_s"])
        if finish is not None:
            record["layers"] = finish(record["raw_s"], record["ref_s"])
            record["layers"]["cli.stdout_bytes"] = stdout_bytes
        passes.append(record)
    # keep one stdout per job; later runs are compared by digest only
    seen = set()
    for e in executions:
        if e["job"] in seen:
            e["stdout"] = None
        seen.add(e["job"])
    return executions, passes


def in_process_executor(cli, speed, tracer_box):
    def execute(job, traced):
        out, err = io.StringIO(), io.StringIO()
        tracer = tracer_box[0] if traced else None
        if tracer is not None:
            tracer.job = job["id"]
        # start every job from the garbage state of a fresh process, so a
        # collection owed to an earlier job never lands in this one
        gc.collect()
        busy0 = speed.busy_s
        timed_out = False
        start = time.perf_counter()
        speed.start_ticks(deadline=start + JOB_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(job["argv"])
                except SystemExit as e:  # argparse usage errors
                    rc = e.code if isinstance(e.code, int) else 2
                except Exception:  # what an uncaught exception does to the CLI
                    traceback.print_exc()
                    rc = 1
        except JobTimeout:
            timed_out, rc = True, -1
        finally:
            speed.stop_ticks()
            end = time.perf_counter()
        speed.sample()
        return rc, out.getvalue().encode(), err.getvalue(), timed_out, start, end, speed.busy_s - busy0

    return execute


def cmd_run(jobs_path, out_path, count, trace):
    from quiverdiff import cli

    jobs = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    speed = SpeedClock()
    tracer_box = [None]
    trace_hook = None
    if trace:
        import spans

        def trace_hook():
            tracer = tracer_box[0] = spans.Tracer()
            tracer.install()
            speed.on_sample = tracer.record_calibration

            def finish(raw, ref):
                return spans.summarize(tracer.spans, tracer.counts, raw, ref)

            return finish

    execute = in_process_executor(cli, speed, tracer_box)
    executions, passes = run_passes(jobs, count, execute, speed, trace_hook, MIN_JOB_S)
    result = {
        "executions": executions,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "slowdown": speed.median_slowdown(),
    }
    if tracer_box[0] is not None:
        tracer_box[0].dump(Path(out_path).with_suffix(".spans.json"))
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


def cmd_launch(spans_path, argv):
    from quiverdiff import cli

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.job = " ".join(argv)
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return rc


def main(argv):
    if argv[:1] == ["probe"]:
        import quiverdiff.cli  # noqa: F401

        return 0
    if argv[:1] == ["run"] and len(argv) == 5:
        cmd_run(argv[1], argv[2], int(argv[3]), argv[4] == "1")
        return 0
    if argv[:1] == ["launch"] and len(argv) >= 2:
        return cmd_launch(argv[1], argv[2:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
