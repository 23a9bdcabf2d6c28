"""Records golden digests of every job's exit code and stdout.

    python3 bench/golden.py

Run from the root of a checkout.  Builds each workload's jobs for
GOLDEN_SEED, runs every job once as ``python -m quiverdiff.cli`` and
writes bench/golden.json, keyed by command and input bytes (see
checks.golden_key), so the fixture jobs and the unseeded generated
inputs are checked on every seed and the seeded ones on GOLDEN_SEED.
The malformed inputs are left out: they are checked against the exit
code contract, not against what the code did when this was recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from worker import digest  # noqa: E402

GOLDEN_SEED = 1


def main() -> int:
    root = Path.cwd().resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    workdir = root / ".bench_run" / f"golden-{os.getpid()}"
    recorded = {}
    try:
        for workload in inputs.WORKLOADS:
            outdir = workdir / workload
            outdir.mkdir(parents=True)
            for job in inputs.build(workload, GOLDEN_SEED, root, outdir):
                if job.malformed:
                    continue
                proc = subprocess.run(
                    [sys.executable, "-m", "quiverdiff.cli", *job.argv],
                    cwd=root, env=env, capture_output=True, timeout=600,
                )
                key = checks.golden_key(job.argv, Path(job.argv[-1]).read_bytes())
                recorded[key] = {"job": f"{workload}: {job.id}", "digest": digest(proc.returncode, proc.stdout)}
                print(f"{workload}: {job.id} exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"seed": GOLDEN_SEED, "jobs": dict(sorted(recorded.items(), key=lambda kv: kv[1]["job"]))}
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
