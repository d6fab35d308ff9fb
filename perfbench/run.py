"""multitar benchmark: one command, three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense-filter --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (run_s, setup_s, peak_rss_mb,
success_frac); ``--trace 1`` is a separate run that alternates untraced and
traced repetitions and prints the per-layer metrics, the tracing overhead
and the self-time accounting.  ``--size quick`` is a smoke test and
``--size baseline`` the 60x4x2000-class size of the ROADMAP baseline; only
the default ``bench`` size is used for claims.  The last line of stdout is
the JSON result.

The workload runs in one worker process with the BLAS thread count capped
at the number of usable cores, and imports multitar from ``./src``.
Working files go to ``.bench_work/`` under the current directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

WORKLOADS = ("dense-filter", "tucker-fit", "staged-io")
WORKER_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("quick", "bench", "baseline"),
                    default="bench")
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "multitar", "__init__.py")):
        print("error: src/multitar not found; run from the repository root",
              file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "worker.py")
    cmd = [sys.executable, worker, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--workdir", os.path.join(root, ".bench_work", args.workload)]
    try:
        return subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish in {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
