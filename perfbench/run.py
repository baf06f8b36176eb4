"""Benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  Workloads: shot-noise, heisenberg, ellipsometry-scan, cli
(see perfbench/README.md).

Every process started here gets OPENBLAS_NUM_THREADS=1 (and the OpenMP and
MKL equivalents): under the default two-thread OpenBLAS pool some processes
run every small BLAS reduction tens of times slower, which no benchmark
repeat would average away.

With --trace 0 the workload runs in a fresh worker process, and SETUP_SAMPLES
further fresh processes only set up; setup_s is the median, over all of
them, of the time from starting the process to the end of its warm-up.
The last stdout line is one JSON object: correct, attempted, failed and the
end-to-end metrics.  With --trace 1 one worker runs with spans around every
call into a layer, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("shot-noise", "heisenberg", "ellipsometry-scan", "cli")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0


class WorkerError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("QELLIP_TOL", None)
    return env


def run_worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Start one worker, wait for it, return its result and its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qellip benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qellip", "__init__.py")):
        print(f"no qellip sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    extra = ["--tiny"] if args.tiny else []
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, extra + ["--setup-only"], deadline)[1])
        result, setup = run_worker(args, extra, deadline)
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(setup)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(f"# {args.workload} seed={args.seed} rounds={result['rounds']} trace={args.trace} "
          f"wall_s={result['wall_s']!r} (unscaled round median {result['raw_wall_s']!r} s, "
          f"reference median {result['reference_ms']!r} ms)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
