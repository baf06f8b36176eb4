"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

1. Runs every workload through run.py with --tiny, untraced and traced,
   and requires the result line to carry exactly the keys and metrics
   BENCHMARK.json names, every check passing and no operation failing.
2. Runs every workload in this process and requires each operation's
   check to reject the operation's result once it is perturbed, so that
   no check passes whatever it is given.

Prints every metric name with its value and ends with "selfcheck ok";
exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def run_result(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def check_result_lines(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_result(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: correct={result['correct']} "
                     f"failed={result['failed']} attempted={result['attempted']}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                fail(f"{workload} trace={trace}: metrics {got} != {wanted}")
            for name, m in result["metrics"].items():
                print(f"{workload:18s} trace={trace} {name:26s} {m['value']!r} {m['unit']}")


def perturbed(value):
    """The same result with every number off by a part in a thousand and
    every digit 1 of every output file turned into a 2."""
    if isinstance(value, (tuple, list)):
        return type(value)(perturbed(v) for v in value)
    if isinstance(value, bytes):
        return value.replace(b"1", b"2")
    if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
        return value
    if isinstance(value, int):
        return value + 1
    return value * 1.001 if value != 0 else 1e-3


def check_checks() -> None:
    from run import worker_env

    os.environ.update(worker_env())
    os.environ.pop("QELLIP_TOL", None)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np

    from worker import OUT, check
    from workloads import WORKLOADS

    for name, (cls, api_factory) in WORKLOADS.items():
        workdir = os.path.join(OUT, f"selfcheck-{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            workload = cls(api_factory(None), np.random.default_rng(7), True, workdir)
            results = [fn() for _, _, fn in workload.ops()]
            for i in range(len(results)):
                if not check(workload, i, results):
                    fail(f"{name} operation {i}: check rejects the program's result")
                bad = list(results)
                bad[i] = perturbed(results[i])
                if check(workload, i, bad):
                    fail(f"{name} operation {i}: check accepts a perturbed result")
        finally:
            for entry in os.listdir(workdir):
                os.unlink(os.path.join(workdir, entry))
            os.rmdir(workdir)
        print(f"{name:18s} {len(results)} checks pass, and reject perturbed results")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_result_lines(spec)
    check_checks()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
