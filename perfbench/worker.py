"""One benchmark workload in one process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--tiny]

Sets up (imports, inputs, warm-up), then repeats whole rounds of the
workload's operations for about S seconds, then checks the first round's
results against the independent computations in ``oracles`` and every
later round's results against the first.  The last line of stdout is a
JSON object; ``run.py`` starts this script and reads it.  Run it through
``run.py``, which pins the BLAS pool before numpy is imported.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_probe(tracer) -> None:
    """Import the cli module in a fresh interpreter, inside a cli.import span."""
    def probe():
        subprocess.run([sys.executable, "-c", "import qellip.cli"], check=True, timeout=120)
    tracer.wrap("cli.import", probe)()


#: The machine-speed reference is timed between operations at most this often.
REFERENCE_PERIOD_S = 0.2
#: An operation is scaled by the median of the references timed within this
#: many seconds of its midpoint (plus half its own duration).
REFERENCE_WINDOW_S = 2.0
#: Times are reported at the machine speed at which one reference takes this long.
REFERENCE_NOMINAL_S = 4.5e-3


def reference_kernel(vec, mat) -> None:
    """A fixed piece of work that does not touch the program, in the three
    kinds the workloads' operations are made of: an interpreter loop, small
    numpy reductions and small complex matrix products, all in cache."""
    total = 0
    for i in range(30000):
        total += i * i
    for i in range(1000):
        vec @ vec
    for i in range(4):
        mat @ mat


def scaled_times(samples: list, references: list) -> list:
    """Each (start, elapsed) sample times REFERENCE_NOMINAL_S over the
    median of the references near it; ``references`` holds (midpoint,
    elapsed).  A reference precedes every operation by less than
    REFERENCE_PERIOD_S, so each window holds at least one."""
    import numpy as np

    ref_t = np.array([t for t, _ in references])
    ref_s = np.array([s for _, s in references])
    start, elapsed = np.array(samples).T
    mid = start + elapsed / 2
    reach = REFERENCE_WINDOW_S + elapsed / 2
    lo = np.searchsorted(ref_t, mid - reach, side="right")
    hi = np.searchsorted(ref_t, mid + reach, side="right")
    medians = {}
    for window in set(zip(lo.tolist(), hi.tolist())):
        medians[window] = float(np.median(ref_s[window[0]:window[1]]))
    near = np.array([medians[w] for w in zip(lo.tolist(), hi.tolist())])
    return (elapsed * REFERENCE_NOMINAL_S / near).tolist()


def measure(workload, seconds: float, tracer) -> dict:
    import numpy as np

    from workloads import same_result

    ops = workload.ops()
    first = None  # round one's results, checked against the oracles at the end
    samples = {key: [] for _, key, _ in ops}  # (start, elapsed) of each distinct call
    differs = [0] * len(ops)  # rounds in which an operation raised or left round one's result
    vec = np.arange(64.0)
    mat = (np.arange(96 * 96).reshape(96, 96) % 7 + 1j) / 7.0
    reference_kernel(vec, mat)
    references = []  # (midpoint, elapsed) of each reference
    last_reference = -math.inf
    raw_round_s = []
    rounds = 0
    begin = time.perf_counter()
    while True:
        results = []
        round_s = 0.0
        for i, (kind, key, fn) in enumerate(ops):
            if time.perf_counter() - last_reference >= REFERENCE_PERIOD_S:
                t0 = time.perf_counter()
                reference_kernel(vec, mat)
                last_reference = time.perf_counter()
                references.append(((t0 + last_reference) / 2, last_reference - t0))
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = fn()
                else:
                    tracer.op = rounds * len(ops) + i
                    with tracer.span(f"op.{kind}"):
                        result = fn()
            except Exception:  # a failing operation is counted, and the run goes on
                result = None
                if differs[i] == 0:
                    traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - t0
            round_s += elapsed
            samples[key].append((t0, elapsed))
            results.append(result)
        raw_round_s.append(round_s)
        rounds += 1
        if tracer is not None:
            tracer.op = -1
            import_probe(tracer)
        if first is None:
            first = results
        for i, result in enumerate(results):
            if result is None or first[i] is None or not same_result(first[i], result):
                differs[i] += 1
        if (time.perf_counter() - begin) * (rounds + 1) / rounds > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN if workload.name == "cli"
                                 else resource.RUSAGE_SELF).ru_maxrss
    failed = 0
    for i, result in enumerate(first):
        if result is not None and check(workload, i, first):
            failed += differs[i]
        else:
            failed += rounds
            print(f"check failed: {workload.name} operation {i} {ops[i][1]}", file=sys.stderr)
    # Each operation at the median of its repetitions (every round, and the
    # copies within a round), each repetition scaled by the reference timed
    # around it: other tenants of the host change the machine's speed by up
    # to 2x, for seconds to minutes at a time (see README.md).
    keys = [key for key, runs in samples.items() for _ in runs]
    scaled = {key: [] for key in samples}
    for key, value in zip(keys, scaled_times([x for runs in samples.values() for x in runs],
                                             references)):
        scaled[key].append(value)
    typical = {key: statistics.median(values) for key, values in scaled.items()}
    times = [typical[key] for _, key, _ in ops]
    return {
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": failed,
        "wall_s": sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p99_ms": statistics.quantiles(times, n=100, method="inclusive")[98] * 1e3,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "raw_wall_s": statistics.median(raw_round_s),
        "reference_ms": statistics.median(s for _, s in references) * 1e3,
    }


def check(workload, i: int, results: list) -> bool:
    """Operation i's first-round result against the independent computations;
    a malformed result, or one an oracle rejects by raising, fails."""
    try:
        return bool(workload.check(i, results))
    except (ValueError, ArithmeticError, TypeError, KeyError, IndexError):
        traceback.print_exc(file=sys.stderr)
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        parser.error("start workers through run.py, which pins the BLAS pool to one thread")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    origin = getattr(importlib.util.find_spec("qellip"), "origin", None)
    if origin is None or not os.path.abspath(origin).startswith(SRC + os.sep):
        print(f"qellip would be imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    cls, api_factory = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    api = api_factory(tracer)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = cls(api, np.random.default_rng(args.seed), args.tiny, workdir)
        workload.warm_up()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        stats = measure(workload, args.seconds, tracer)
    finally:
        for name in os.listdir(workdir):
            os.unlink(os.path.join(workdir, name))
        os.rmdir(workdir)

    out = {"ready": ready, "attempted": stats["attempted"], "failed": stats["failed"],
           "correct": stats["failed"] == 0, "rounds": stats["rounds"],
           "wall_s": stats["wall_s"], "raw_wall_s": stats["raw_wall_s"],
           "reference_ms": stats["reference_ms"]}
    if tracer is None:
        out["metrics"] = {
            "wall_s": {"value": stats["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": stats["peak_rss_mb"], "unit": "MB"},
            "op_p50_ms": {"value": stats["op_p50_ms"], "unit": "ms"},
            "op_p99_ms": {"value": stats["op_p99_ms"], "unit": "ms"},
        }
    else:
        out["metrics"] = layer_metrics(tracer.spans, stats["rounds"])
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"),
                     {"workload": args.workload, "seed": args.seed, "rounds": stats["rounds"],
                      "wall_s": stats["wall_s"],
                      "span": ["name", "start_s", "end_s", "parent", "op", "attrs"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
