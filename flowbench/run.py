"""Time `knotflow` flows to a target energy, end to end and layer by layer.

    python3 flowbench/run.py                        # all three workloads
    python3 flowbench/run.py --workload circle-mg --seed 3 --seconds 40
    python3 flowbench/run.py --workload trefoil-mg --trace 1
    python3 flowbench/run.py --workload trefoil-dense --reference 20

Each operation runs in a fresh process (`worker.py`) with the BLAS and
OpenMP pools set to one thread before the interpreter starts. A run repeats
whole operations while the next one still fits in `--seconds` (at least
one). With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced operations and reports the per-layer
metrics of the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object; the full record of the run, with its
environment, goes to `flowbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# On a 2-core machine the default OpenBLAS pool made the dense flow slower
# and tripled its CPU time (see README.md); one thread also makes runs
# repeatable.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 4
OPERATION_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "solve_s": "s", "step_ms_p50": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})


class WorkerFault(RuntimeError):
    """A worker process could not run; the benchmark cannot measure."""


def spawn(workload: str, seed: int, *flags: str, capture=True) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **THREADS), cwd=ROOT,
                              capture_output=capture, text=True,
                              timeout=OPERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFault(f"{workload}: no result within "
                          f"{OPERATION_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFault(f"{workload}: worker exited with "
                          f"{proc.returncode}\n{proc.stderr or ''}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) if capture else {}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    # the first process also compiles bytecode and warms the file cache,
    # so its set-up time is recorded but not counted
    warmup = spawn(name, seed, "--setup-only")
    ops, traced = [], []
    while True:
        round_start = time.monotonic()
        ops.append(spawn(name, seed, "--trace", "0"))
        if trace:
            traced.append(spawn(name, seed, "--trace", "1"))
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            break
    done = [op for op in ops if "failure" not in op]
    if not done:
        raise WorkerFault(f"{name}: no operation completed its flow\n"
                          + ops[0]["failure"])
    every = ops + traced
    summary = {"correct": not any(op.get("checks") for op in every),
               "attempted": len(every),
               "failed": sum("failure" in op or bool(op["checks"])
                             for op in every)}
    if trace:
        traced_done = [op for op in traced if "failure" not in op]
        if not traced_done:
            raise WorkerFault(f"{name}: no traced operation completed\n"
                              + traced[0]["failure"])
        values = {key: median([op["layers"][key] for op in traced_done])
                  for key in LAYER_METRICS}
        values["trace.overhead_s"] = \
            median([op["solve_s"] for op in traced_done]) \
            - median([op["solve_s"] for op in done])
        units = PER_LAYER
    else:
        setups = [op["setup_s"] for op in done]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(name, seed, "--setup-only")["setup_s"])
        values = {
            "setup_s": median(setups),
            "solve_s": median([op["solve_s"] for op in done]),
            "step_ms_p50": 1e3 * median([t for op in done
                                         for t in op["step_s"]]),
            "peak_rss_mb": median([op["peak_rss_mb"] for op in done]),
        }
        units = END_TO_END
    summary["metrics"] = {key: {"value": values[key], "unit": units[key]}
                          for key in units}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "wall_s": time.monotonic() - start,
              "environment": warmup["environment"],
              "warmup_setup_s": warmup["setup_s"],
              "operations": ops, "traced_operations": traced,
              "result": summary}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    return summary


def report(name: str, summary: dict):
    print(f"{name}: {summary['attempted']} operations attempted, "
          f"{summary['failed']} failed, outputs "
          f"{'correct' if summary['correct'] else 'WRONG'}")
    for key, metric in summary["metrics"].items():
        print(f"  {key:30s} {metric['value']:14.6f} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, metavar="STEPS",
                        help="print the untargeted trajectory and exit")
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.reference:
            for name in names:
                spawn(name, args.seed, "--reference", str(args.reference),
                      capture=False)
            return 0
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
            report(name, results[name])
    except WorkerFault as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric
                        for name, r in results.items()
                        for key, metric in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
