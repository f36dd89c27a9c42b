"""One benchmark operation in a fresh process: set up, flow, check.

`run.py` starts this script for every operation, with the BLAS and OpenMP
pools set to one thread and `--spawned-at` holding `time.monotonic()` just
before the start, so set-up time counts from the start of the process. It
prints one JSON line. A fault before the flow starts, such as a missing
`knotflow`, exits with code 2; a fault of the flow itself is reported as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def environment() -> dict:
    """The machine and software the operations run on, as a worker sees
    them; the git revision is None outside a git checkout."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = None
    if (HERE.parent / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                             capture_output=True, text=True, timeout=30)
        revision = out.stdout.strip() if out.returncode == 0 else None
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "git_revision": revision,
    }


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, over all CPUs."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def operation(name: str, seed: int, traced: bool, spawned_at: float) -> dict:
    import knotflow.flow
    import workloads

    net, params, constraints, strategy, config = workloads.build(name, seed)
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    setup_s = time.monotonic() - spawned_at
    steal_start, cpu_start = steal_s(), time.process_time()
    start = time.perf_counter()
    try:
        result = knotflow.flow.run_flow(net, params, constraints,
                                        strategy=strategy, config=config)
    except Exception:
        return {"failure": traceback.format_exc(limit=3)}
    solve_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    steal = steal_s() - steal_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": rss_mb,
           # not metrics: they show whether a slow run shared its machine
           "cpu_s": cpu_s, "steal_s": steal,
           "step_s": [r.wall_time for r in result.reports],
           "energies": [float(r.energy) for r in result.reports],
           "stop_reason": result.stop_reason,
           "checks": verify(name, net, result)}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, result)
    return out


def verify(name, net, result) -> list:
    """Failure messages of the output checks; empty when all pass."""
    import checks
    import workloads

    w = workloads.WORKLOADS[name]
    failures = []
    if result.stop_reason != "target-energy":
        failures.append(f"stopped by {result.stop_reason!r}, not at the "
                        f"target energy")
    final = result.net.vertices
    failures += checks.check_energy(
        net.vertices, final, net.edges, [r.energy for r in result.reports],
        workloads.ALPHA, workloads.BETA, w.energy_rel_tol,
        monotone=w.accel == "exact")
    failures += checks.check_constraints(net.vertices, final, net.edges,
                                         w.constraint)
    if w.trefoil:
        failures += checks.check_trefoil(result.frames, net.edges)
    return failures


def reference(name: str, seed: int, steps: int):
    """Print the trajectory the workload's target energy was picked from."""
    import knotflow.flow
    import workloads

    net, params, constraints, strategy, config = workloads.build(name, seed)
    config.stop_energy = None
    config.max_iters = steps
    result = knotflow.flow.run_flow(net, params, constraints,
                                    strategy=strategy, config=config,
                                    keep_frames=False)
    print(f"{name}: target {workloads.WORKLOADS[name].target_energy}, "
          f"stop {result.stop_reason}")
    for r in result.reports:
        print(f"step {r.iteration:3d}  energy {r.energy:.9f}  "
              f"tau {r.step_size:g}  projection iterations "
              f"{r.projection_iters}  {r.wall_time:.3f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the flow would start")
    parser.add_argument("--reference", type=int, metavar="STEPS",
                        help="print STEPS steps of the untargeted flow")
    args = parser.parse_args()
    spawned_at = time.monotonic() if args.spawned_at is None \
        else args.spawned_at
    sys.path.insert(0, str(SRC))
    try:
        import knotflow
        import workloads

        if not Path(knotflow.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"knotflow loaded from {knotflow.__file__}, "
                              f"not from {SRC}")
        if args.reference:
            reference(args.workload, args.seed, args.reference)
            return 0
        if args.setup_only:
            workloads.build(args.workload, args.seed)
            print(json.dumps({"setup_s": time.monotonic() - spawned_at,
                              "environment": environment()}))
            return 0
    except Exception:
        traceback.print_exc()
        return 2
    print(json.dumps(operation(args.workload, args.seed, bool(args.trace),
                               spawned_at)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
