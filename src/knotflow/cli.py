"""Command-line front end: run scene files and the acceptance benchmarks.

Exit codes for `solve`: 0 converged, 1 scene error (printed to stderr as
`knotflow: <message>`; dependent constraints, found once the flow factors
the constraint Jacobian, count as one), 2 stuck, 3 iteration cap reached.

BLAS thread pools start when numpy loads, before arguments are parsed: set
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS before launch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .constraints import RankDeficientConstraintsError
from .flow import ACCEL_MODES, STRATEGIES, run_flow
from .scenes import SceneError, export_frames, parse_scene


def _solve(args) -> int:
    scene = parse_scene(Path(args.scene))
    overrides = {}
    if args.strategy:
        overrides["strategy"] = args.strategy
    if args.accel:
        overrides["accel"] = args.accel
    if args.max_iters is not None:
        overrides["max_iters"] = args.max_iters
    net = scene.build_curve(seed_override=args.seed)
    params = scene.build_params()
    constraints = scene.build_constraints(net)
    potentials = scene.build_potentials(params)
    strategy, config = scene.build_flow_config(overrides)

    result = run_flow(net, params, constraints, strategy=strategy,
                      potentials=potentials, config=config)

    settings = scene.output_settings()
    out_dir = args.out or settings["directory"]
    stride = args.stride or settings["stride"]
    if out_dir:
        export_frames(result, net.edges, out_dir, stride=stride,
                      summary_extra={"strategy": strategy,
                                     "accel": config.accel,
                                     "scene": str(args.scene)})
    last = result.reports[-1] if result.reports else None
    print(f"{result.stop_reason} ({result.stop_detail}): "
          f"{len(result.reports)} iterations"
          + (f", energy {last.energy:.6g}, |g| {last.gradient_norm:.3g}"
             if last else ""))
    return {"converged": 0, "target-energy": 0, "stuck": 2,
            "max_iters": 3}[result.stop_reason]


def _bench(args) -> int:
    from . import bench

    results = bench.run_benchmarks(only=args.only, quick=args.quick,
                                   out_dir=args.out)
    if args.ledger:
        bench.append_ledger(args.ledger, results, quick=args.quick)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.format_line())
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="knotflow",
        description="Self-avoiding curve network optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_help = ("run a scene file; to cap BLAS threads, set "
                  "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS "
                  "before launch")
    solve = sub.add_parser("solve", help=solve_help, description=solve_help)
    solve.add_argument("scene")
    solve.add_argument("--out", default=None, help="output directory")
    solve.add_argument("--stride", type=int, default=None,
                       help="frame export stride")
    solve.add_argument("--accel", choices=ACCEL_MODES)
    solve.add_argument("--strategy", choices=STRATEGIES)
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--seed", type=int, default=None,
                       help="override the curve seed")
    solve.set_defaults(func=_solve)

    bench = sub.add_parser("bench", help="run the acceptance benchmark matrix")
    bench.add_argument("--only", nargs="*", type=int, default=None,
                       help="criterion numbers to run (default: all)")
    bench.add_argument("--quick", action="store_true",
                       help="reduced sizes for smoke testing (not the "
                            "acceptance configuration)")
    bench.add_argument("--out", default=None,
                       help="directory for benchmark artifacts")
    bench.add_argument("--ledger", default=None, metavar="PATH",
                       help="append one JSON record of this run (pass "
                            "flags, criterion 7's step times and exponents, "
                            "nproc, BLAS, git revision) to the list in PATH")
    bench.set_defaults(func=_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SceneError, RankDeficientConstraintsError) as exc:
        print(f"knotflow: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
