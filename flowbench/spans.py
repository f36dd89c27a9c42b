"""Spans around the public entry points of each `knotflow` layer.

`install()` replaces each traced function by a wrapper, in the module or on
the class the caller looks it up from, so the flow runs unchanged apart from
the timing. Spans nest: a span's self time is its duration minus the
durations of the spans opened inside it. Spans are folded into per-name
totals in memory, and `layer_metrics()` turns them into the benchmark's
per-layer metrics when the operation ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# every per-layer metric with its unit, in report order
LAYER_METRICS = {
    "flow.steps": "count",
    "flow.ls_trials": "count",
    "flow.ls_accept_ratio": "ratio",
    "flow.ccd_s": "s",
    "flow.step_solver_s": "s",
    "flow.loop_s": "s",
    "energy.diff_s": "s",
    "energy.trial_s": "s",
    "energy.evals": "count",
    "network.pairs_calls": "count",
    "network.pairs_s": "s",
    "metric.assemble_s": "s",
    "metric.factor_s": "s",
    "metric.saddle_solves": "count",
    "metric.solve_s": "s",
    "constraints.rank_check_s": "s",
    "constraints.project_s": "s",
    "constraints.projection_iters": "count",
    "bvh.builds": "count",
    "bvh.build_s": "s",
    "bvh.depth": "count",
    "bvh.refits": "count",
    "bvh.refit_s": "s",
    "bct.build_s": "s",
    "bct.matvecs": "count",
    "bct.matvec_s": "s",
    "bct.admissible_blocks": "count",
    "bct.near_nnz": "count",
    "multigrid.setup_s": "s",
    "multigrid.gradient_solves": "count",
    "multigrid.projection_solves": "count",
    "multigrid.vcycles": "count",
    "multigrid.unconverged": "count",
    "multigrid.solve_s": "s",
}


class Tracer:
    def __init__(self):
        self.open = []                       # [name, time of child spans]
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stats = defaultdict(int)        # counts read from return values

    def wrap(self, name, fn, after=None):
        """`name` is a span name, or a function of the open span names."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) \
                else name([span[0] for span in tracer.open])
            span = [label, 0.0]
            tracer.open.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer.open.pop()
                if tracer.open:
                    tracer.open[-1][1] += duration
                tracer.count[label] += 1
                tracer.self_s[label] += duration - span[1]
            if after is not None:
                after(tracer.stats, args, result)
            return result

        return traced


def _tree_depth(left, right):
    depth, level = 0, [0]
    while level:
        depth += 1
        level = [c for node in level if left[node] >= 0
                 for c in (left[node], right[node])]
    return depth


def _after_bvh(stats, args, _):
    bvh = args[0]
    stats["bvh.depth"] = max(stats["bvh.depth"],
                             _tree_depth(bvh.left, bvh.right))


def _after_hier_metric(stats, args, _):
    metric = args[0]
    stats["bct.admissible_blocks"] = max(stats["bct.admissible_blocks"],
                                         len(metric.bct.adm_a))
    stats["bct.near_nnz"] = max(stats["bct.near_nnz"],
                                metric.k_high.near.nnz)


def _after_vcycle(stats, _, result):
    info = result[1]
    stats["multigrid.vcycles"] += info["cycles"]
    stats["multigrid.unconverged"] += not info["converged"]


def _after_energy(stats, *_):
    stats["energy.evals"] += 1


def _energy_span(open_spans):
    return "energy.trial" if "flow.line_search" in open_spans \
        else "energy.diff"


def install(tracer: Tracer):
    """Wrap each layer's entry points; returns nothing, patches in place."""
    import knotflow.constraints as constraints
    import knotflow.flow as flow
    from knotflow.bct import HierKernelMatrix, HierMetric
    from knotflow.bvh import EdgeBvh
    from knotflow.metric import MetricOperator, SaddleFactor
    from knotflow.multigrid import MultigridHierarchy
    from knotflow.network import CurveNetwork

    patches = [
        (flow, "run_flow", "flow.run", None),
        (flow, "line_search", "flow.line_search", None),
        (flow, "collision_step_limit", "flow.ccd", None),
        (flow.StepSolver, "__init__", "flow.step_solver", None),
        (flow.StepSolver, "direction", "flow.step_solver", None),
        (flow.StepSolver, "project", "constraints.project", None),
        (flow, "discrete_energy", _energy_span, _after_energy),
        (flow, "bh_energy", _energy_span, _after_energy),
        (flow, "discrete_differential", "energy.diff", None),
        (flow, "bh_differential", "energy.diff", None),
        (CurveNetwork, "disjoint_edge_pairs", "network.pairs", None),
        (MetricOperator, "__init__", "metric.assemble", None),
        (SaddleFactor, "__init__", "metric.factor", None),
        (SaddleFactor, "solve", "metric.solve", None),
        (constraints.ConstraintSet, "check_rank", "constraints.rank_check",
         None),
        # the dense path's projection loop; the multigrid path loops inside
        # StepSolver.project, so both count as constraint projection
        (constraints, "project_onto_constraints", "constraints.project_loop",
         None),
        (EdgeBvh, "__init__", "bvh.build", _after_bvh),
        (EdgeBvh, "refit", "bvh.refit", None),
        (HierMetric, "__init__", "bct.build", _after_hier_metric),
        (HierKernelMatrix, "matvec", "bct.matvec", None),
        (MultigridHierarchy, "__init__", "multigrid.setup", None),
        (MultigridHierarchy, "solve_gradient", "multigrid.gradient", None),
        (MultigridHierarchy, "solve_projection_step", "multigrid.projection",
         None),
        (MultigridHierarchy, "vcycle_solve", "multigrid.vcycle",
         _after_vcycle),
    ]
    for owner, attr, name, after in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))


def layer_metrics(tracer: Tracer, result) -> dict:
    """Per-layer metrics of one traced operation, keyed as LAYER_METRICS."""
    n, s, stats = tracer.count, tracer.self_s, tracer.stats
    # every line-search trial projects (all workloads carry constraints)
    trials = n["constraints.project"]
    steps = len(result.reports)
    values = {
        "flow.steps": steps,
        "flow.ls_trials": trials,
        "flow.ls_accept_ratio": steps / trials if trials else 0.0,
        "flow.ccd_s": s["flow.ccd"],
        "flow.step_solver_s": s["flow.step_solver"],
        "flow.loop_s": s["flow.run"] + s["flow.line_search"],
        "energy.diff_s": s["energy.diff"],
        "energy.trial_s": s["energy.trial"],
        "energy.evals": stats["energy.evals"],
        "network.pairs_calls": n["network.pairs"],
        "network.pairs_s": s["network.pairs"],
        "metric.assemble_s": s["metric.assemble"],
        "metric.factor_s": s["metric.factor"],
        "metric.saddle_solves": n["metric.solve"],
        "metric.solve_s": s["metric.solve"],
        "constraints.rank_check_s": s["constraints.rank_check"],
        "constraints.project_s": s["constraints.project"]
        + s["constraints.project_loop"],
        "constraints.projection_iters": sum(r.projection_iters
                                            for r in result.reports),
        "bvh.builds": n["bvh.build"],
        "bvh.build_s": s["bvh.build"],
        "bvh.depth": stats["bvh.depth"],
        "bvh.refits": n["bvh.refit"],
        "bvh.refit_s": s["bvh.refit"],
        "bct.build_s": s["bct.build"],
        "bct.matvecs": n["bct.matvec"],
        "bct.matvec_s": s["bct.matvec"],
        "bct.admissible_blocks": stats["bct.admissible_blocks"],
        "bct.near_nnz": stats["bct.near_nnz"],
        "multigrid.setup_s": s["multigrid.setup"],
        "multigrid.gradient_solves": n["multigrid.gradient"],
        "multigrid.projection_solves": n["multigrid.projection"],
        "multigrid.vcycles": stats["multigrid.vcycles"],
        "multigrid.unconverged": stats["multigrid.unconverged"],
        "multigrid.solve_s": s["multigrid.gradient"]
        + s["multigrid.projection"] + s["multigrid.vcycle"],
    }
    return values
