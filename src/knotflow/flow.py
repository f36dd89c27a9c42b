"""Outer optimization loop: descent directions, collision-aware stepping,
backtracking line search, constraint projection, stopping.

Two stepping modes: collision-limited (continuous collision detection yields
the first crossing time tau_max, the search starts at 2/3 tau_max, so the
isotopy class is preserved) and normalized backtracking (direction normalized
in the lumped L2 norm, search starts at tau = 1).  A step is accepted only if
the Armijo condition holds at the post-projection positions, so with
accel="exact" recorded energies decrease monotonically.  With accel="bh" they
decrease only up to the Barnes-Hut error: a recorded energy comes from the
line search's refitted tree, the next step's start value from a rebuilt one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .bvh import (BH_EPS, BhPlan, EdgeBvh, bh_differential, bh_energy,
                  overlap_pairs)
from .constraints import PROJECTION_TOL, ConstraintSet, ProjectionFailure
from .energy import (EnergyParams, SelfContactError, discrete_differential,
                     discrete_energy)
from .metric import MetricOperator, SaddleFactor
from .multigrid import MultigridHierarchy, level_metric
from .network import (CurveNetwork, InvalidNetworkError, stack_fields,
                      unstack_fields)
from .potentials import ObstacleContactError

STRATEGIES = ("hs", "hs-mg", "l2", "h1", "h2")
ACCEL_MODES = ("exact", "bh")
# the line search starts at tau <= 1, so the CCD looks no further than this
COLLISION_HORIZON = 1.5
# step size below which the line search gives up, read at call time
TAU_FLOOR = 1e-12


@dataclass
class FlowConfig:
    """The settings a flow may vary.  The fixed ones are module constants,
    read at call time: TAU_FLOOR, `constraints.PROJECTION_MAX_ITERS` and
    `multigrid.SMOOTHER_ITERS`, `MAX_VCYCLES` and `TARGET_REL_RESIDUAL`."""

    mode: str = "normalized"            # "normalized" or "collision"
    armijo: float = 1e-4
    backtrack: float = 0.5
    stop_tolerance: float = 1e-4
    stop_energy: float | None = None
    max_iters: int = 500
    accel: str = "exact"
    bh_eps: float = BH_EPS

    def __post_init__(self):
        if self.mode not in ("normalized", "collision"):
            raise ValueError(f"unknown stepping mode {self.mode!r}")
        if not 0 < self.armijo <= 0.5:
            raise ValueError("armijo parameter must lie in (0, 0.5]")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack factor must lie in (0, 1)")
        if not self.stop_tolerance > 0:               # NaN fails too
            raise ValueError("stop tolerance must be positive")
        if self.accel not in ACCEL_MODES:
            raise ValueError(f"unknown accel mode {self.accel!r}")


@dataclass
class StepReport:
    iteration: int
    energy: float
    gradient_norm: float
    step_size: float
    constraint_residual: float
    projection_iters: int
    ls_trials: int                      # line-search trials, accepted one
                                        # included
    rejected_projection_iters: int      # corrections of the trials whose
                                        # projection failed
    wall_time: float
    collision_limited: bool
    mg_cycles: int                      # V-cycles (one per flexible CG
                                        # iteration) of the step's solves
    mg_unconverged: int                 # solves ending above the target
    mg_residual: float                  # largest final true relative residual
    mg_solves: int                      # multigrid solves of the step
    mg_hier_levels: int                 # levels applying HierMetric
    mg_levels: int                      # multigrid levels; each mg_ field
                                        # is 0 on the exact factor, which
                                        # "hs-mg" takes on a dense level 0
    bh_far: int                         # far (edge, node) entries and leaf
    bh_leaf_pairs: int                  # pairs of the step-start Barnes-Hut
                                        # plan (0 on the exact path)


@dataclass
class FlowResult:
    reports: list
    net: CurveNetwork
    stop_reason: str                    # "converged", "target-energy",
                                        # "stuck", "max_iters"
    frames: list                        # vertex snapshots incl. initial
    stop_detail: str                    # what made the flow stop

    @property
    def energies(self):
        return np.array([r.energy for r in self.reports])


def mass_norm(net: CurveNetwork, field_vectors: np.ndarray) -> float:
    """Lumped L2 norm: sqrt(sum_v m_v |u_v|^2) with vertex dual masses."""
    m = net.dual_masses()
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(m * np.einsum("vi,vi->v", field_vectors,
                                                  field_vectors))))


def graph_laplacian(net: CurveNetwork) -> csr_matrix:
    """Vertex Laplacian with edge weights 1/l_I."""
    geom = net.geometry()
    w = 1.0 / geom.lengths
    i, j = net.edges[:, 0], net.edges[:, 1]
    V = net.n_vertices
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([-w, -w, w, w])
    return csr_matrix((vals, (rows, cols)), shape=(V, V))


def baseline_metric_matrix(net: CurveNetwork, strategy: str) -> np.ndarray:
    """Dense metric for the L2 / H1 / H2 baseline preconditioners.

    L2 uses the lumped mass; H1 the 1/l graph Laplacian plus a small mass
    term; H2 the Laplacian squared plus a mass term.  The mass terms are
    scaled by powers of the total length so every term carries the same
    physical dimension.
    """
    masses = net.dual_masses()
    if strategy == "l2":
        return np.diag(masses)
    L = graph_laplacian(net).toarray()
    total = net.total_length()
    if strategy == "h1":
        return L + np.diag(masses) / total ** 2
    if strategy == "h2":
        return L @ L + np.diag(masses) / total ** 3
    raise ValueError(f"not a baseline strategy: {strategy!r}")


class Objective:
    """Energy + weighted potentials with exact or Barnes-Hut evaluation.

    On the exact path the step start takes the energy and the differential
    from one pass.  With `metric_sums`, that pass also fills the
    metric kernel sums of the dense H^s metric (`discrete_differential`),
    kept in `sums` for the step's `StepSolver`.  On the Barnes-Hut path
    each tree fit makes one plan (`EdgeBvh.plan`): the step start builds a
    tree and takes the energy and the differential from one pass over its
    plan, which `plan` keeps for the step's telemetry; each line-search
    trial refits the tree and plans again.
    """

    def __init__(self, params: EnergyParams, potentials=(),
                 accel: str = "exact", bh_eps: float = BH_EPS,
                 metric_sums: bool = False):
        self.params = params
        self.potentials = tuple(potentials)
        self.accel = accel
        self.bh_eps = bh_eps
        self.metric_sums = metric_sums
        # tree fitted to the last evaluated network (None on the exact path)
        self.bvh: EdgeBvh | None = None
        # the step-start plan (None on the exact path)
        self.plan: BhPlan | None = None
        # the step start's metric kernel sums, refilled in place at each
        # step start (None unless the exact path was asked for them)
        self.sums: np.ndarray | None = None
        # the exact path's broad-phase tree, built once (`ccd_tree`)
        self._ccd_tree: EdgeBvh | None = None

    def energy(self, net: CurveNetwork) -> float:
        """Line-search trial value; the Barnes-Hut tree is refitted to `net`
        (built when there is none yet) and planned for it."""
        if self.accel == "exact":
            value = discrete_energy(net, self.params)
        else:
            if self.bvh is None:
                self.bvh = EdgeBvh(net)
            else:
                self.bvh.refit(net)
            value = bh_energy(net, self.bvh, self.params, eps=self.bh_eps)
        for pot in self.potentials:
            v, _ = pot.value_and_differential(net, self.params)
            value += pot.weight * v
        return value

    def energy_and_differential(self, net: CurveNetwork):
        """Step-start value and differential; the Barnes-Hut tree is rebuilt
        for `net`, and one plan serves both."""
        if self.accel == "exact":
            if self.metric_sums:
                # one buffer per flow: the dense metric copies out of it
                # (`dense_kernel_matrices`), so no step holds it
                shape = (2, net.n_edges, net.n_vertices)
                if self.sums is None or self.sums.shape != shape:
                    self.sums = np.zeros(shape)
                else:
                    self.sums.fill(0.0)
            value, grad = discrete_differential(net, self.params,
                                                sums=self.sums)
        else:
            self.bvh = EdgeBvh(net)
            value, grad = bh_differential(net, self.bvh, self.params,
                                          eps=self.bh_eps)
            self.plan = self.bvh.plan(net, self.bh_eps)
        for pot in self.potentials:
            v, g = pot.value_and_differential(net, self.params)
            value += pot.weight * v
            grad = grad + pot.weight * g
        return value, grad

    def ccd_tree(self, net: CurveNetwork) -> EdgeBvh:
        """A tree for the collision broad phase, which reads only its
        topology: the step-start tree on the Barnes-Hut path; on the exact
        path one tree, built on `net` at the first call and kept for the
        whole flow, never fitted to the later networks and so never handed
        on as the `bvh` of a step."""
        if self.bvh is not None:
            return self.bvh
        if self._ccd_tree is None:
            self._ccd_tree = EdgeBvh(net)
        return self._ccd_tree


class StepSolver:
    """Per-step frozen preconditioner: direction solve + projection solve.

    `saddle` is the exact `SaddleFactor` or, on "hs-mg" where the finest
    `multigrid.level_metric` is a `HierMetric`, the `MultigridHierarchy`
    seeded with it; both answer `solve_gradient`,
    `solve_projection_step`, `rank_suspect` and the V-cycle tallies
    `solves`, `cycles`, `unconverged` and `residual` (zeros on the exact
    factor), and `levels` (empty on it).
    `bvh` (optional) is a tree fitted to `net` for the multigrid metric,
    and `sums` (optional) the metric kernel sums of `net` for the dense
    "hs" metric, as `Objective.energy_and_differential` leaves them.
    Rank loss of the Jacobian shows in the factorization the solver builds
    (the constraint block of the saddle factor, the level-0 C C^T factor of
    a hierarchy); only then does the SVD of `ConstraintSet.check_rank` run,
    to name the dependent rows.  The factor alone assembles the Jacobian; the
    check assembles it again.  `run_flow` has no check of its own: its
    first solver, for the initial projection or the first step, finds rank
    loss present from the start.
    """

    def __init__(self, strategy: str, net: CurveNetwork, params: EnergyParams,
                 constraints: ConstraintSet, bvh: EdgeBvh | None = None,
                 sums: np.ndarray | None = None):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.constraints = constraints
        if constraints.k == 0:
            raise ValueError(
                "at least one translation-fixing constraint is required")
        try:
            A = None
            if strategy == "hs-mg":
                metric = level_metric(net, params, bvh)
                if isinstance(metric, MetricOperator):
                    A = metric.A
                else:
                    self.saddle = MultigridHierarchy(net, params, constraints,
                                                     metric)
            elif strategy == "hs":
                A = MetricOperator(net, params, sums).A
            else:
                A = baseline_metric_matrix(net, strategy)
            if A is not None:
                self.saddle = SaddleFactor(A, constraints.jacobian(net),
                                           net.dual_masses())
        except np.linalg.LinAlgError:
            constraints.check_rank(constraints.jacobian(net))
            raise
        if self.saddle.rank_suspect:
            constraints.check_rank(constraints.jacobian(net))

    def direction(self, differential: np.ndarray) -> np.ndarray:
        """Projected preconditioned gradient, (V, 3)."""
        return unstack_fields(
            self.saddle.solve_gradient(stack_fields(differential)))

    def project(self, net: CurveNetwork, initial: bool = False):
        """Constraint restoration in PROJECTION_MAX_ITERS corrections, three
        times as many for the `initial` projection of a flow; returns (net,
        iterations) or raises."""
        from . import constraints

        return constraints.project_onto_constraints(
            self.saddle.solve_projection_step, self.constraints, net,
            max_iters=(3 if initial else 1) * constraints.PROJECTION_MAX_ITERS)


def _segment_distance_params(p1, p2, q1, q2):
    """Closest-approach parameters (s, u) in [0,1]^2 of two segments, batched."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = np.einsum("ni,ni->n", d1, d1)
    e = np.einsum("ni,ni->n", d2, d2)
    f = np.einsum("ni,ni->n", d2, r)
    c = np.einsum("ni,ni->n", d1, r)
    b = np.einsum("ni,ni->n", d1, d2)
    denom = a * e - b * b
    s = np.where(denom > 0, (b * f - c * e) / np.where(denom == 0, 1, denom), 0)
    s = np.clip(s, 0.0, 1.0)
    u = np.where(e > 0, (b * s + f) / np.where(e == 0, 1, e), 0)
    u = np.clip(u, 0.0, 1.0)
    s = np.where(a > 0, (b * u - c) / np.where(a == 0, 1, a), 0)
    s = np.clip(s, 0.0, 1.0)
    return s, u


def _segment_gap(p1, p2, q1, q2):
    s, u = _segment_distance_params(p1, p2, q1, q2)
    close_p = p1 + s[:, None] * (p2 - p1)
    close_q = q1 + u[:, None] * (q2 - q1)
    return np.linalg.norm(close_p - close_q, axis=1)


def collision_step_limit(net: CurveNetwork, direction: np.ndarray,
                         cap: float = 1e3,
                         bvh: EdgeBvh | None = None) -> float:
    """First time tau at which any non-adjacent edge pair crosses while the
    vertices move along gamma - tau * direction; returns cap if none.  `bvh`
    (optional) lends its topology to the broad phase (`_collision_times`)."""
    hits = _collision_times(net, net.vertices, -np.asarray(direction, float),
                            cap, bvh)
    return float(hits.min()) if len(hits) else cap


def crossings_during_motion(net: CurveNetwork, start: np.ndarray,
                            end: np.ndarray,
                            bvh: EdgeBvh | None = None) -> int:
    """Count edge-pair crossing events along the linear motion start -> end.

    Contacts already present at the start frame are not re-counted."""
    hits = _collision_times(net, start, end - start, 1.0, bvh)
    return int(np.sum(hits > 1e-12))


def _collision_times(net: CurveNetwork, base: np.ndarray,
                     velocity: np.ndarray, cap: float,
                     bvh: EdgeBvh | None = None) -> np.ndarray:
    """First-contact times in (0, cap] over all non-adjacent edge pairs of
    `net`'s topology, for vertices moving from `base` along `velocity`.

    Conservative advancement on linear vertex trajectories: the edge-edge gap
    can shrink at most at the sum of the two segments' maximal relative
    endpoint speeds, so advancing by gap/rate can never skip a crossing.
    Only pairs whose swept bounding boxes (each edge's endpoints at times 0
    and cap) overlap can touch; the broad phase `overlap_pairs` finds
    exactly those on the topology of `bvh` (a tree built on `net` when None)
    instead of testing all E^2 / 2 pairs.  The hit times come in no
    particular order; callers take their minimum or count.
    """
    ends = base[net.edges]                  # (E, 2, 3), at times 0 and cap
    moved = ends + cap * velocity[net.edges]
    lo = np.minimum(ends.min(axis=1), moved.min(axis=1))
    hi = np.maximum(ends.max(axis=1), moved.max(axis=1))
    pad = 1e-12 * max(1.0, np.abs(hi).max())
    ii, jj = overlap_pairs(net, bvh if bvh is not None else EdgeBvh(net),
                           lo, hi, pad)
    return _contact_times(net, base, velocity, cap, ii, jj)


def _contact_times(net: CurveNetwork, base: np.ndarray, velocity: np.ndarray,
                   cap: float, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The narrow phase of `_collision_times`: first-contact times in
    (0, cap] of the edge pairs (ii, jj) by conservative advancement."""
    if len(ii) == 0:
        return np.zeros(0)
    edges = net.edges
    p0 = base[edges[:, 0]]
    p1 = base[edges[:, 1]]
    v0 = velocity[edges[:, 0]]
    v1 = velocity[edges[:, 1]]

    # common-motion reduction: the gap only depends on relative positions, so
    # subtract each pair's mean velocity before bounding the closing rate
    vmean = 0.25 * (v0[ii] + v1[ii] + v0[jj] + v1[jj])
    speeds = [np.linalg.norm(v - vmean, axis=1)
              for v in (v0[ii], v1[ii], v0[jj], v1[jj])]
    rate = np.maximum(speeds[0], speeds[1]) + np.maximum(speeds[2], speeds[3])

    scale = float(np.abs(base).max() + cap * np.abs(velocity).max() + 1.0)
    tol = 1e-9 * scale
    t = np.zeros(len(ii))
    active = rate > 0
    hits = []
    for _ in range(256):
        if not np.any(active):
            break
        sel = np.flatnonzero(active)
        tv = t[sel]
        P1 = p0[ii[sel]] + tv[:, None] * v0[ii[sel]]
        P2 = p1[ii[sel]] + tv[:, None] * v1[ii[sel]]
        Q1 = p0[jj[sel]] + tv[:, None] * v0[jj[sel]]
        Q2 = p1[jj[sel]] + tv[:, None] * v1[jj[sel]]
        gap = _segment_gap(P1, P2, Q1, Q2)
        touching = gap <= tol
        if np.any(touching):
            contact = sel[touching]
            hits.append(t[contact].copy())
            active[contact] = False
            sel = sel[~touching]
            gap = gap[~touching]
        if len(sel) == 0:
            continue
        t[sel] += gap / rate[sel]
        passed = t[sel] > cap
        active[sel[passed]] = False
    else:
        # iteration budget exhausted: treat unresolved pairs as touching at
        # their current time (errs on the early side, never misses a crossing)
        unresolved = np.flatnonzero(active)
        if len(unresolved):
            times = t[unresolved]
            hits.append(times[(times > 1e-14) & (times <= cap)])
    return np.concatenate(hits) if hits else np.zeros(0)


class StuckFlow(RuntimeError):
    pass


def line_search(net: CurveNetwork, direction: np.ndarray, objective: Objective,
                solver: StepSolver | None, f0: float, slope: float,
                config: FlowConfig):
    """Backtracking search along gamma - tau * direction.

    Returns (tau, new_net, f_new, projection_iters, collision_limited,
    trials, rejected_projection_iters): the trials tried, the accepted one
    included, and the projection iterations spent on the trials whose
    projection failed.  The Armijo test is evaluated after constraint
    projection, so accepted steps decrease the recorded objective.  A trial
    whose projection fails is rejected like one that fails Armijo; the
    projection gives up as soon as its own contraction rate, the first ratio
    left out, predicts it cannot reach tolerance within the budget (see
    `project_onto_constraints`), so hopeless trials usually cost two
    corrections instead of the whole budget.  A trial that runs into
    contact (self or obstacle) or breaks the network is rejected too; any
    other error propagates.  Raises StuckFlow on underflow below TAU_FLOOR.
    """
    collision_limited = False
    if config.mode == "collision":
        # a short CCD horizon keeps swept-box pruning effective
        tau_max = collision_step_limit(net, direction, cap=COLLISION_HORIZON,
                                       bvh=objective.ccd_tree(net))
        if tau_max <= TAU_FLOOR:
            raise StuckFlow("collision limit is zero; curve is in contact")
        collision_limited = tau_max < COLLISION_HORIZON
        tau = min((2.0 / 3.0) * tau_max, 1.0)
    else:
        scale = mass_norm(net, direction)
        if scale == 0.0:
            raise StuckFlow("zero direction")
        direction = direction / scale
        slope = slope / scale
        tau = 1.0

    trials = rejected_iters = 0
    while tau > TAU_FLOOR:
        trials += 1
        candidate = net.with_positions(net.vertices - tau * direction)
        try:
            if solver is not None and solver.constraints.k > 0:
                projected, proj_iters = solver.project(candidate)
            else:
                projected, proj_iters = candidate, 0
            f_new = objective.energy(projected)
        except ProjectionFailure as exc:
            rejected_iters += exc.iterations
            tau *= config.backtrack
            continue
        except (SelfContactError, InvalidNetworkError, ObstacleContactError):
            tau *= config.backtrack
            continue
        if np.isfinite(f_new) and f_new <= f0 - config.armijo * tau * slope:
            return (tau, projected, f_new, proj_iters, collision_limited,
                    trials, rejected_iters)
        tau *= config.backtrack
    raise StuckFlow(f"line search underflow below {TAU_FLOOR:g}")


def run_flow(net: CurveNetwork, params: EnergyParams,
             constraints: ConstraintSet, strategy: str = "hs",
             potentials=(), config: FlowConfig | None = None,
             keep_frames: bool = True) -> FlowResult:
    """Minimize the total objective under constraints; see module docstring."""
    config = config or FlowConfig()
    objective = Objective(params, potentials, accel=config.accel,
                          bh_eps=config.bh_eps, metric_sums=strategy == "hs")
    reports = []
    current = net
    stop_reason = "max_iters"
    stop_detail = f"reached max_iters = {config.max_iters}"
    # restore feasibility once up front so per-step projections only ever
    # handle the small drift introduced by a line-search step
    phi0 = constraints.evaluate(current)
    if len(phi0) and np.linalg.norm(phi0, np.inf) > PROJECTION_TOL:
        solver = StepSolver(strategy, current, params, constraints)
        try:
            current, _ = solver.project(current, initial=True)
        except ProjectionFailure as exc:
            return FlowResult(reports=[], net=current, stop_reason="stuck",
                              frames=[current.vertices.copy()]
                              if keep_frames else [],
                              stop_detail=f"initial projection: {exc}")
    frames = [current.vertices.copy()] if keep_frames else []

    for iteration in range(1, config.max_iters + 1):
        tic = time.perf_counter()
        constraints.advance_schedules()
        f0, dE = objective.energy_and_differential(current)
        solver = StepSolver(strategy, current, params, constraints,
                            bvh=objective.bvh, sums=objective.sums)
        g = solver.direction(dE)
        grad_norm = mass_norm(current, g)
        if grad_norm <= config.stop_tolerance:
            stop_reason = "converged"
            stop_detail = (f"gradient norm {grad_norm:.3g} <= "
                           f"{config.stop_tolerance:g}")
            break
        slope = float(np.sum(dE * g))
        if slope <= 0.0:
            stop_reason, stop_detail = "stuck", "non-positive slope"
            break
        try:
            tau, current, f_new, proj_iters, limited, trials, rejected = \
                line_search(current, g, objective, solver, f0, slope, config)
        except StuckFlow as exc:
            stop_reason, stop_detail = "stuck", str(exc)
            break
        phi = constraints.evaluate(current)
        plan = objective.plan
        reports.append(StepReport(
            iteration=iteration, energy=f_new, gradient_norm=grad_norm,
            step_size=tau,
            constraint_residual=float(np.linalg.norm(phi, np.inf))
            if len(phi) else 0.0,
            projection_iters=proj_iters, ls_trials=trials,
            rejected_projection_iters=rejected,
            wall_time=time.perf_counter() - tic,
            collision_limited=limited, mg_cycles=solver.saddle.cycles,
            mg_unconverged=solver.saddle.unconverged,
            mg_residual=solver.saddle.residual,
            mg_solves=solver.saddle.solves,
            mg_hier_levels=solver.saddle.hier_levels,
            mg_levels=len(solver.saddle.levels),
            bh_far=0 if plan is None else len(plan.far_edge),
            bh_leaf_pairs=0 if plan is None else len(plan.I)))
        if keep_frames:
            frames.append(current.vertices.copy())
        if config.stop_energy is not None and f_new <= config.stop_energy:
            stop_reason = "target-energy"
            stop_detail = f"energy {f_new:.6g} <= {config.stop_energy:g}"
            break

    return FlowResult(reports=reports, net=current, stop_reason=stop_reason,
                      frames=frames, stop_detail=stop_detail)


def projected_crossing_count(net: CurveNetwork,
                             view: np.ndarray | None = None,
                             bvh: EdgeBvh | None = None) -> int:
    """Count proper crossings of the diagram projected along `view`.

    Only edges whose boxes in the view plane overlap can cross there; the
    broad phase `overlap_pairs` lists them on the topology of `bvh` (a tree
    built on `net` when None)."""
    if view is None:
        view = np.array([0.1234, 0.3456, 0.9123])
    view = np.asarray(view, float)
    view = view / np.linalg.norm(view)
    # build any orthonormal frame (u, w, view)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(view @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(view, helper)
    u /= np.linalg.norm(u)
    w = np.cross(view, u)
    pts = np.stack([net.vertices @ u, net.vertices @ w], axis=1)
    ends = pts[net.edges]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    ii, jj = overlap_pairs(net, bvh if bvh is not None else EdgeBvh(net),
                           lo, hi, 1e-12 * max(1.0, np.abs(pts).max()))
    p1, p2 = ends[ii, 0], ends[ii, 1]
    q1, q2 = ends[jj, 0], ends[jj, 1]

    def orient(a, b, c):
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return int(np.sum((d1 * d2 < 0) & (d3 * d4 < 0)))


def minimal_projected_crossings(net: CurveNetwork, samples: int = 24,
                                seed: int = 0) -> int:
    """Minimum projected crossing count over sampled view directions."""
    rng = np.random.default_rng(seed)
    bvh = EdgeBvh(net)
    best = None
    for _ in range(samples):
        v = rng.normal(size=3)
        count = projected_crossing_count(net, v, bvh)
        best = count if best is None else min(best, count)
    return best
