"""Geometric multigrid on curve networks for the projected saddle systems.

Coarsening removes alternating interior vertices (endpoints, junctures, and
constraint-pinned vertices always survive) along each chain of free
vertices, from its smallest (fixed vertex, edge) anchor or, on a loop with
no fixed vertex, from the first end of its lowest edge along that edge; a
loop keeps at least three vertices (see `coarsen_network`).  Prolongation
keeps surviving values and averages the two black neighbors at removed
ones.

Constrained systems are solved in projected form P A_bar P y = P a with the
Euclidean projector P = I - C^T (C C^T)^{-1} C onto the constraint null
space, which is the unique formula satisfying C P = 0 and P^2 = P.  A level
holds P as I - Q Q^T with a dense orthonormal Q when C is at least half full
(few global constraints), and through a sparse LU of C C^T otherwise (k of
order V, as with edge lengths); see `MgLevel`.  Each solve is flexible
conjugate gradient (Notay, SIAM J. Sci. Comput. 22, 2000) preconditioned by
one V-cycle; the V-cycle smooths with a few plain conjugate gradient steps,
which make it a nonlinear map, hence the flexible (Polak-Ribiere) beta.

A level applies the assembled dense metric (`MetricOperator`) when the near
blocks of its block cluster tree hold at least `bct.DENSE_FILL` (2/3) of the
E^2 ordered edge pairs, and the hierarchical metric (`HierMetric`, built on
that tree) otherwise (`level_metric`).  From that fill on, the sparse near
part of `HierMetric` costs as much as the dense metric and the far field
comes on top, so it builds and applies more than the exact metric it
approximates; a level without an admissible block is all near field.  Both
metrics answer `apply` and `apply_stacked`.  Coarsening stops at the first
dense level (or at COARSEST_SIZE, or when nothing can be removed), and one
`SaddleFactor` of the last level's metric solves that level exactly, once
factored per step, where V-cycles below it would only approximate that
solve.  A hierarchy whose finest level is dense is that factor alone, so
`flow.StepSolver` factors a dense finest `level_metric` directly instead.

Within one step the metric and the Jacobian are frozen, so the projection
correction x(phi) is linear in the constraint residual phi.  A hierarchy
keeps the residuals it has solved for and their corrections; a residual in
their span (to SPAN_TOL) is answered by the same combination of the stored
corrections, with no V-cycle.  With k constraints a step thus solves for
at most k projection corrections, however many projection iterations and
line-search trials it takes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, depth_first_order
from scipy.sparse.linalg import splu

from .bct import DENSE_FILL, BlockClusterTree, HierMetric
from .bvh import EdgeBvh
from .constraints import (Barycenter, ConstraintSet, EdgeLengths,
                          PointConstraint, SurfaceConstraint,
                          TangentConstraint, TotalLength)
from .energy import EnergyParams
from .metric import (RANK_PIVOT_TOL, MetricOperator, SaddleFactor,
                     checked_cholesky)
from .network import CurveNetwork

COARSEST_SIZE = 32      # coarsening stops at or below this many vertices
# Relative distance |phi - Phi c| / |phi| from the span of a step's solved
# residuals Phi up to which a projection correction is combined from the
# stored ones; the combination then meets C x = -phi to this relative error.
SPAN_TOL = 1e-8
# Multigrid solve settings, read at call time.  SMOOTHER_ITERS conjugate
# gradient steps smooth before and after each coarse correction; MAX_VCYCLES
# caps the V-cycles, one per flexible CG iteration, of one solve; a solve
# stops once its true relative residual |b - M y| / |b| is at most
# TARGET_REL_RESIDUAL (a projection correction's solve takes its residual
# relative to the correction's own scale; see
# `MultigridHierarchy.solve_projection_step`).
SMOOTHER_ITERS = 3
MAX_VCYCLES = 6
TARGET_REL_RESIDUAL = 1e-3


def coarsen_network(net: CurveNetwork, keep: set[int] | None = None):
    """One coarsening sweep: remove alternating interior vertices.

    A vertex is free when it has degree 2 and is not in `keep`; the free
    vertices form chains, each a path between fixed vertices or a loop of
    free vertices alone.  An anchored chain runs from its smallest (fixed
    vertex, edge) anchor and loses its 1st, 3rd, ... vertices.  A free loop
    of L vertices runs from the first end of its lowest edge along that
    edge and loses its 2nd, 4th, ... vertices, at most L - 3 of them.  A
    removed vertex whose two neighbors coincide, are joined by an edge
    between kept vertices, or are joined by the contraction of a removed
    vertex of lower index stays instead.

    Returns (coarse_net, J, vertex_map, edge_map) where J is the sparse
    prolongation (fine x coarse), vertex_map sends fine vertex index to its
    coarse index (-1 for removed), and edge_map sends each fine edge to the
    coarse edge containing it.  The coarse edges are one per removed vertex,
    in vertex order, from its neighbor across its lower edge to the other,
    then the fine edges between kept vertices in edge order.  Returns None
    when nothing can be removed.
    """
    V, E = net.n_vertices, net.n_edges
    a, b = net.edges.T
    inner, inner_edges, across = net.interior_incidence()
    free = net.degrees == 2
    free[np.fromiter(keep or (), int)] = False
    link = free[a] & free[b]
    n_chains, chain = connected_components(
        csr_matrix((np.ones(link.sum()), (a[link], b[link])), shape=(V, V)),
        directed=False)
    # an anchored chain starts at the free end of its smallest (fixed
    # vertex, edge) anchor; a free loop at the first end of its lowest edge,
    # where its other edge is cut to leave a path
    anchor = np.flatnonzero(free[a] != free[b])
    end = np.where(free[a[anchor]], a[anchor], b[anchor])
    best = np.full(n_chains, V * E)
    np.minimum.at(best, chain[end], (a[anchor] + b[anchor] - end) * E + anchor)
    lowest = np.full(n_chains, E)
    np.minimum.at(lowest, chain[a[link]], np.flatnonzero(link))
    loop = (best == V * E) & (lowest < E)
    first, v0 = best[best < V * E] % E, a[lowest[loop]]
    cut = inner_edges[np.searchsorted(inner, v0)]
    path = link.copy()
    path[np.where(cut[:, 0] == lowest[loop], cut[:, 1], cut[:, 0])] = False
    start = np.append(np.where(free[a[first]], a[first], b[first]), v0)
    # one depth-first pass from a root joined to every start lists the
    # chains one after another, each in order from its start
    graph = csr_matrix((np.ones(path.sum() + len(start)),
                        (np.append(a[path], np.full(len(start), V)),
                         np.append(b[path], start))), shape=(V + 1, V + 1))
    order = depth_first_order(graph, V, directed=False,
                              return_predecessors=False)[1:]
    label = chain[order]
    step = np.arange(len(order))
    pos = step - np.maximum.accumulate(
        np.where(np.append(True, label[1:] != label[:-1]), step, 0))
    size = np.bincount(chain)[label]
    whites = np.sort(order[np.where(
        loop[label], (pos % 2 == 1) & (pos < 2 * size - 6), pos % 2 == 0)])
    # a white stays whose contraction makes a self-loop or an edge that a
    # black pair or a lower white already makes
    row = np.searchsorted(inner, whites)
    black = np.ones(V, dtype=bool)
    black[whites] = False
    kept = black[a] & black[b]
    keys = np.sort(np.vstack([net.edges[kept], across[row]]), axis=1) @ [V, 1]
    unique = np.zeros(len(keys), dtype=bool)
    unique[np.unique(keys, return_index=True)[1]] = True
    clean = unique[kept.sum():] & (across[row, 0] != across[row, 1])
    black[whites[~clean]] = True
    whites, row = whites[clean], row[clean]
    if not len(whites):
        return None
    black_idx = np.flatnonzero(black)
    vertex_map = np.full(V, -1, dtype=int)
    vertex_map[black_idx] = np.arange(len(black_idx))
    edge_map = np.full(E, -1, dtype=int)
    edge_map[inner_edges[row]] = np.arange(len(whites))[:, None]
    rest = np.flatnonzero(edge_map < 0)
    edge_map[rest] = len(whites) + np.arange(len(rest))
    coarse_net = CurveNetwork(net.vertices[black_idx], vertex_map[
        np.vstack([across[row], net.edges[rest]])])
    J = csr_matrix((np.append(np.ones(len(black_idx)),
                              np.full(2 * len(whites), 0.5)),
                    (np.append(black_idx, np.repeat(whites, 2)),
                     vertex_map[np.append(black_idx, across[row])])),
                   shape=(V, len(black_idx)))
    return coarse_net, J, vertex_map, edge_map


def restrict_constraints(constraints: ConstraintSet, coarse_net: CurveNetwork,
                         vertex_map: np.ndarray,
                         edge_map: np.ndarray) -> ConstraintSet:
    """Rebuild the constraint set on a coarse level (Jacobian structure only;
    targets are refreshed from the coarse geometry where needed)."""
    specs = []
    for s in constraints.specs:
        if isinstance(s, Barycenter):
            specs.append(Barycenter(s.target))
        elif isinstance(s, TotalLength):
            specs.append(TotalLength(coarse_net.total_length()))
        elif isinstance(s, EdgeLengths):
            specs.append(EdgeLengths.from_network(coarse_net))
        elif isinstance(s, PointConstraint):
            specs.append(PointConstraint(vertex_map[s.vertex], s.target))
        elif isinstance(s, SurfaceConstraint):
            specs.append(SurfaceConstraint(vertex_map[s.vertex], s.surface))
        elif isinstance(s, TangentConstraint):
            specs.append(TangentConstraint(
                edge_map[s.edge], coarse_net.geometry().tangents[edge_map[s.edge]]))
        else:
            raise TypeError(f"cannot restrict constraint {type(s).__name__}")
    return ConstraintSet(specs)


def level_metric(net: CurveNetwork, params: EnergyParams, bvh=None):
    """The metric of a level on `net`: the exact `MetricOperator` when the
    near blocks of the block cluster tree on `bvh` (fitted to `net`; a new
    tree if None) hold at least DENSE_FILL of the E^2 ordered edge pairs,
    and the `HierMetric` on that tree otherwise (module docstring)."""
    bct = BlockClusterTree(bvh if bvh is not None else EdgeBvh(net))
    sizes = bct.bvh.end - bct.bvh.start
    if sizes[bct.near_a] @ sizes[bct.near_b] >= DENSE_FILL * net.n_edges ** 2:
        return MetricOperator(net, params)
    return HierMetric(net, params.sigma, bct=bct)


class MgLevel:
    """One hierarchy level: network, metric apply, projector.

    The projector P = I - C^T (C C^T)^{-1} C follows the fill of the
    (k x 3V) Jacobian C.  When C is at least half full (3V k <= 2 nnz(C):
    global constraints such as barycenter and total length), `Q` =
    C^T L^{-T} (3V x k, orthonormal columns) with L L^T = C C^T, and
    P v = v - Q (Q^T v).  Otherwise (edge lengths, pins: k of order V, a
    few entries per row, where a dense Q would be quadratic in V) `Q` is
    None and C C^T gets a sparse LU.  A tiny relative pivot of either
    factor sets `rank_suspect`.

    `metric` is the level's `level_metric`, and C the Jacobian of
    `constraints` on `net`.  A level with the dense metric is the last of
    its hierarchy, which factors it instead of smoothing it.

    `scale` corrects the rediscretized coarse metric toward the Galerkin
    operator J^T A_fine J: the nonlocal Gram matrices are not refinement-
    consistent (the omitted near-diagonal band widens with h), so unscaled
    coarse corrections overshoot and the V-cycle diverges.  The factor is
    fitted at setup by matching Rayleigh quotients on smooth probe functions.
    """

    def __init__(self, net: CurveNetwork, metric, constraints: ConstraintSet,
                 prolongation=None):
        self.net = net
        self.J = prolongation          # maps this level's values to the finer
        self.JT = None if prolongation is None else prolongation.T.tocsr()
        self.metric = metric
        self.scale = 1.0
        C = constraints.jacobian(net)
        self.C = C
        self.Q = None
        if 3 * net.n_vertices * C.shape[0] <= 2 * C.nnz:
            factor, self.rank_suspect = checked_cholesky((C @ C.T).toarray())
            self._L = np.tril(factor[0])
            self.Q = scipy.linalg.solve_triangular(
                self._L, C.toarray(), lower=True, check_finite=False).T
        else:
            self._CT = C.T.tocsr()
            try:
                self._lu = splu((C @ self._CT).tocsc())
            except RuntimeError as exc:              # exactly singular
                raise np.linalg.LinAlgError(str(exc)) from exc
            # the pivot tolerance, applied to |U_ii| over the largest one
            u = np.abs(self._lu.U.diagonal())
            self.rank_suspect = bool(u.min() < RANK_PIVOT_TOL * u.max())

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto null(C)."""
        if self.Q is not None:
            return v - self.Q @ (self.Q.T @ v)
        return v - self._CT @ self._lu.solve(self.C @ v)

    def apply_projected(self, v: np.ndarray) -> np.ndarray:
        """M v with M = P A_bar P (symmetric PSD on the constraint space).

        v must already lie in null(C), so P v = v and one projection, after
        the metric, is enough.  The smoother, the V-cycle and the outer
        iteration only pass such operands: projected right-hand sides,
        residuals and corrections built from them.
        """
        return self.project(self.scale * self.metric.apply_stacked(v))

    def min_norm_solution(self, phi: np.ndarray) -> np.ndarray:
        """z = C^T (C C^T)^{-1} phi, the least-norm solution of C z = phi."""
        if self.Q is not None:
            return self.Q @ scipy.linalg.solve_triangular(
                self._L, phi, lower=True, check_finite=False)
        return self._CT @ self._lu.solve(phi)


def prolong(level: "MgLevel", vec_coarse: np.ndarray) -> np.ndarray:
    """Apply blockdiag(J, J, J) to a stacked coarse vector."""
    n_c = level.J.shape[1]
    return (level.J @ vec_coarse.reshape(3, n_c).T).T.reshape(-1)


def restrict(level: "MgLevel", vec_fine: np.ndarray) -> np.ndarray:
    """Apply blockdiag(J, J, J)^T to a stacked fine vector."""
    n_f = level.J.shape[0]
    return (level.JT @ vec_fine.reshape(3, n_f).T).T.reshape(-1)


class MultigridHierarchy:
    """Level stack plus multigrid solves for one frozen geometry.

    Answers the calls of the exact `SaddleFactor` with V-cycle-preconditioned
    flexible CG: `solve_gradient(b)`, `solve_projection_step(phi)` and
    `rank_suspect` (from the finest level's C C^T factor, Cholesky or LU).
    The levels apply `HierMetric` down to the first dense level, the last
    one, whose projected system one `SaddleFactor` (`_saddle`) solves
    exactly.  Every solve adds to the tallies `solves` (solves), `cycles`
    (V-cycles), `unconverged` (solves ending above the residual target) and
    `residual` (largest final true relative residual).  `hier_levels`
    counts the levels that apply `HierMetric`.  `metric` is the finest
    level's `level_metric`; the coarse levels compute their own.  The solves
    read SMOOTHER_ITERS, MAX_VCYCLES and TARGET_REL_RESIDUAL at call time.

    The geometry is frozen, so a projection correction is linear in its
    residual: the residuals solved so far are the columns of `_phis`
    (k x m) and their corrections those of `_xs` (3V x m), and
    `solve_projection_step` reuses them for any residual in their span.
    """

    def __init__(self, net: CurveNetwork, params: EnergyParams,
                 constraints: ConstraintSet, metric):
        self.solves = self.cycles = self.unconverged = 0
        self.residual = 0.0
        self._phis = np.zeros((constraints.k, 0))
        self._xs = np.zeros((3 * net.n_vertices, 0))
        keep = {s.vertex for s in constraints.specs
                if isinstance(s, (PointConstraint, SurfaceConstraint))}
        self.levels: list[MgLevel] = [MgLevel(net, metric, constraints)]
        self.rank_suspect = self.levels[0].rank_suspect
        current, cs = net, constraints
        while isinstance(self.levels[-1].metric, HierMetric) \
                and current.n_vertices > COARSEST_SIZE:
            out = coarsen_network(current, keep=keep)
            if out is None:
                break
            coarse, J, vmap, emap = out
            cs = restrict_constraints(cs, coarse, vmap, emap)
            keep = {vmap[v] for v in keep}
            self.levels.append(MgLevel(coarse, level_metric(coarse, params),
                                       cs, prolongation=J))
            current = coarse
        self.hier_levels = sum(isinstance(level.metric, HierMetric)
                               for level in self.levels)
        self._fit_coarse_scales()
        bottom = self.levels[-1]
        A = bottom.metric.A if isinstance(bottom.metric, MetricOperator) \
            else bottom.metric.apply(np.eye(bottom.net.n_vertices))
        self._saddle = SaddleFactor(A, bottom.C, bottom.net.dual_masses())

    def _fit_coarse_scales(self):
        """Match each coarse metric's smooth-mode response to the Galerkin
        operator of the (already corrected) finer level."""
        for fine, level in zip(self.levels, self.levels[1:]):
            pos = level.net.vertices
            probes = [pos[:, 0], pos[:, 1], pos[:, 2],
                      pos[:, 0] * pos[:, 1]]
            num = den = 0.0
            for u in probes:
                u = u - u.mean()
                d = float(u @ (level.scale * level.metric.apply(u)))
                if d <= 0.0:
                    continue
                uf = level.J @ u
                num += float(uf @ (fine.scale * fine.metric.apply(uf)))
                den += d
            if den > 0.0 and num > 0.0:
                level.scale *= num / den

    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        """The last level's M x = P b, by the saddle factor of its unscaled
        metric, which drops the C^T part of b itself."""
        return self._saddle.solve_gradient(b) / self.levels[-1].scale

    def _smooth(self, level: MgLevel, b: np.ndarray,
                x: np.ndarray | None = None):
        """A fixed number of conjugate gradient steps on M x = b from x (0 if
        None); returns x and its residual b - M x by the CG recurrence."""
        if x is None:
            x, r = np.zeros_like(b), b
        else:
            r = b - level.apply_projected(x)
        p = r
        rr = float(r @ r)
        for _ in range(SMOOTHER_ITERS):
            if rr == 0.0:
                break
            Mp = level.apply_projected(p)
            pMp = float(p @ Mp)
            if pMp <= 0.0:
                break
            alpha = rr / pMp
            x = x + alpha * p
            r = r - alpha * Mp
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new
        return x, r

    def _vcycle(self, i: int, b: np.ndarray,
                presmooth: bool = True) -> np.ndarray:
        """One V-cycle on level i's M x = P b from x = 0.  Without
        `presmooth` it is the initial guess for b: the down leg only
        restricts b, and the coarse solve is prolonged up with smoothing.

        Each level but the last projects its b.  The last level's factor
        takes b as it is: where most of b lies in the span of C^T (A_bar z
        for a least-norm start z), projecting it first cancels to a
        rounding error that the solve amplifies, and the saddle system
        drops that part exactly."""
        level = self.levels[i]
        if level is self.levels[-1]:
            return self._coarse_solve(b)
        b = level.project(b)
        nxt = self.levels[i + 1]
        x, r = self._smooth(level, b) if presmooth else (0.0, b)
        e = self._vcycle(i + 1, restrict(nxt, r), presmooth)
        x = x + level.project(prolong(nxt, e))
        return self._smooth(level, b, x)[0]

    def vcycle_solve(self, b: np.ndarray, x: np.ndarray | None = None,
                     norm_b: float | None = None):
        """Solve P A_bar P y = b for b in null(C); returns (y, info dict).

        Flexible conjugate gradient from x (the initial guess for b if None),
        preconditioned by one V-cycle per iteration, with the Polak-Ribiere
        beta z.(r - r_old) / (z_old.r_old).  The residual r = b - M y is
        computed anew each iteration; info holds its norms relative to
        norm_b (|b| if None) as `residuals`, the V-cycles run (`cycles`) and
        whether the last one met the target (`converged`).
        """
        if norm_b is None:
            norm_b = float(np.linalg.norm(b))
        if norm_b == 0.0:
            return np.zeros_like(b), {"residuals": [0.0], "converged": True,
                                      "cycles": 0}
        top = self.levels[0]
        x = self._vcycle(0, b, presmooth=False) if x is None else x
        r = b - top.apply_projected(x)
        residuals = [float(np.linalg.norm(r)) / norm_b]
        cycles = 0
        p = None
        while residuals[-1] > TARGET_REL_RESIDUAL and cycles < MAX_VCYCLES:
            z = self._vcycle(0, r)
            cycles += 1
            zr = float(z @ r)
            p = z if p is None else z + (zr - float(z @ r_old)) / zr_old * p
            Mp = top.apply_projected(p)
            pMp = float(p @ Mp)
            if pMp <= 0.0:
                break
            x = x + (float(p @ r) / pMp) * p
            r_old, zr_old = r, zr
            r = b - top.apply_projected(x)
            residuals.append(float(np.linalg.norm(r)) / norm_b)
        info = {"residuals": residuals, "cycles": cycles,
                "converged": residuals[-1] <= TARGET_REL_RESIDUAL}
        return x, info

    def _solve(self, b: np.ndarray, x: np.ndarray | None = None,
               norm_b: float | None = None) -> np.ndarray:
        """`vcycle_solve`, with its info added to the tallies."""
        y, info = self.vcycle_solve(b, x, norm_b)
        self.solves += 1
        self.cycles += info["cycles"]
        self.unconverged += not info["converged"]
        self.residual = max(self.residual, info["residuals"][-1])
        return y

    def solve_gradient(self, differential_stacked: np.ndarray) -> np.ndarray:
        """Multigrid version of the tangent-space gradient saddle solve."""
        top = self.levels[0]
        return top.project(self._solve(top.project(differential_stacked)))

    def solve_projection_step(self, phi: np.ndarray) -> np.ndarray:
        """Multigrid version of one constraint-restoration saddle solve.

        Returns x with C x = -phi, metric-minimal: x = z - P y where z is
        the least-norm solution of C z = -phi and y solves the projected
        system M y = P A_bar z.  A residual target relative to |P A_bar z|
        would be the wrong scale: a rough z (a noisy curve, or a curve after
        a few flow steps) makes P A_bar z far larger than the residual of
        x's own size, and such a solve left x 5-40% off.  So x starts from z
        corrected by the initial guess alone, and its error e, which solves
        M e = r with r = P A_bar x, is estimated by the initial guess for r:
        rel^2 = r.e / x.A_bar x estimates the squared relative error of x in
        the metric norm.  While rel exceeds the residual target, a solve of
        M e = r from that estimate corrects x, its residual taken relative
        to |r| / rel, the residual an error as large as x would leave.  One
        such solve can stop short when the error is rough; a second, from
        the new estimate, is allowed.

        A phi within SPAN_TOL of the span of the residuals solved before on
        this hierarchy, phi ~ Phi c, gets X c from their corrections X
        instead of a solve.  Each stored pair meets C x_j = -phi_j (z is
        exact and every correction is projected onto null(C)), so X c meets
        C x = -phi up to the span residual.  Any other phi is solved, and
        the pair is stored.
        """
        c = np.linalg.lstsq(self._phis, phi, rcond=None)[0]
        if np.linalg.norm(phi - self._phis @ c) \
                <= SPAN_TOL * np.linalg.norm(phi):
            return self._xs @ c
        top = self.levels[0]
        x = top.min_norm_solution(-phi)
        x = x - top.project(self._vcycle(
            0, top.scale * top.metric.apply_stacked(x), presmooth=False))
        for _ in range(2):
            Ax = top.scale * top.metric.apply_stacked(x)
            r = top.project(Ax)
            e = top.project(self._vcycle(0, Ax, presmooth=False))
            xAx, re = float(x @ Ax), float(r @ e)
            # x.A_bar x <= 0 only at rounding level, when x is a
            # translation, the exact answer to a barycenter residual
            if xAx <= 0.0 or re <= TARGET_REL_RESIDUAL ** 2 * xAx:
                break
            x = x - top.project(self._solve(
                r, e, float(np.linalg.norm(r)) * np.sqrt(xAx / re)))
        self._phis = np.column_stack([self._phis, phi])
        self._xs = np.column_stack([self._xs, x])
        return x

