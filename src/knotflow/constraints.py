"""Hard constraints on curve networks: residuals, Jacobians, projection.

Constraints stack into a single function Phi mapping stacked positions to R^k.
`project_onto_constraints` returns candidate positions to the constraint set
by repeated metric-nearest corrections.  Within a time step the metric and
Jacobian are frozen, so the saddle solver that gives the step's projected
gradient (`SaddleFactor` or `MultigridHierarchy`, through their common
`solve_gradient` / `solve_projection_step`) also gives every correction.

With the Jacobian frozen the projection is a chord method: |Phi|_inf
contracts by a roughly steady ratio per correction rather than
quadratically.  So the loop stops early, with `ProjectionFailure`, once the
best ratio seen from the second correction on cannot bring |Phi|_inf to
PROJECTION_TOL within the iteration budget; a trial that would fail costs
two corrections, not the whole budget.  The first ratio is left out because
the first correction carries a nonlinear transient: on the accepted
`trefoil-dense` trial of step 1 it reads 0.41, the later ones 0.17-0.21,
and that trial needs all 10 corrections.

The edge constraints declare the partials of their rows in edge length,
midpoint and tangent; `network.edge_chain` differentiates them and
`_edge_triplets` lays them out.  Point and surface rows are written directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .network import (CurveNetwork, edge_chain, finite_array,
                      unstack_fields)

# infinity norm of Phi at which a projection counts as converged
PROJECTION_TOL = 1e-8
# corrections one projection may take, read at call time; a flow's initial
# projection, which may start far from feasible, takes three times as many
PROJECTION_MAX_ITERS = 10


class RankDeficientConstraintsError(ValueError):
    """Raised when constraint rows are linearly dependent."""


class ProjectionFailure(RuntimeError):
    """Raised when constraint projection does not reach tolerance."""

    def __init__(self, message, residual, iterations, predicted):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations            # corrections actually run
        self.predicted = predicted              # |Phi|_inf expected at the
                                                # budget at the best rate seen


class ImplicitSurface(Protocol):
    def value(self, x: np.ndarray) -> float: ...
    def gradient(self, x: np.ndarray) -> np.ndarray: ...


@dataclass
class SphereSurface:
    """Implicit sphere f(x) = |x - center|^2 - radius^2."""

    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radius: float = 1.0

    def __post_init__(self):
        self.center = finite_array(self.center, "sphere center")
        self.radius = float(self.radius)
        if not 0.0 < self.radius < np.inf:         # NaN fails too
            raise ValueError("sphere radius must be finite and positive")

    def value(self, x):
        d = np.asarray(x, float) - self.center
        return float(d @ d - self.radius ** 2)

    def gradient(self, x):
        return 2.0 * (np.asarray(x, float) - self.center)


# row index of each entry of three-row `edge_chain` derivatives (3, 3, 2, E)
_THREE_ROWS = np.arange(3)[:, None, None, None]


def _edge_triplets(net: CurveNetwork, rows, vals: np.ndarray, edges=None):
    """Jacobian triplets (row, column, value) of the `edge_chain` derivatives
    vals, (..., 3, 2, E): entry (..., d, a, I) goes to the row `rows`
    broadcasts to it and to column d V + (end a of edge I)."""
    ends = net.edges.T if edges is None else net.edges[edges].T
    cols = ends + net.n_vertices * np.arange(3)[:, None, None]
    return (np.broadcast_to(rows, vals.shape).ravel(),
            np.broadcast_to(cols, vals.shape).ravel(), vals.ravel())


class Barycenter:
    """Fix the length-weighted barycenter: sum_I l_I (x_I - x0) = 0; 3 rows."""

    size = 3

    def __init__(self, target=(0.0, 0.0, 0.0)):
        self.target = finite_array(target, "barycenter target")

    @staticmethod
    def from_network(net: CurveNetwork) -> "Barycenter":
        """Pin the barycenter where it currently is (feasible by default)."""
        geom = net.geometry()
        center = np.einsum("e,ei->i", geom.lengths, geom.midpoints) \
            / geom.lengths.sum()
        return Barycenter(center)

    def evaluate(self, net: CurveNetwork) -> np.ndarray:
        geom = net.geometry()
        return np.einsum("e,ei->i", geom.lengths, geom.midpoints - self.target)

    def jacobian_triplets(self, net: CurveNetwork):
        # row c: dl = (x_I - x0)_c and dmid = l_I e_c
        geom = net.geometry()
        vals = edge_chain(net, dl=(geom.midpoints - self.target).T,
                          dmid=geom.lengths[:, None] * np.eye(3)[:, None])
        return _edge_triplets(net, _THREE_ROWS, vals)

    def describe(self):
        return f"barycenter -> {self.target.tolist()}"


class TotalLength:
    """Fix total curve length: Phi = L0 - sum_I l_I; 1 row."""

    size = 1

    def __init__(self, target: float, growth: float = 1.0):
        self.target = float(finite_array(target, "total-length target"))
        self.growth = float(finite_array(growth, "total-length growth"))

    def evaluate(self, net: CurveNetwork) -> np.ndarray:
        return np.array([self.target - net.geometry().lengths.sum()])

    def jacobian_triplets(self, net: CurveNetwork):
        return _edge_triplets(net, 0, edge_chain(net, dl=-1.0))

    def advance_schedule(self):
        self.target *= self.growth

    def describe(self):
        return f"total-length -> {self.target:g}"


class EdgeLengths:
    """Fix each edge length: Phi_I = l0_I - l_I; one row per edge."""

    def __init__(self, targets, growth: float = 1.0):
        self.targets = np.asarray(targets, dtype=float)
        self.growth = float(finite_array(growth, "edge-length growth"))

    @property
    def size(self):
        return len(self.targets)

    @staticmethod
    def from_network(net: CurveNetwork, growth: float = 1.0) -> "EdgeLengths":
        return EdgeLengths(net.geometry().lengths.copy(), growth)

    def evaluate(self, net: CurveNetwork) -> np.ndarray:
        if len(self.targets) != net.n_edges:
            raise ValueError("edge-length target count mismatch")
        return self.targets - net.geometry().lengths

    def jacobian_triplets(self, net: CurveNetwork):
        return _edge_triplets(net, np.arange(net.n_edges),
                              edge_chain(net, dl=-1.0))

    def advance_schedule(self):
        self.targets = self.targets * self.growth

    def describe(self):
        return f"edge-lengths ({len(self.targets)} rows)"


class PointConstraint:
    """Pin vertex i to a fixed position; 3 rows."""

    size = 3

    def __init__(self, vertex: int, target):
        self.vertex = int(vertex)
        self.target = finite_array(target, "point target")

    def evaluate(self, net: CurveNetwork) -> np.ndarray:
        return net.vertices[self.vertex] - self.target

    def jacobian_triplets(self, net: CurveNetwork):
        rows = np.arange(3)
        cols = self.vertex + np.arange(3) * net.n_vertices
        return rows, cols, np.ones(3)

    def describe(self):
        return f"point v{self.vertex} -> {self.target.tolist()}"


class SurfaceConstraint:
    """Keep vertex i on the implicit surface f(x) = 0; 1 row."""

    size = 1

    def __init__(self, vertex: int, surface: ImplicitSurface):
        self.vertex = int(vertex)
        self.surface = surface

    def evaluate(self, net: CurveNetwork) -> np.ndarray:
        return np.array([self.surface.value(net.vertices[self.vertex])])

    def jacobian_triplets(self, net: CurveNetwork):
        g = np.asarray(self.surface.gradient(net.vertices[self.vertex]), float)
        rows = np.zeros(3, dtype=int)
        cols = self.vertex + np.arange(3) * net.n_vertices
        return rows, cols, g

    def describe(self):
        return f"surface v{self.vertex}"


class TangentConstraint:
    """Force the unit tangent of edge I to a fixed unit vector; 3 rows."""

    size = 3

    def __init__(self, edge: int, target):
        self.edge = int(edge)
        self.target = np.asarray(target, dtype=float)
        norm = np.linalg.norm(self.target)
        if not abs(norm - 1.0) <= 1e-9:             # NaN fails too
            raise ValueError("tangent target must be a unit vector")

    def evaluate(self, net: CurveNetwork) -> np.ndarray:
        return net.geometry().tangents[self.edge] - self.target

    def jacobian_triplets(self, net: CurveNetwork):
        # row r: dT = e_r
        edges = [self.edge]
        vals = edge_chain(net, dT=np.eye(3)[:, None], edges=edges)
        return _edge_triplets(net, _THREE_ROWS, vals, edges)

    def describe(self):
        return f"tangent e{self.edge} -> {self.target.tolist()}"


class ConstraintSet:
    """Ordered collection of constraints with stacked residual and Jacobian."""

    def __init__(self, specs=()):
        self.specs = list(specs)

    def __len__(self):
        return len(self.specs)

    def add(self, spec):
        self.specs.append(spec)
        return self

    @property
    def k(self) -> int:
        return int(sum(s.size for s in self.specs))

    def evaluate(self, net: CurveNetwork) -> np.ndarray:
        if not self.specs:
            return np.zeros(0)
        return np.concatenate([np.atleast_1d(s.evaluate(net))
                               for s in self.specs])

    def jacobian(self, net: CurveNetwork) -> csr_matrix:
        """Stacked sparse Jacobian C (k x 3V), stacked component layout."""
        rows, cols, vals = [], [], []
        offset = 0
        for s in self.specs:
            r, c, v = s.jacobian_triplets(net)
            rows.append(np.asarray(r) + offset)
            cols.append(np.asarray(c))
            vals.append(np.asarray(v, dtype=float))
            offset += s.size
        if not rows:
            return csr_matrix((0, 3 * net.n_vertices))
        return coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(offset, 3 * net.n_vertices)).tocsr()

    def advance_schedules(self):
        """Apply growth schedules to time-varying targets (pre-projection)."""
        for s in self.specs:
            if hasattr(s, "advance_schedule"):
                s.advance_schedule()

    def check_rank(self, C: np.ndarray | csr_matrix):
        dense = C.toarray() if hasattr(C, "toarray") else np.asarray(C)
        if dense.shape[0] == 0:
            return
        sv = np.linalg.svd(dense, compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:
            names = self._dependent_rows(dense)
            raise RankDeficientConstraintsError(
                f"constraint Jacobian is rank deficient; dependent rows "
                f"involve: {names}")

    def _dependent_rows(self, dense):
        rank = np.linalg.matrix_rank(dense)
        names = []
        offset = 0
        for s in self.specs:
            others = np.delete(np.arange(dense.shape[0]),
                               np.arange(offset, offset + s.size))
            if np.linalg.matrix_rank(dense[others]) == rank:
                names.append(s.describe())
            offset += s.size
        return names or ["(unidentified combination)"]


def project_onto_constraints(correction: Callable, constraints: ConstraintSet,
                             net: CurveNetwork, max_iters: int | None = None):
    """Return positions to the constraint set by repeated metric-nearest steps.

    Each iteration adds the stacked displacement x = correction(Phi(current)),
    which solves the saddle system with RHS (0, -Phi), so C x = -Phi; the
    metric and Jacobian stay frozen in the solver behind `correction` (a
    `solve_projection_step`).  `max_iters` defaults to PROJECTION_MAX_ITERS.
    Returns (network, iterations).

    With C frozen this is a chord method, which contracts |Phi|_inf by a
    roughly steady ratio per iteration.  From the second iteration on, rho
    is the smallest ratio n_i / n_(i-1) of successive residual norms seen so
    far, and the loop stops as soon as n_i * rho^(max_iters - i) still lies
    above PROJECTION_TOL: not even the best rate seen would reach tolerance
    within the budget.  The first ratio is left out, since it carries the
    first correction's nonlinear transient (0.41, then 0.17-0.21, on a trial
    of `trefoil-dense` that needs all 10 iterations), and the smallest ratio
    rather than the latest keeps one slow iteration from stopping a
    converging trial.

    Raises ProjectionFailure, with the iterations actually run and the
    predicted residual, when |Phi|_inf is not at PROJECTION_TOL after
    max_iters iterations or is predicted not to be; callers treat that as a
    rejected step.
    """
    if max_iters is None:
        max_iters = PROJECTION_MAX_ITERS
    current = net
    phi = constraints.evaluate(current)
    norm = np.linalg.norm(phi, np.inf) if phi.size else 0.0
    if norm <= PROJECTION_TOL:
        return current, 0
    iteration, rate = 0, np.inf
    for iteration in range(1, max_iters + 1):
        x = correction(phi)
        current = current.with_positions(
            current.vertices + unstack_fields(x))
        phi = constraints.evaluate(current)
        previous, norm = norm, np.linalg.norm(phi, np.inf)
        if norm <= PROJECTION_TOL:
            return current, iteration
        if iteration > 1:
            rate = min(rate, norm / previous)
            predicted = norm * rate ** (max_iters - iteration)
            if not predicted <= PROJECTION_TOL:     # NaN stops too
                break
    else:
        predicted = norm
    raise ProjectionFailure(
        f"constraint projection stalled at |Phi|_inf = {norm:.3e} after "
        f"{iteration} of {max_iters} iterations; predicted "
        f"{predicted:.3e} at the budget", residual=float(norm),
        iterations=iteration, predicted=float(predicted))
