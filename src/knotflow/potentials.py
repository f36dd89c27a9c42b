"""Penalty energies added to the tangent-point objective.

Each potential returns (value, differential) and is scaled by its weight; the
sum joins the main energy before preconditioning, since these terms are all of
lower differential order than the repulsive kernel.

Each potential is a sum of per-edge terms that declares its partials in edge
length, midpoint and tangent for `network.edge_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import bvh
from .energy import EnergyParams, _dot3, _pair_chunks
from .meshes import FaceTree, TriangleMesh
from .network import CurveNetwork, edge_chain, finite_array, unit_vector


class ObstacleContactError(ValueError):
    """Raised when a curve touches an obstacle mesh."""


class VectorField(Protocol):
    def value(self, x: np.ndarray) -> np.ndarray: ...
    def jacobian(self, x: np.ndarray) -> np.ndarray: ...


@dataclass
class ConstantField:
    """Spatially constant unit field."""

    direction: np.ndarray = field(default_factory=lambda: np.array([0., 0., 1.]))

    def __post_init__(self):
        self.direction = unit_vector(self.direction, "field direction")

    def value(self, x):
        x = np.atleast_2d(x)
        return np.broadcast_to(self.direction, x.shape).copy()

    def jacobian(self, x):
        x = np.atleast_2d(x)
        return np.zeros((len(x), 3, 3))


@dataclass
class RotationField:
    """Unit field circulating around an axis: X = axis x r / |axis x r|."""

    axis: np.ndarray = field(default_factory=lambda: np.array([0., 0., 1.]))

    def __post_init__(self):
        self.axis = unit_vector(self.axis, "rotation axis")

    def _raw(self, x):
        return np.cross(np.broadcast_to(self.axis, x.shape), x)

    def value(self, x):
        x = np.atleast_2d(x)
        v = self._raw(x)
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return v / n

    def jacobian(self, x):
        x = np.atleast_2d(x)
        v = self._raw(x)
        n = np.linalg.norm(v, axis=1)
        n[n == 0] = 1.0
        # dv/dx = [axis]_x (cross-product matrix); X = v/|v|
        a = self.axis
        cross_mat = np.array([[0, -a[2], a[1]],
                              [a[2], 0, -a[0]],
                              [-a[1], a[0], 0]])
        X = v / n[:, None]
        proj = np.eye(3)[None] - np.einsum("ni,nj->nij", X, X)
        return np.einsum("nij,jk->nik", proj, cross_mat) / n[:, None, None]


def _edge_differential(net: CurveNetwork, **partials) -> np.ndarray:
    """The (V, 3) differential of a sum of per-edge terms with the partials
    of `edge_chain` (dl, dmid, dT), summed at the ends of the edges."""
    ends = edge_chain(net, **partials).reshape(3, -1)
    at = net.edges.T.reshape(-1)
    return np.stack([np.bincount(at, ends[d], minlength=net.n_vertices)
                     for d in range(3)], axis=1)


class TotalLengthPotential:
    """Soft counterpart of the total-length constraint: value = sum of lengths."""

    def __init__(self, weight: float = 1.0):
        self.weight = float(finite_array(weight, "potential weight"))

    def value_and_differential(self, net: CurveNetwork,
                               params: EnergyParams | None = None):
        return net.total_length(), _edge_differential(net, dl=1.0)


class LengthDifferencePotential:
    """Penalizes unequal adjacent edge lengths at interior (degree-2) vertices."""

    def __init__(self, weight: float = 1.0):
        self.weight = float(finite_array(weight, "potential weight"))

    def value_and_differential(self, net: CurveNetwork,
                               params: EnergyParams | None = None):
        geom = net.geometry()
        _, edges, _ = net.interior_incidence()
        diff = geom.lengths[edges[:, 0]] - geom.lengths[edges[:, 1]]
        # d|diff|^2 / dl: +2 diff on the first edge, -2 diff on the second
        dl = np.bincount(edges.reshape(-1),
                         (2.0 * diff[:, None] * [1.0, -1.0]).reshape(-1),
                         minlength=net.n_edges)
        return float(diff @ diff), _edge_differential(net, dl=dl)


# A face cluster of bounding radius r at distance d from a midpoint is lumped
# when r <= SURFACE_THETA * d, so one at d = 0 is lumped only if r = 0 too.
SURFACE_THETA = 0.1


def surface_plan(tree: FaceTree, midpoints: np.ndarray):
    """One `bvh.sweep` of every midpoint from the root of `tree`: the (edge,
    node) entries lumped against a face cluster and the (edge, face) entries
    of the leaves reached.  Returns (far_edge, far_node, edge, face)."""
    E = len(midpoints)

    def admissible(edge, node):
        dist = np.linalg.norm(midpoints[edge] - tree.centroid[node], axis=1)
        return tree.radius[node] <= SURFACE_THETA * dist

    far_edge, far_node, edge, node = bvh.sweep(
        tree, np.arange(E), np.zeros(E, dtype=int), admissible, split_a=False)
    I, F = bvh.run_pairs(edge, np.ones_like(edge), tree.start[node],
                         tree.end[node] - tree.start[node])
    return far_edge, far_node, I, tree.order[F]


class SurfacePotential:
    """Inverse-distance repulsion from a triangle mesh obstacle.

    Discretized with one quadrature point per edge midpoint and per face
    centroid; far-away face clusters are lumped through an AABB tree, on
    the entries of `surface_plan`.  The exponent defaults to beta - alpha
    of the active energy parameters.
    """

    def __init__(self, mesh: TriangleMesh, weight: float = 1.0,
                 exponent: float | None = None):
        self.mesh = mesh
        self.weight = float(finite_array(weight, "potential weight"))
        self.exponent = exponent
        self._tree = FaceTree(mesh)

    def _power(self, params):
        if self.exponent is not None:
            return float(self.exponent)
        if params is None:
            raise ValueError("surface potential needs params or an exponent")
        return params.beta - params.alpha

    def value_and_differential(self, net: CurveNetwork,
                               params: EnergyParams | None = None):
        geom = net.geometry()
        per_edge_value, per_edge_force = self._midpoint_terms(
            geom.midpoints, self._power(params))
        # the term of edge I is l_I times the potential at its midpoint
        return float(np.sum(geom.lengths * per_edge_value)), \
            _edge_differential(net, dl=per_edge_value,
                               dmid=geom.lengths[:, None] * per_edge_force)

    def _midpoint_terms(self, midpoints, expo):
        """Each midpoint's potential, sum a / r^expo over its entries, (E,),
        and its gradient, (E, 3).  A lumped entry takes its node's area and
        centroid, a face entry its face's; chunk by chunk, one kernel serves
        both.  An entry at r = 0 is contact and raises ObstacleContactError."""
        tree = self._tree
        far_edge, far_node, edge, face = surface_plan(tree, midpoints)
        # one table of sources: the nodes' aggregates, then the faces
        area = np.concatenate([tree.area, self.mesh.face_areas])
        center = np.vstack([tree.centroid, self.mesh.face_centroids]).T
        E = len(midpoints)
        values, forces = np.zeros(E), np.zeros((3, E))
        for edges, src in ((far_edge, far_node),
                           (edge, len(tree.area) + face)):
            for sl in _pair_chunks(len(edges)):
                e, s = edges[sl], src[sl]
                d = midpoints.T.take(e, axis=1) - center.take(s, axis=1)
                r2 = _dot3(d, d)
                if np.any(r2 == 0.0):
                    raise ObstacleContactError("curve touches the obstacle mesh")
                contrib = area.take(s) / np.sqrt(r2) ** expo
                values += np.bincount(e, contrib, minlength=E)
                f = -expo * contrib / r2
                for c in range(3):
                    forces[c] += np.bincount(e, f * d[c], minlength=E)
        return values, forces.T


class FieldPotential:
    """Alignment energy sum of l_I |T_I x X(x_I)|^2 for a unit vector field."""

    def __init__(self, fieldspec: VectorField, weight: float = 1.0):
        self.field = fieldspec
        self.weight = float(finite_array(weight, "potential weight"))

    def value_and_differential(self, net: CurveNetwork,
                               params: EnergyParams | None = None):
        geom = net.geometry()
        X = self.field.value(geom.midpoints)             # (E, 3)
        JX = self.field.jacobian(geom.midpoints)         # (E, 3, 3)
        T = geom.tangents
        cross = np.cross(T, X)
        cr2 = np.einsum("ei,ei->e", cross, cross)
        # d(cr2)/dX = 2(|T|^2 X - <T,X> T) with |T| = 1, and d(cr2)/dT =
        # 2(|X|^2 T - <T,X> X), whose part along T `edge_chain` projects away
        tx = np.einsum("ei,ei->e", T, X)[:, None]
        d_dmid = np.einsum("ei,eij->ej", 2.0 * (X - tx * T), JX)
        lengths = geom.lengths[:, None]
        return float(np.sum(geom.lengths * cr2)), _edge_differential(
            net, dl=cr2, dT=-2.0 * lengths * tx * X, dmid=lengths * d_dmid)
