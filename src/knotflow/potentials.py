"""Penalty energies added to the tangent-point objective.

Each potential returns (value, differential) and is scaled by its weight; the
sum joins the main energy before preconditioning, since these terms are all of
lower differential order than the repulsive kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import bvh
from .energy import EnergyParams, _dot3, _pair_chunks
from .meshes import FaceTree, TriangleMesh
from .network import CurveNetwork


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
        self.direction = np.asarray(self.direction, float)
        self.direction = self.direction / np.linalg.norm(self.direction)

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
        self.axis = np.asarray(self.axis, float)
        self.axis = self.axis / np.linalg.norm(self.axis)

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


class TotalLengthPotential:
    """Soft counterpart of the total-length constraint: value = sum of lengths."""

    def __init__(self, weight: float = 1.0):
        self.weight = float(weight)

    def value_and_differential(self, net: CurveNetwork,
                               params: EnergyParams | None = None):
        geom = net.geometry()
        grad = np.zeros_like(net.vertices)
        np.add.at(grad, net.edges[:, 0], -geom.tangents)
        np.add.at(grad, net.edges[:, 1], geom.tangents)
        return float(geom.lengths.sum()), grad


class LengthDifferencePotential:
    """Penalizes unequal adjacent edge lengths at interior (degree-2) vertices."""

    def __init__(self, weight: float = 1.0):
        self.weight = float(weight)

    def value_and_differential(self, net: CurveNetwork,
                               params: EnergyParams | None = None):
        geom = net.geometry()
        _, edges, _ = net.interior_incidence()
        diff = geom.lengths[edges[:, 0]] - geom.lengths[edges[:, 1]]
        # d|diff|^2 along each edge's tangent, +2 diff on the first, -2 diff
        # on the second
        weight = np.bincount(edges.reshape(-1),
                             (2.0 * diff[:, None] * [1.0, -1.0]).reshape(-1),
                             minlength=net.n_edges)
        pull = weight[:, None] * geom.tangents
        grad = np.zeros_like(net.vertices)
        np.add.at(grad, net.edges[:, 0], -pull)
        np.add.at(grad, net.edges[:, 1], pull)
        return float(diff @ diff), grad


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
        self.weight = float(weight)
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
        grad = np.zeros_like(net.vertices)
        # d(l_I)/dg = -+T_I; d(x_I)/dg = Id/2
        t = geom.tangents * per_edge_value[:, None]
        m = 0.5 * geom.lengths[:, None] * per_edge_force
        np.add.at(grad, net.edges[:, 0], m - t)
        np.add.at(grad, net.edges[:, 1], m + t)
        return float(np.sum(geom.lengths * per_edge_value)), grad

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
        self.weight = float(weight)

    def value_and_differential(self, net: CurveNetwork,
                               params: EnergyParams | None = None):
        geom = net.geometry()
        X = self.field.value(geom.midpoints)             # (E, 3)
        JX = self.field.jacobian(geom.midpoints)         # (E, 3, 3)
        T = geom.tangents
        cross = np.cross(T, X)
        cr2 = np.einsum("ei,ei->e", cross, cross)
        value = float(np.sum(geom.lengths * cr2))

        # d(cr2)/dT = 2(|X|^2 T - <T,X> X); d(cr2)/dX = 2(|T|^2 X - <T,X> T)
        tx = np.einsum("ei,ei->e", T, X)
        x2 = np.einsum("ei,ei->e", X, X)
        d_dT = 2.0 * (x2[:, None] * T - tx[:, None] * X)
        d_dX = 2.0 * (X - tx[:, None] * T)               # |T| = 1
        d_dmid = np.einsum("ei,eij->ej", d_dX, JX)       # chain rule through X

        grad = np.zeros_like(net.vertices)
        # through l_I
        np.add.at(grad, net.edges[:, 0], -T * cr2[:, None])
        np.add.at(grad, net.edges[:, 1], T * cr2[:, None])
        # through T_I: l_I cancels against dT/dg = (Id - T T^t)/l_I
        t_term = d_dT - np.einsum("ei,ei->e", d_dT, T)[:, None] * T
        np.add.at(grad, net.edges[:, 0], -t_term)
        np.add.at(grad, net.edges[:, 1], t_term)
        # through x_I: half to each endpoint
        mid_term = 0.5 * geom.lengths[:, None] * d_dmid
        np.add.at(grad, net.edges[:, 0], mid_term)
        np.add.at(grad, net.edges[:, 1], mid_term)
        return value, grad
