"""Median-split trees, the edge BVH over tangent-points, and Barnes-Hut.

`median_split_tree` builds both trees of the package, this module's
`EdgeBvh` and `meshes.FaceTree`: it halves each node's run of points at the
median along their widest axis, so n points give depth ceil(log2(n /
leaf_size)).  `EdgeBvh` splits on edge midpoints alone, so its topology does
not depend on the curve's scale.  `refit` then bounds each node in R^6, where
edge I is the point (T_I, x_I) with mass l_I: nodes store length-weighted
aggregates (total mass, center of mass, average tangent) plus tangential and
spatial bounding radii, which the Barnes-Hut and block-cluster admissibility
tests read.

The energy and the metric sum only over edge pairs that share no vertex, and
the admissibility tests keep such pairs apart by geometry alone: every point
of a node's edges lies within 2 r_x of its center of mass (see `refit`).  So
edge I, with midpoint farther than 2 r_x + l_I / 2 from a node's center of
mass, neither is nor touches any edge of the node, and nodes a and b with
centers farther apart than 2 (r_x[a] + r_x[b]) share no edge or vertex.  No
lumped group or admissible block can then hold an identical or adjacent pair;
only the exact leaf and near-field pair lists drop those pairs, by index.

Far-field energy and differential contributions are lumped at admissible
nodes.  The leaf pairs of a whole traversal form one ordered pair list for
the energy module's chunked pair kernel, which gives both pair orders from
one set of endpoint differences gathered as (3, E) columns, so the eps -> 0
limit reproduces the exact energy and differential up to summation order.
"""

from __future__ import annotations

import numpy as np

from .energy import (EnergyParams, _kernel_grads, _kernel_raw, _pair_terms,
                     _scatter)
from .network import CurveNetwork, edges_share_vertex


# Edges (faces, for `meshes.FaceTree`) per leaf when no size is given.
LEAF_SIZE = 8


def median_split_tree(points: np.ndarray, leaf_size: int = LEAF_SIZE):
    """Binary tree over the rows of `points` by median splits.

    Each node owns the run order[start:end]; a run longer than `leaf_size`
    is sorted along the widest axis of its points and halved at the median,
    so the depth is ceil(log2(n / leaf_size)).  Children are numbered after
    their parent, so reverse node order is bottom-up.  Returns (order,
    start, end, left, right), with left = right = -1 at leaves.
    """
    n = len(points)
    order = np.arange(n)
    start, end, left, right = [0], [n], [-1], [-1]
    stack = [0]
    while stack:
        node = stack.pop()
        s, e = start[node], end[node]
        if e - s <= leaf_size:
            continue
        sel = order[s:e]
        axis = int(np.argmax(np.ptp(points[sel], axis=0)))
        order[s:e] = sel[np.argsort(points[sel, axis], kind="stable")]
        mid = s + (e - s) // 2
        left[node], right[node] = len(start), len(start) + 1
        start += [s, mid]
        end += [mid, e]
        left += [-1, -1]
        right += [-1, -1]
        stack += [left[node], right[node]]
    return (order,) + tuple(np.asarray(a, dtype=int)
                            for a in (start, end, left, right))


class EdgeBvh:
    """Flat-array binary BVH; edges are permuted so nodes own contiguous runs."""

    def __init__(self, net: CurveNetwork, leaf_size: int = LEAF_SIZE):
        self.leaf_size = int(leaf_size)
        self.order, self.start, self.end, self.left, self.right = \
            median_split_tree(net.geometry().midpoints, self.leaf_size)
        self.n_nodes = len(self.left)
        self.mass = np.zeros(self.n_nodes)
        self.com = np.zeros((self.n_nodes, 3))
        self.avg_tangent = np.zeros((self.n_nodes, 3))
        self.r_x = np.zeros(self.n_nodes)
        self.r_T = np.zeros(self.n_nodes)
        self.lo = np.zeros((self.n_nodes, 6))
        self.hi = np.zeros((self.n_nodes, 6))
        self.refit(net)

    def refit(self, net: CurveNetwork):
        """Recompute node aggregates for current positions; topology unchanged.

        Spatial boxes bound full edge extents (both endpoints), not just
        midpoints: the lumped far-field replaces 4-point trapezoid terms, so
        the quadrature spread of each edge must count toward the node radius.
        The center of mass, a weighted mean of midpoints, lies in the box, so
        every point of the node's edges lies within 2 r_x of it.
        """
        geom = net.geometry()
        lengths = geom.lengths
        ends_lo = np.minimum(net.vertices[net.edges[:, 0]],
                             net.vertices[net.edges[:, 1]])
        ends_hi = np.maximum(net.vertices[net.edges[:, 0]],
                             net.vertices[net.edges[:, 1]])
        # children are created after parents, so reverse order is bottom-up
        for node in range(self.n_nodes - 1, -1, -1):
            if self.left[node] < 0:
                sel = self.order[self.start[node]:self.end[node]]
                w = lengths[sel]
                self.mass[node] = w.sum()
                self.com[node] = (w[:, None] * geom.midpoints[sel]).sum(0) \
                    / self.mass[node]
                self.avg_tangent[node] = (w[:, None] * geom.tangents[sel]).sum(0) \
                    / self.mass[node]
                self.lo[node, :3] = geom.tangents[sel].min(axis=0)
                self.hi[node, :3] = geom.tangents[sel].max(axis=0)
                self.lo[node, 3:] = ends_lo[sel].min(axis=0)
                self.hi[node, 3:] = ends_hi[sel].max(axis=0)
            else:
                l, r = self.left[node], self.right[node]
                self.mass[node] = self.mass[l] + self.mass[r]
                self.com[node] = (self.mass[l] * self.com[l]
                                  + self.mass[r] * self.com[r]) / self.mass[node]
                self.avg_tangent[node] = (
                    self.mass[l] * self.avg_tangent[l]
                    + self.mass[r] * self.avg_tangent[r]) / self.mass[node]
                self.lo[node] = np.minimum(self.lo[l], self.lo[r])
                self.hi[node] = np.maximum(self.hi[l], self.hi[r])
        half = 0.5 * (self.hi - self.lo)
        self.r_T = np.linalg.norm(half[:, :3], axis=1)
        self.r_x = np.linalg.norm(half[:, 3:], axis=1)
        return self


def _leaf_pair_arrays(net, bvh, node, active):
    """Valid exact-interaction pairs (active x leaf edges), adjacency removed."""
    leaf_edges = bvh.order[bvh.start[node]:bvh.end[node]]
    I = np.repeat(active, len(leaf_edges))
    J = np.tile(leaf_edges, len(active))
    keep = (I != J) & ~edges_share_vertex(net.edges[I], net.edges[J])
    return I[keep], J[keep]


def _traverse(net: CurveNetwork, bvh: EdgeBvh, eps: float):
    """Barnes-Hut traversal of every edge against the tree.

    Returns (far, I, J): `far` lists the admissible groups (node, edges),
    each lumped against its node, and (I, J) are the ordered leaf pairs, I
    traversing and J in a leaf, left to the exact trapezoid terms.
    """
    geom = net.geometry()
    far, near_i, near_j = [], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    stack = [(0, np.arange(net.n_edges))]
    while stack:
        node, active = stack.pop()
        d = geom.midpoints[active] - bvh.com[node]
        dist = np.linalg.norm(d, axis=1)
        if eps > 0:
            # the query edge's own half-length joins the node radius: the
            # lumped value also replaces the 4-point spread across edge I
            half = 0.5 * geom.lengths[active]
            reach = bvh.r_x[node] + half
            # the separation term keeps edge I from being lumped with itself
            # or a neighbor at any eps (module docstring); eps < 1/2 implies it
            admissible = (dist > 2 * bvh.r_x[node] + half) \
                & (reach <= eps * dist) & (bvh.r_T[node] <= eps)
        else:
            admissible = np.zeros(len(active), dtype=bool)
        if np.any(admissible):
            far.append((node, active[admissible]))
        rest = active[~admissible]
        if len(rest) == 0:
            continue
        if bvh.left[node] < 0:
            I, J = _leaf_pair_arrays(net, bvh, node, rest)
            near_i.append(I)
            near_j.append(J)
        else:
            stack.append((bvh.left[node], rest))
            stack.append((bvh.right[node], rest))
    return far, np.concatenate(near_i), np.concatenate(near_j)


def bh_energy(net: CurveNetwork, bvh: EdgeBvh, params: EnergyParams,
              eps: float = 0.25) -> float:
    """Barnes-Hut estimate of the discrete tangent-point energy."""
    geom = net.geometry()
    far, I, J = _traverse(net, bvh, eps)
    total = 0.0
    for node, sel in far:
        kv = _kernel_raw(geom.midpoints[sel] - bvh.com[node],
                         geom.tangents[sel], params.alpha, params.beta)
        total += float(np.sum(kv * geom.lengths[sel])) * bvh.mass[node]
    # the leaf pairs are ordered (I traversing): only the T_I order counts
    return total + float(_pair_terms(net, params, I, J))


def bh_differential(net: CurveNetwork, bvh: EdgeBvh, params: EnergyParams,
                    eps: float = 0.25) -> np.ndarray:
    """Barnes-Hut estimate of the energy differential, (V, 3).

    Admissible nodes contribute the symmetrized two-term increment (the lumped
    counterpart of both pair orders), treating node aggregates as constants;
    leaf pairs contribute the exact trapezoid partials of both pair orders
    restricted to the traversing edge's endpoints.
    """
    geom = net.geometry()
    alpha, beta = params.alpha, params.beta
    far, I, J = _traverse(net, bvh, eps)
    grad = np.zeros((3, net.n_vertices))
    for node, sel in far:
        ti = geom.tangents[sel]
        da = geom.midpoints[sel] - bvh.com[node]
        tbar = np.broadcast_to(bvh.avg_tangent[node], da.shape)
        k1, dk1_dd, dk1_dT = _kernel_grads(da, ti, alpha, beta)
        k2, dk2_dd, _ = _kernel_grads(-da, tbar, alpha, beta)
        # dk2 is w.r.t. its own difference vector (xbar - x_I); the
        # derivative w.r.t. x_I flips the sign back
        tproj = dk1_dT - np.einsum("pi,pi->p", dk1_dT, ti)[:, None] * ti
        common = 0.5 * geom.lengths[sel][:, None] * (dk1_dd - dk2_dd)
        ksum = (k1 + k2)[:, None] * ti
        inc1 = bvh.mass[node] * (-ksum - tproj + common)
        inc2 = bvh.mass[node] * (ksum + tproj + common)
        _scatter(grad, np.concatenate([net.edges[sel, 0], net.edges[sel, 1]]),
                 np.concatenate([inc1, inc2]).T)
    _pair_terms(net, params, I, J, grad=grad)
    return grad.T.copy()
