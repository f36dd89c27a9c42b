"""Median-split trees, the edge BVH over tangent-points, and Barnes-Hut.

`median_split_tree` builds both trees of the package, this module's
`EdgeBvh` and `meshes.FaceTree`: it halves each node's run of points at the
median along their widest axis, so n points give depth ceil(log2(n /
leaf_size)).  `EdgeBvh` splits on edge midpoints alone, so its topology does
not depend on the curve's scale.  `refit` then bounds each node in R^6, where
edge I is the point (T_I, x_I) with mass l_I: nodes store length-weighted
aggregates (total mass, center of mass, average tangent) plus tangential and
spatial bounding radii, which the Barnes-Hut and block-cluster admissibility
tests read.  It reduces the leaf runs of `order` in one pass and combines the
internal nodes one depth level at a time, bottom up.

The energy and the metric sum only over edge pairs that share no vertex, and
the admissibility tests keep such pairs apart by geometry alone: every point
of a node's edges lies within 2 r_x of its center of mass (see `refit`).  So
edge I, with midpoint farther than 2 r_x + l_I / 2 from a node's center of
mass, neither is nor touches any edge of the node, and nodes a and b with
centers farther apart than 2 (r_x[a] + r_x[b]) share no edge or vertex.  No
lumped group or admissible block can then hold an identical or adjacent pair;
only the exact leaf and near-field pair lists drop those pairs, by index.

One breadth-first loop, `sweep`, refines pairs against a tree with one
vectorized admissibility call per generation, for four users: node pairs
for the block cluster tree, (edge, node) pairs for Barnes-Hut, (edge, face
cluster) pairs on a `meshes.FaceTree` for the obstacle potential
(`potentials.surface_plan`), and node pairs with overlapping boxes for the
broad phase (`overlap_pairs`) of the collision, crossing and gap queries.
`run_pairs` expands node runs into pairs.  `node_boxes` bounds per-item
boxes bottom up on a tree's topology, for `EdgeBvh.refit`, `FaceTree` and
the broad phase, whose swept, projected or padded edge boxes ride on a tree
fitted to other positions.

A Barnes-Hut evaluation follows a plan (`bh_plan`), made once per tree fit
and eps by that sweep of every edge from the root.  The plan lists the far
field as flat (edge, node) entries, each edge lumped against a node's
aggregates, and the leaf pairs (I, J) as one ordered pair list for the
energy module's chunked pair kernel, which gathers two endpoint
differences per pair and derives the other two samples on the tangent line
of I.  A far entry is one sample of that kernel at the aggregates: the
same `energy._sample_kernels` on its r^2 and the tangent lines of T_I and
the node's average tangent, and the same coefficient scatter of the
d-gradient and the length and tangent variations, so one pass over the
plan yields the energy and the differential, and the eps -> 0 limit
reproduces the exact energy and differential up to summation order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .energy import (EnergyParams, _dot3, _pair_chunks, _pair_terms,
                     _sample_kernels, _scatter_ends, _tangent_line)
from .network import CurveNetwork, exact_pairs


# Edges (faces, for `meshes.FaceTree`) per leaf when no size is given.
LEAF_SIZE = 8

# Default Barnes-Hut admissibility parameter, of `FlowConfig`, `Objective`,
# `bh_energy` and `bh_differential`.  Its error grows with n; against
# `discrete_energy` / `discrete_differential` on perturbed-circle seed 5
# (relative energy error E, max-entry differential error over max |grad| dE):
#     n      eps 0.25: E, dE    eps 0.125: E, dE   eps 0.0625: E, dE
#     256    1.4e-3, 2.0e-2     1.0e-3, 1.6e-3     1.3e-4, 6.0e-5
#     1024   7.1e-3, 6.8e-2     1.5e-3, 9.4e-3     1.8e-4, 1.7e-3
#     2048   9.3e-3, 1.16e-1    2.3e-3, 1.6e-2     3.4e-4, 2.8e-3
# At n = 2048 the plan doubles from eps 0.25 to 0.125 (far entries 71 348 to
# 127 276, leaf pairs 67 584 to 141 400).
BH_EPS = 0.25


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


def node_boxes(tree, lo: np.ndarray, hi: np.ndarray):
    """Per-node bounds (lo, hi), (n_nodes, d), of per-item boxes (lo, hi),
    (n, d) in item order, on a `median_split_tree` with its `tree_levels`:
    each leaf run reduced in one pass, then the internal nodes combined one
    depth level at a time, bottom up.  Only the topology is read, so the
    boxes may belong to other positions than those the tree was split on."""
    node_lo = np.empty((len(tree.left), lo.shape[1]))
    node_hi = np.empty((len(tree.left), hi.shape[1]))
    runs = tree.start[tree.leaves]
    node_lo[tree.leaves] = np.minimum.reduceat(lo[tree.order], runs)
    node_hi[tree.leaves] = np.maximum.reduceat(hi[tree.order], runs)
    for nodes in tree.levels:
        l, r = tree.left[nodes], tree.right[nodes]
        node_lo[nodes] = np.minimum(node_lo[l], node_lo[r])
        node_hi[nodes] = np.maximum(node_hi[l], node_hi[r])
    return node_lo, node_hi


def tree_levels(start, left, right):
    """The leaves of a `median_split_tree` in run order, and its internal
    nodes by depth, deepest level first: the order in which a bottom-up pass
    reduces the leaf runs with `reduceat` and then combines each level's
    children."""
    leaves = np.flatnonzero(left < 0)
    levels = []
    level = np.array([0])
    while len(level):
        inner = level[left[level] >= 0]
        if len(inner):
            levels.append(inner)
        level = np.concatenate([left[inner], right[inner]])
    return leaves[np.argsort(start[leaves])], levels[::-1]


class EdgeBvh:
    """Flat-array binary BVH; edges are permuted so nodes own contiguous runs."""

    def __init__(self, net: CurveNetwork, leaf_size: int = LEAF_SIZE):
        self.leaf_size = int(leaf_size)
        self.order, self.start, self.end, self.left, self.right = \
            median_split_tree(net.geometry().midpoints, self.leaf_size)
        self.n_nodes = len(self.left)
        self.leaves, self.levels = tree_levels(self.start, self.left,
                                               self.right)
        self.mass = np.zeros(self.n_nodes)
        self.com = np.zeros((self.n_nodes, 3))
        self.avg_tangent = np.zeros((self.n_nodes, 3))
        self.refit(net)

    def refit(self, net: CurveNetwork):
        """Recompute node aggregates for current positions; topology unchanged.

        Spatial boxes bound full edge extents (both endpoints), not just
        midpoints: the lumped far-field replaces 4-point trapezoid terms, so
        the quadrature spread of each edge must count toward the node radius.
        The center of mass, a weighted mean of midpoints, lies in the box, so
        every point of the node's edges lies within 2 r_x of it.  A refit
        drops the Barnes-Hut plan of the previous fit.
        """
        self._plan = None
        geom = net.geometry()
        sel, leaves = self.order, self.leaves
        runs = self.start[leaves]
        w = geom.lengths[sel]
        self.mass[leaves] = np.add.reduceat(w, runs)
        m = self.mass[leaves, None]
        self.com[leaves] = np.add.reduceat(w[:, None] * geom.midpoints[sel],
                                           runs) / m
        self.avg_tangent[leaves] = np.add.reduceat(
            w[:, None] * geom.tangents[sel], runs) / m
        for nodes in self.levels:
            l, r = self.left[nodes], self.right[nodes]
            ml, mr = self.mass[l, None], self.mass[r, None]
            m = ml + mr
            self.mass[nodes] = m[:, 0]
            self.com[nodes] = (ml * self.com[l] + mr * self.com[r]) / m
            self.avg_tangent[nodes] = (ml * self.avg_tangent[l]
                                       + mr * self.avg_tangent[r]) / m
        ends = net.vertices[net.edges]
        self.lo, self.hi = node_boxes(
            self, np.hstack([geom.tangents, ends.min(axis=1)]),
            np.hstack([geom.tangents, ends.max(axis=1)]))
        half = 0.5 * (self.hi - self.lo)
        self.r_T = np.linalg.norm(half[:, :3], axis=1)
        self.r_x = np.linalg.norm(half[:, 3:], axis=1)
        return self

    def plan(self, net: CurveNetwork, eps: float) -> "BhPlan":
        """The Barnes-Hut plan of `net`, to which this tree is fitted, at
        `eps`; made once per fit and eps (`bh_plan`)."""
        if self._plan is None or self._plan[0] is not net \
                or self._plan[1] != eps:
            self._plan = (net, eps, bh_plan(net, self, eps))
        return self._plan[2]


class BhPlan(NamedTuple):
    """The far field as flat (edge, node) entries, and the leaf pairs."""

    far_edge: np.ndarray
    far_node: np.ndarray
    I: np.ndarray           # traversing edges of the leaf pairs
    J: np.ndarray           # their partners, in a leaf


def run_pairs(start_a, n_a, start_b, n_b):
    """Positions (pos_a, pos_b) of the pairs of each run pair, row-major:
    run pair c couples start_a[c] + i, i < n_a[c], with start_b[c] + j,
    j < n_b[c], and its k-th pair takes i = k // n_b[c], j = k % n_b[c]."""
    # one row per position of side a, then one pair per position of side b
    c = np.repeat(np.arange(len(n_a)), n_a)
    row = start_a[c] + np.arange(len(c)) - np.repeat(np.cumsum(n_a) - n_a, n_a)
    n = n_b[c]
    return np.repeat(row, n), \
        np.arange(n.sum()) + np.repeat(start_b[c] - np.cumsum(n) + n, n)


def sweep(bvh: EdgeBvh, a: np.ndarray, b: np.ndarray, admissible,
          split_a: bool = True):
    """Refine the candidate pairs (a, b) down the tree, breadth-first.

    Each generation is tested in one call of `admissible(a, b)`, a boolean
    mask.  An admissible pair is far, a pair of leaves near, and any other
    splits its sides that are not leaves, row-major: (la, lb), (la, rb), (ra,
    lb), (ra, rb).  With split_a false, side a holds edges, which never
    split.  Returns (far_a, far_b, near_a, near_b), generation by generation.
    """
    leaf = bvh.left < 0

    def halves(x, split):
        return (bvh.left[x], bvh.right[x]) if split else (x,)

    far, near = [], []
    while len(a):
        ok = admissible(a, b)
        far.append((a[ok], b[ok]))
        a, b = a[~ok], b[~ok]
        done = leaf[a] & leaf[b] if split_a else leaf[b]
        near.append((a[done], b[done]))
        a, b = a[~done], b[~done]
        if split_a:     # pairs splitting both sides, then a alone, b alone
            sa, sb = ~leaf[a], ~leaf[b]
            groups = ((sa & sb, True, True), (~sb, True, False),
                      (~sa, False, True))
        else:
            groups = ((slice(None), False, True),)
        pairs = [(x, y) for m, split_ma, split_mb in groups
                 for x in halves(a[m], split_ma)
                 for y in halves(b[m], split_mb)]
        a, b = (np.concatenate(side) for side in zip(*pairs))
    # the loop runs at least once, on the root candidates
    return tuple(np.concatenate(side) for side in (*zip(*far), *zip(*near)))


def overlap_pairs(net: CurveNetwork, bvh: EdgeBvh, lo: np.ndarray,
                  hi: np.ndarray, pad: float = 0.0):
    """The edge pairs (I, J), I < J, that share no vertex and whose boxes
    (lo, hi), (E, d) in edge order, overlap to within `pad` on every axis.

    The broad phase of the collision, crossing and gap queries: `node_boxes`
    bounds the boxes on the tree's topology, and one `sweep` of node pairs
    from (root, root) drops the pairs whose node boxes are separated by more
    than pad on some axis, and the mirrored half, start[a] > start[b], of
    the pairs of distinct nodes (whose runs never interleave).  `run_pairs`
    expands the surviving leaf pairs, keeping positions pos_a < pos_b, and
    `exact_pairs` drops the adjacent ones.  The per-pair box test runs last,
    so the pairs are those it selects from all E^2 / 2, whatever positions
    the tree was split on.
    """
    node_lo, node_hi = node_boxes(bvh, lo, hi)

    def dropped(a, b):
        apart = (node_lo[a] > node_hi[b] + pad) \
            | (node_lo[b] > node_hi[a] + pad)
        return apart.any(axis=1) | (bvh.start[a] > bvh.start[b])

    *_, a, b = sweep(bvh, np.array([0]), np.array([0]), dropped)
    pa, pb = run_pairs(bvh.start[a], bvh.end[a] - bvh.start[a],
                       bvh.start[b], bvh.end[b] - bvh.start[b])
    ahead = pa < pb
    I, J = exact_pairs(net, bvh.order[pa[ahead]], bvh.order[pb[ahead]])
    keep = np.all((lo[I] <= hi[J] + pad) & (lo[J] <= hi[I] + pad), axis=1)
    I, J = I[keep], J[keep]
    return np.minimum(I, J), np.maximum(I, J)


def bh_plan(net: CurveNetwork, bvh: EdgeBvh, eps: float) -> BhPlan:
    """Barnes-Hut traversal of every edge against the tree: one `sweep` of
    (edge, node) pairs from the root.  An admissible pair becomes a far
    entry, lumped against its node; the rest reach leaves, whose runs expand
    into the ordered leaf pairs (I traversing, J in the leaf) with identical
    and adjacent pairs dropped, left to the exact trapezoid terms."""
    geom = net.geometry()

    def admissible(edge, node):
        dist = np.linalg.norm(geom.midpoints[edge] - bvh.com[node], axis=1)
        # the query edge's own half-length joins the node radius: the lumped
        # value also replaces the 4-point spread across edge I (so eps = 0
        # lumps nothing)
        half = 0.5 * geom.lengths[edge]
        r_x = bvh.r_x[node]
        # the separation term keeps edge I from being lumped with itself or
        # a neighbor at any eps (module docstring); eps < 1/2 implies it
        return (dist > 2 * r_x + half) & (r_x + half <= eps * dist) \
            & (bvh.r_T[node] <= eps)

    far_edge, far_node, edge, node = sweep(
        bvh, np.arange(net.n_edges), np.zeros(net.n_edges, dtype=int),
        admissible, split_a=False)
    I, J = run_pairs(edge, np.ones_like(edge), bvh.start[node],
                     bvh.end[node] - bvh.start[node])
    return BhPlan(far_edge, far_node, *exact_pairs(net, I, bvh.order[J]))


def _far_terms(net: CurveNetwork, bvh: EdgeBvh, params: EnergyParams,
               plan: BhPlan, grad: np.ndarray | None = None) -> float:
    """The far field's share of the energy, chunk by chunk over the plan's
    (edge, node) entries: l_I m_a k(x_I - xbar_a, T_I) for edge I lumped
    against node a.

    Each entry is one sample of the leaf pairs' kernel code: d = x_I -
    xbar_a, the tangent lines of T_I and Tbar_a, weight l_I m_a.  When grad,
    a (3, V) array, is given, the differential of both orders, node
    aggregates held constant, is added at the ends of I: each takes half
    the d-gradient A d - u_I T_I - u_a Tbar_a, and -+ m_a (k T_I + (s.T_I)
    T_I - s) with s = u_I d is the length and tangent variation.
    """
    geom = net.geometry()
    mid, T, com, tbar = (x.T for x in (geom.midpoints, geom.tangents, bvh.com,
                                       bvh.avg_tangent))
    ET = np.ascontiguousarray(net.edges.T)
    energy = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        for sl in _pair_chunks(len(plan.far_edge)):
            e, a = plan.far_edge[sl], plan.far_node[sl]
            ti = T.take(e, axis=1)
            d = mid.take(e, axis=1) - com.take(a, axis=1)
            r2 = _dot3(d, d)
            m, li = bvh.mass.take(a), geom.lengths.take(e)
            tangents = (ti,) if grad is None else (ti, tbar.take(a, axis=1))
            lines = [_tangent_line(t, d, r2) for t in tangents]
            ks, A, us = _sample_kernels(r2, lines, params, grad is not None)
            energy += float((li * m) @ ks[0])
            if grad is not None:
                u, hl = us[0], 0.5 * li
                z = ks[0] + ks[1] + u * lines[0][0]
                ha, hu = hl * A, hl * u
                _scatter_ends(grad, ET.take(e, axis=1), m,
                              ((np.stack([ha + u, ha - u]), d),
                               (np.stack([-hu - z, z - hu]), ti),
                               (-hl * us[1], tangents[1])))
    return energy


def bh_energy(net: CurveNetwork, bvh: EdgeBvh, params: EnergyParams,
              eps: float = BH_EPS) -> float:
    """Barnes-Hut estimate of the discrete tangent-point energy."""
    plan = bvh.plan(net, eps)
    # the leaf pairs are ordered (I traversing): only the T_I order counts
    return _far_terms(net, bvh, params, plan) \
        + float(_pair_terms(net, params, plan.I, plan.J))


def bh_differential(net: CurveNetwork, bvh: EdgeBvh, params: EnergyParams,
                    eps: float = BH_EPS) -> tuple[float, np.ndarray]:
    """Barnes-Hut estimates of the energy and its differential, (V, 3), from
    one pass over the plan.

    Far entries contribute the symmetrized two-term increment (the lumped
    counterpart of both pair orders), treating node aggregates as constants;
    leaf pairs contribute the exact trapezoid partials of both pair orders
    restricted to the traversing edge's endpoints.  The energy equals
    `bh_energy` up to summation order.
    """
    plan = bvh.plan(net, eps)
    grad = np.zeros((3, net.n_vertices))
    energy = _far_terms(net, bvh, params, plan, grad=grad) \
        + float(_pair_terms(net, params, plan.I, plan.J, grad=grad))
    return energy, grad.T.copy()
