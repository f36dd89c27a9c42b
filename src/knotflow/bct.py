"""Block cluster tree over BVH node pairs and the hierarchical metric.

Kernel matrices K_IJ = k(p_I, p_J) l_I l_J over edge pairs are partitioned
into admissible blocks (approximated by the rank-1 outer product of cluster
length vectors, scaled by the kernel at the aggregate tangent-points) and
near-field blocks (kept exact, assembled once into a sparse matrix), by one
`bvh.sweep` of node pairs from the root block, as Barnes-Hut sweeps (edge,
node) pairs; `bvh.run_pairs` lists the near blocks' edge pairs.  The far
field is compiled once into fixed sparse factors, K_far = Up^T K_adm Up with
Up the length-weighted node-membership matrix and K_adm the block kernel
values, so one matvec costs O(memberships + blocks + near-field entries).

The two kernels used by the metric are the high-order inverse power
k0(p, q) = 1/|p-q|^(2 sigma + 1) and the low-order tangent-point compound
k2(p, q, T) = |T x (p-q)|^2 / |p-q|^(2 sigma + 5), both symmetrized over the
argument order per the metric's ordered double sum.  `_metric_sample`
evaluates both at once: `trapezoid_kernels` at four samples per near edge
pair, `_far_values` at one per admissible block.  `HierMetric` is the one
place that builds the two kernel matrices, in one pass on one tree; each
`HierKernelMatrix` is a view of its factors.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import block_diag, coo_matrix, csr_matrix, vstack

from .bvh import EdgeBvh, run_pairs, sweep
from .energy import (PairChunk, SelfContactError, _dot3, _pair_chunks,
                     _pair_sampler, _sum4, _tangent_line)
from .metric import average_matrix, derivative_matrix, metric_parts
from .network import CurveNetwork, exact_pairs


# Default admissibility parameter for hierarchical matvecs.  Block error
# scales like eps^2 (first-order terms cancel against the length-weighted
# aggregates).  At 0.125, `knotflow bench --only 4` reads errors of 1.5e-4
# for the matvec (n = 256, 190 admissible blocks) and 3.3e-3 for the
# multigrid solve (n <= 512), against dense, inside the 1e-2 budget.
DEFAULT_BCT_EPS = 0.125

# Fill of a square matrix from which dense storage costs no more than CSR
# (8 bytes per dense entry against 12 per nonzero).  A multigrid level whose
# near blocks hold this share of the E^2 ordered edge pairs applies the exact
# dense metric instead of a `HierMetric` (`multigrid.level_metric`).
DENSE_FILL = 2 / 3


def _metric_sample(r2, c2i, c2j, expo):
    """Both metric kernels at samples with r2 = r^2 and the squared
    distances c2i, c2j = |T x d|^2 to the tangent lines of I and J, which
    broadcast against r2: r^-expo, and r^-expo (c2i + c2j) / r^4, the
    low-order term symmetrized over the argument order."""
    term = r2 ** (-expo / 2)
    return term, term * ((c2i + c2j) / np.square(r2))


def _far_values(bvh: EdgeBvh, adm_a: np.ndarray, adm_b: np.ndarray,
                sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Both kernels of the admissible blocks (adm_a, adm_b) at the aggregate
    tangent-points of their nodes, without length factors: (2 high, low)
    from one `_metric_sample` where the exact entries take four."""
    d = (bvh.com[adm_a] - bvh.com[adm_b]).T
    r2 = _dot3(d, d)
    if np.any(r2 == 0.0):
        raise SelfContactError("coincident tangent-points in kernel matrix")
    c2 = [_tangent_line(bvh.avg_tangent[nodes].T, d, r2)[1]
          for nodes in (adm_a, adm_b)]
    high, low = _metric_sample(r2, *c2, 2 * sigma + 1)
    return 2.0 * high, low


def trapezoid_kernels(net: CurveNetwork, sigma: float, I: np.ndarray,
                      J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both metric kernels at the edge pairs (I, J), with lengths, in one
    4-point trapezoid pass over the endpoint pairs.

    Returns (high, low): high = 1/2 l_I l_J sum_ab r^-(2 sigma + 1) and
    low = 1/4 l_I l_J sum_ab r^-(2 sigma + 1) (k24(T_I) + k24(T_J)) with
    k24(T) = |T x d|^2 / r^4, both symmetric in (I, J).  They serve the
    exact near field of the block cluster tree.  The dense metric takes the
    same entries, up to rounding, from the vertex sums of
    `metric.dense_kernel_matrices`, so the eps -> 0 metric matvec
    reproduces the dense Gram matrices to rounding.  The samples come from
    the energy's pair gather (`energy._pair_sampler`): two gathered
    differences per pair, |T_I x d|^2 one number per end of J and |T_J x
    d|^2 one per end of I, so one `_metric_sample` call on the (2, 2, P)
    samples of a chunk evaluates all four.
    """
    geom = net.geometry()
    expo = 2 * sigma + 1
    high = np.empty(len(I))
    low = np.empty(len(I))
    sample = _pair_sampler(net, both=True)
    for sl in _pair_chunks(len(I)):
        high[sl], low[sl] = _chunk_kernels(sample(I[sl], J[sl]), expo)
    w = 0.25 * geom.lengths[I] * geom.lengths[J]
    high *= 2.0 * w
    low *= w
    return high, low


def _chunk_kernels(ch: PairChunk, expo: float):
    """The sums over the four samples of both metric kernels, for one
    `energy.PairChunk` with both tangent lines."""
    (_, c2i, _), (_, c2j, _) = ch.lines
    high, low = _metric_sample(ch.r2, c2i, c2j, expo)
    return _sum4(high), _sum4(low)


class BlockClusterTree:
    """Partition of the edge-pair matrix into admissible and near blocks.

    One `bvh.sweep` refines the root block breadth-first.  Block (a, b), with
    centers of mass at distance dist, is admissible when max(r_x) <= eps
    dist, max(r_T) <= eps and 2 (r_x[a] + r_x[b]) < dist.  Every point of a
    node's edges lies within 2 r_x of its center of mass (`EdgeBvh.refit`),
    so the last term keeps identical and adjacent edge pairs, which the
    kernels exclude, out of every admissible block at any eps; at eps < 1/4
    the first term implies it.  Other blocks split down to leaf pairs, the
    near blocks, so the tree's leaf size alone sets their size.  `adm_a`,
    `adm_b` and `near_a`, `near_b` hold the node pairs of the admissible and
    the near blocks, generation by generation.  The far-field clusters
    `far_nodes`, `adm_rows`, `adm_cols` and `up` are built on first use.
    """

    def __init__(self, bvh: EdgeBvh, eps: float = DEFAULT_BCT_EPS):
        self.bvh = bvh
        self.eps = float(eps)

        def admissible(a, b):
            d = bvh.com[a] - bvh.com[b]
            dist2 = np.einsum("ni,ni->n", d, d)
            rx = np.maximum(bvh.r_x[a], bvh.r_x[b])
            rt = np.maximum(bvh.r_T[a], bvh.r_T[b])
            sep = 2 * (bvh.r_x[a] + bvh.r_x[b])
            return (sep * sep < dist2) \
                & (rx * rx <= self.eps ** 2 * dist2) & (rt <= self.eps)

        self.adm_a, self.adm_b, self.near_a, self.near_b = sweep(
            bvh, np.array([0]), np.array([0]), admissible)

    # a multigrid level that takes the dense metric never reads these
    @cached_property
    def far_nodes(self) -> np.ndarray:
        """The nodes in any admissible block, sorted."""
        return np.unique(np.concatenate([self.adm_a, self.adm_b]))

    @cached_property
    def adm_rows(self) -> np.ndarray:
        """Each admissible block's side a as a row of `up`."""
        return np.searchsorted(self.far_nodes, self.adm_a)

    @cached_property
    def adm_cols(self) -> np.ndarray:
        """Each admissible block's side b as a row of `up`."""
        return np.searchsorted(self.far_nodes, self.adm_b)

    @cached_property
    def up(self) -> csr_matrix:
        """The 0/1 (far nodes x E) matrix of the edges each far node holds."""
        bvh = self.bvh
        sizes = bvh.end[self.far_nodes] - bvh.start[self.far_nodes]
        rows, pos = run_pairs(np.arange(len(sizes)), np.ones_like(sizes),
                              bvh.start[self.far_nodes], sizes)
        return csr_matrix((np.ones(len(rows)), (rows, bvh.order[pos])),
                          shape=(len(sizes), len(bvh.order)))

    def near_pair_arrays(self, net: CurveNetwork):
        """All exact near-field edge pairs, excluded pairs removed.

        Near block (a, b) holds n_a n_b pairs, listed row-major (`run_pairs`):
        its k-th pair takes edge k // n_b of side a and edge k % n_b of side b.
        """
        bvh = self.bvh
        a, b = self.near_a, self.near_b
        I, J = run_pairs(bvh.start[a], bvh.end[a] - bvh.start[a],
                         bvh.start[b], bvh.end[b] - bvh.start[b])
        return exact_pairs(net, bvh.order[I], bvh.order[J])


class HierKernelMatrix:
    """One kernel matrix of a `HierMetric`, K = K_near + Up^T K_adm Up: a
    view of the factors the metric built, evaluating no kernel itself.

    `kbar` holds the block kernel values in the order of `bct.adm_a`, which
    K_adm places at rows `bct.adm_rows` and columns `bct.adm_cols`; `near`
    is the sparse exact near field, `up` the length-weighted membership
    matrix Up and `down` its transpose, both shared by the two kernels.
    """

    def __init__(self, bct: BlockClusterTree, kbar: np.ndarray,
                 near: csr_matrix, up: csr_matrix, down: csr_matrix):
        self.bct = bct
        self.kbar = kbar
        self.near = near
        n_far = up.shape[0]
        self.k_adm = coo_matrix((kbar, (bct.adm_rows, bct.adm_cols)),
                                shape=(n_far, n_far)).tocsr()
        self.up = up
        self.down = down

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """K @ psi for psi of shape (E,) or (E, m)."""
        psi = np.asarray(psi, dtype=float)
        return self.down @ (self.k_adm @ (self.up @ psi)) + self.near @ psi


class HierMetric:
    """Hierarchical fractional metric A = B + B0, compiled into fixed factors.

    A follows the formula of `metric.py`,
    A = sum_c D_c^T (diag(K 1) - K) D_c + E^T (diag(K0 1) - K0) E, with each
    K = K_near + Up^T K_adm Up taken from the block cluster tree `bct`, which
    must be partitioned on a tree fitted to `net`.  Split along the near and
    the far field, it is compiled once into A = S - W^T K_blk W:

        S     = sum_c D_c^T (diag(K 1) - K_near) D_c
                + E^T (diag(K0 1) - K0_near) E (V x V, CSR)
        W     = [Up D_0; Up D_1; Up D_2; Up E]
        K_blk = blockdiag(K_adm, K_adm, K_adm, K0_adm)

    Both kernels come from one pass: one `trapezoid_kernels` call over the
    near edge pairs, one `_far_values` call over the admissible blocks, and
    one length-weighted Up with its transpose, which `k_high`, `k_low` and W
    share.  S is `metric.metric_parts` of the sparse near fields with the
    row sums K 1 of the same approximate K, far field included, so constants
    are annihilated regardless of the block approximation error.  A
    multigrid level never builds a `HierMetric` whose near field reaches
    DENSE_FILL of the edge pairs; it takes the exact dense metric instead,
    so S stays sparse.  `k_high` and `k_low` keep the two kernel matrices.
    `apply` takes per-vertex values; a stacked (3V,) field meets it through
    `network.per_coordinate`, one apply per coordinate row.
    """

    def __init__(self, net: CurveNetwork, sigma: float,
                 bct: BlockClusterTree):
        self.net = net
        self.sigma = float(sigma)
        self.bct = bct
        self.bvh = bct.bvh
        n_edges = net.n_edges
        up = bct.up.copy()
        up.data = net.geometry().lengths[up.indices]
        down = up.T.tocsr()
        I, J = bct.near_pair_arrays(net)
        near = trapezoid_kernels(net, self.sigma, I, J)
        far = _far_values(self.bvh, bct.adm_a, bct.adm_b, self.sigma)
        self.k_high, self.k_low = (
            HierKernelMatrix(bct, kbar, coo_matrix(
                (entries, (I, J)), shape=(n_edges, n_edges)).tocsr(), up, down)
            for kbar, entries in zip(far, near))
        ones = np.ones(n_edges)
        B, B0 = metric_parts(net, self.k_high.near, self.k_low.near,
                             self.k_high.matvec(ones), self.k_low.matvec(ones))
        self.S = B + B0
        D = derivative_matrix(net)
        self.W = vstack([up @ D[c::3] for c in range(3)]
                        + [up @ average_matrix(net)], format="csr")
        self.WT = self.W.T.tocsr()
        self.K_blk = block_diag([self.k_high.k_adm] * 3 + [self.k_low.k_adm],
                                format="csr")

    def apply(self, u: np.ndarray) -> np.ndarray:
        """(B + B0) u for per-vertex values u of shape (V,) or (V, m)."""
        out = self.S @ u
        if self.K_blk.nnz:         # small curves often have no far field
            out -= self.WT @ (self.K_blk @ (self.W @ u))
        return out

