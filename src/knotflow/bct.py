"""Block cluster tree over BVH node pairs and hierarchical kernel matvecs.

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
evaluates both: four samples give an exact entry, one an admissible block.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# dense metric instead of a `HierMetric` (`multigrid.MgLevel`).
DENSE_FILL = 2 / 3


@dataclass(frozen=True)
class KernelSpec:
    """Selects the kernel entering the hierarchical matrix."""

    kind: str            # "high" or "low"
    sigma: float

    def __post_init__(self):
        if self.kind not in ("high", "low"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")


def _metric_sample(r2, c2i, c2j, expo):
    """Both metric kernels at samples with r2 = r^2 and the squared
    distances c2i, c2j = |T x d|^2 to the tangent lines of I and J, which
    broadcast against r2: r^-expo, and r^-expo (c2i + c2j) / r^4, the
    low-order term symmetrized over the argument order."""
    term = r2 ** (-expo / 2)
    return term, term * ((c2i + c2j) / np.square(r2))


def _kernel_values(spec: KernelSpec, xi, xj, ti, tj):
    """Far-field kernel at aggregate tangent-points, without length factors:
    one `_metric_sample` where the exact entries take four."""
    d = (xi - xj).T
    r2 = _dot3(d, d)
    if np.any(r2 == 0.0):
        raise SelfContactError("coincident tangent-points in kernel matrix")
    c2 = [_tangent_line(t.T, d, r2)[1] for t in (ti, tj)]
    high, low = _metric_sample(r2, *c2, 2 * spec.sigma + 1)
    return 2.0 * high if spec.kind == "high" else low


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
        self._near_pairs = None

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
        """All exact near-field edge pairs (excluded pairs removed), cached.

        Near block (a, b) holds n_a n_b pairs, listed row-major (`run_pairs`):
        its k-th pair takes edge k // n_b of side a and edge k % n_b of side b.
        """
        if self._near_pairs is None:
            bvh = self.bvh
            a, b = self.near_a, self.near_b
            I, J = run_pairs(bvh.start[a], bvh.end[a] - bvh.start[a],
                             bvh.start[b], bvh.end[b] - bvh.start[b])
            self._near_pairs = exact_pairs(net, bvh.order[I], bvh.order[J])
        return self._near_pairs


class HierKernelMatrix:
    """Matrix-free K with rank-1 far field and precomputed sparse near field."""

    def __init__(self, bct: BlockClusterTree, spec: KernelSpec,
                 net: CurveNetwork, near_entries: np.ndarray | None = None):
        self.bct = bct
        self.spec = spec
        bvh = bct.bvh
        geom = net.geometry()
        self.lengths = geom.lengths
        self.n_edges = net.n_edges

        # far field: one kernel evaluation per admissible block, compiled
        # into K_far = Up^T K_adm Up with Up weighted by the edge lengths
        if len(bct.adm_a):
            self.kbar = _kernel_values(
                spec,
                bvh.com[bct.adm_a], bvh.com[bct.adm_b],
                bvh.avg_tangent[bct.adm_a], bvh.avg_tangent[bct.adm_b])
        else:
            self.kbar = np.zeros(0)
        n_far = len(bct.far_nodes)
        self.k_adm = coo_matrix((self.kbar, (bct.adm_rows, bct.adm_cols)),
                                shape=(n_far, n_far)).tocsr()
        self.up = bct.up.copy()
        self.up.data = self.lengths[self.up.indices]
        self.down = self.up.T.tocsr()

        # near field: exact trapezoid entries at bct.near_pair_arrays (given,
        # or computed here), excluded pairs zeroed
        I, J = bct.near_pair_arrays(net)
        if near_entries is None:
            high, low = trapezoid_kernels(net, spec.sigma, I, J)
            near_entries = high if spec.kind == "high" else low
        self.near = coo_matrix((near_entries, (I, J)),
                               shape=(self.n_edges, self.n_edges)).tocsr()
        self._row_sums = None

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """K @ psi for psi of shape (E,) or (E, m)."""
        psi = np.asarray(psi, dtype=float)
        return self.down @ (self.k_adm @ (self.up @ psi)) + self.near @ psi

    def row_sums(self) -> np.ndarray:
        """K @ ones, cached; the diagonal of the metric decomposition."""
        if self._row_sums is None:
            self._row_sums = self.matvec(np.ones(self.n_edges))
        return self._row_sums


class HierMetric:
    """Hierarchical fractional metric A = B + B0, compiled into fixed factors.

    A follows the formula of `metric.py`,
    A = sum_c D_c^T (diag(K 1) - K) D_c + E^T (diag(K0 1) - K0) E, with each
    K = K_near + Up^T K_adm Up taken from the block cluster tree.  Split along
    the near and the far field, it is compiled once into A = S - W^T K_blk W:

        S     = sum_c D_c^T (diag(K 1) - K_near) D_c
                + E^T (diag(K0 1) - K0_near) E (V x V, CSR)
        W     = [Up D_0; Up D_1; Up D_2; Up E]
        K_blk = blockdiag(K_adm, K_adm, K_adm, K0_adm)

    S is `metric.metric_parts` of the sparse near fields with the row sums
    of the same approximate K, far field included, so constants are
    annihilated regardless of the block approximation error.  A multigrid
    level never builds a `HierMetric` whose near field reaches DENSE_FILL of
    the edge pairs; it takes the exact dense metric instead, so S stays
    sparse.  `k_high` and `k_low` keep the two kernel matrices and `bct` the
    block partition: the given one, on a tree fitted to `net`, or one at
    DEFAULT_BCT_EPS on a new tree.  Another partition is passed in, as
    `bct=BlockClusterTree(EdgeBvh(net), eps)`.
    """

    def __init__(self, net: CurveNetwork, sigma: float,
                 bct: BlockClusterTree | None = None):
        self.net = net
        self.sigma = float(sigma)
        self.bct = bct if bct is not None else BlockClusterTree(EdgeBvh(net))
        self.bvh = self.bct.bvh
        I, J = self.bct.near_pair_arrays(net)
        high, low = trapezoid_kernels(net, self.sigma, I, J)
        self.k_high = HierKernelMatrix(
            self.bct, KernelSpec("high", self.sigma), net, near_entries=high)
        self.k_low = HierKernelMatrix(
            self.bct, KernelSpec("low", self.sigma), net, near_entries=low)
        self.n = net.n_vertices
        B, B0 = metric_parts(net, self.k_high.near, self.k_low.near,
                             self.k_high.row_sums(), self.k_low.row_sums())
        self.S = B + B0
        D, up = derivative_matrix(net), self.k_high.up
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

    def apply_stacked(self, vec: np.ndarray) -> np.ndarray:
        """blockdiag(A, A, A) @ vec for stacked (3V,) vectors."""
        return self.apply(vec.reshape(3, self.n).T).T.reshape(-1)

