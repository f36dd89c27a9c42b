from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from knotflow import bct as bct_module
from knotflow.bct import (DEFAULT_BCT_EPS, BlockClusterTree, HierKernelMatrix,
                          HierMetric)
from knotflow.bench import criterion_4
from knotflow.bvh import EdgeBvh
from knotflow.energy import validate_params
from knotflow.metric import (MetricOperator, dense_kernel_matrices,
                             metric_parts)
from knotflow.network import CurveNetwork, per_coordinate
from knotflow.scenes import generate_test_curve

from oracles import (bct_dfs, coverage_count, eager_far_field,
                     hier_apply_high, hier_apply_low, kernel_value,
                     mixed_circle, perturbed_polygon, regular_polygon,
                     smooth_circle, theta_and_loop)

P36 = validate_params(3, 6)
SIGMA = P36.sigma


def dense_kernel(net, kind):
    """The exact dense kernel matrix of one kind."""
    return dense_kernel_matrices(net, SIGMA)[("high", "low").index(kind)]


def hier_metric_at(net, eps, bvh=None):
    """The `HierMetric` partitioned at `eps`, on `bvh` or a new tree."""
    bvh = bvh if bvh is not None else EdgeBvh(net)
    return HierMetric(net, SIGMA, BlockClusterTree(bvh, eps))


def hier_kernel(net, kind, eps=DEFAULT_BCT_EPS, bvh=None):
    """The `kind` ("high" or "low") kernel matrix of `hier_metric_at`."""
    return getattr(hier_metric_at(net, eps, bvh), f"k_{kind}")


def polygon_net(n, seed=None):
    verts, edges = (regular_polygon(n) if seed is None
                    else perturbed_polygon(n, seed=seed))
    return CurveNetwork(verts, edges)


class TestStructure:
    def test_leaf_blocks_tile_all_pairs(self):
        net = polygon_net(64, seed=0)
        bct = BlockClusterTree(EdgeBvh(net), eps=0.25)
        assert coverage_count(bct) == net.n_edges ** 2

    def test_admissible_and_near_blocks_tile_all_pairs(self):
        net = smooth_circle()
        bct = BlockClusterTree(EdgeBvh(net), eps=0.25)
        assert len(bct.adm_a) > 0
        assert coverage_count(bct) == net.n_edges ** 2

    def test_far_loops_cross_interaction_fully_admissible(self):
        # tangent coherence (not distance) limits block coarseness on closed
        # loops, but every cross-loop pair must still land in an admissible
        # block rather than the near field
        v1, e1 = regular_polygon(16)
        verts = np.concatenate([v1, v1 + np.array([40.0, 0.0, 0.0])])
        edges = np.concatenate([e1, e1 + 16])
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net, leaf_size=2)
        bct = BlockClusterTree(bvh, eps=0.25)
        loop_of = np.zeros(net.n_edges, dtype=int)
        loop_of[16:] = 1

        def block_loops(node):
            return set(loop_of[bvh.order[bvh.start[node]:bvh.end[node]]])

        for a, b in zip(bct.near_a, bct.near_b):
            assert block_loops(a) == block_loops(b) != {0, 1}
        cross = [(a, b) for a, b in zip(bct.adm_a, bct.adm_b)
                 if block_loops(a) != block_loops(b)]
        covered = sum((bvh.end[a] - bvh.start[a]) * (bvh.end[b] - bvh.start[b])
                      for a, b in cross)
        assert covered == 2 * 16 * 16

    def test_smaller_eps_never_increases_admissible_leaves(self):
        net = polygon_net(64, seed=1)
        bvh = EdgeBvh(net)
        counts = [len(BlockClusterTree(bvh, eps=e).adm_a)
                  for e in (0.4, 0.2, 0.1, 0.05)]
        for coarse, fine in zip(counts, counts[1:]):
            assert fine <= coarse

    def test_smaller_eps_never_increases_admissible_coverage(self):
        # a block admissible at some eps is admissible at any larger one, so
        # the covered pairs shrink with eps; the block count need not (one
        # coarse block can split into several finer admissible ones)
        net = smooth_circle()
        bvh = EdgeBvh(net)
        sizes = bvh.end - bvh.start
        covered = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            bct = BlockClusterTree(bvh, eps=eps)
            covered.append(int(np.sum(sizes[bct.adm_a] * sizes[bct.adm_b])))
        assert covered[0] > 0
        for coarse, fine in zip(covered, covered[1:]):
            assert fine <= coarse

    def test_no_admissible_block_contains_excluded_pair(self):
        net = polygon_net(48, seed=2)
        bct = BlockClusterTree(EdgeBvh(net, leaf_size=2), eps=0.5)
        assert len(bct.adm_a) > 0
        self.check_no_excluded_pair(net, bct)

    def test_no_admissible_block_contains_excluded_pair_with_blocks(self):
        # at the default leaf size the admissible blocks hold several edges
        # a side, so each block's every pair is checked, not a single one
        net = smooth_circle()
        bct = BlockClusterTree(EdgeBvh(net), eps=0.25)
        bvh = bct.bvh
        sizes = (bvh.end - bvh.start)[bct.adm_a] * (bvh.end - bvh.start)[bct.adm_b]
        assert np.any(sizes > 1)
        self.check_no_excluded_pair(net, bct)

    def test_no_admissible_block_contains_excluded_pair_past_quarter_eps(self):
        # past eps = 1/4 the eps test alone admits blocks holding adjacent
        # pairs; the separation term must keep them out
        net = smooth_circle()
        bct = BlockClusterTree(EdgeBvh(net), eps=0.6)
        assert len(bct.adm_a) > 0
        self.check_no_excluded_pair(net, bct)

    @staticmethod
    def check_no_excluded_pair(net, bct):
        from knotflow.network import edges_share_vertex

        bvh = bct.bvh
        for a, b in zip(bct.adm_a, bct.adm_b):
            ia = bvh.order[bvh.start[a]:bvh.end[a]]
            jb = bvh.order[bvh.start[b]:bvh.end[b]]
            I = np.repeat(ia, len(jb))
            J = np.tile(jb, len(ia))
            assert not np.any(I == J)
            assert not np.any(edges_share_vertex(net.edges[I], net.edges[J]))


class TestKernelMatvec:
    @pytest.mark.parametrize("kind", ["high", "low"])
    def test_zero_vector(self, kind):
        self.check_zero_vector(polygon_net(32, seed=3), kind)

    @pytest.mark.parametrize("kind", ["high", "low"])
    def test_zero_vector_with_blocks(self, kind):
        assert self.check_zero_vector(smooth_circle(), kind) > 0

    @staticmethod
    def check_zero_vector(net, kind):
        K = hier_kernel(net, kind)
        assert np.all(K.matvec(np.zeros(net.n_edges)) == 0.0)
        return len(K.bct.adm_a)

    @pytest.mark.parametrize("kind", ["high", "low"])
    def test_matches_dense_at_default_eps(self, kind):
        self.check_matches_dense(polygon_net(64, seed=4), kind)

    @pytest.mark.parametrize("kind", ["high", "low"])
    def test_matches_dense_at_default_eps_with_blocks(self, kind):
        assert self.check_matches_dense(smooth_circle(), kind) > 0

    @staticmethod
    def check_matches_dense(net, kind):
        K = hier_kernel(net, kind)
        dense = dense_kernel(net, kind)
        rng = np.random.default_rng(5)
        psi = rng.normal(size=net.n_edges)
        err = np.linalg.norm(K.matvec(psi) - dense @ psi) \
            / np.linalg.norm(dense @ psi)
        assert err <= 1e-2
        return len(K.bct.adm_a)

    @pytest.mark.parametrize("kind", ["high", "low"])
    def test_exact_fallback_at_eps_zero(self, kind):
        net = polygon_net(48, seed=6)
        K = hier_kernel(net, kind, eps=0.0)
        assert len(K.bct.adm_a) == 0
        dense = dense_kernel(net, kind)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=net.n_edges)
        got = K.matvec(psi)
        want = dense @ psi
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_accuracy_improves_as_eps_decreases(self):
        self.check_accuracy_in_eps(polygon_net(96, seed=8))

    def test_accuracy_improves_as_eps_decreases_with_blocks(self):
        assert self.check_accuracy_in_eps(smooth_circle()) > 0

    @staticmethod
    def check_accuracy_in_eps(net):
        dense = dense_kernel(net, "high")
        rng = np.random.default_rng(9)
        psi = rng.normal(size=net.n_edges)
        want = dense @ psi
        bvh = EdgeBvh(net)
        errs, blocks = [], 0
        for eps in (0.4, 0.2, 0.1, 0.05):
            K = hier_kernel(net, "high", eps, bvh)
            errs.append(np.linalg.norm(K.matvec(psi) - want))
            blocks = max(blocks, len(K.bct.adm_a))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse + 1e-12
        return blocks

    def test_symmetrized_kernel_near_symmetric_action(self):
        self.check_symmetric_action(polygon_net(64, seed=10))

    def test_symmetrized_kernel_near_symmetric_action_with_blocks(self):
        assert self.check_symmetric_action(smooth_circle()) > 0

    @staticmethod
    def check_symmetric_action(net):
        dense = dense_kernel(net, "low")
        asym = np.abs(dense - dense.T).max() / np.abs(dense).max()
        assert asym < 1e-12
        K = hier_kernel(net, "low", eps=0.25)
        rng = np.random.default_rng(11)
        psi = rng.normal(size=net.n_edges)
        chi = rng.normal(size=net.n_edges)
        lhs = chi @ K.matvec(psi)
        rhs = psi @ K.matvec(chi)
        scale = np.abs(dense).max() * np.linalg.norm(psi) * np.linalg.norm(chi)
        assert abs(lhs - rhs) <= 2e-2 * scale
        return len(K.bct.adm_a)

    def test_matrix_rhs_matches_columnwise(self):
        self.check_matrix_rhs(polygon_net(32, seed=12))

    def test_matrix_rhs_matches_columnwise_with_blocks(self):
        assert self.check_matrix_rhs(smooth_circle()) > 0

    @staticmethod
    def check_matrix_rhs(net):
        K = hier_kernel(net, "high")
        rng = np.random.default_rng(13)
        block = rng.normal(size=(net.n_edges, 3))
        batched = K.matvec(block)
        for c in range(3):
            assert np.allclose(batched[:, c], K.matvec(block[:, c]))
        return len(K.bct.adm_a)


def block_sum_oracle(K, net, psi):
    """K @ psi summing each admissible block explicitly, plus the near CSR."""
    bvh = K.bct.bvh
    lengths = net.geometry().lengths
    cols = psi.reshape(net.n_edges, -1)
    phi = K.near @ cols
    for a, b, kbar in zip(K.bct.adm_a, K.bct.adm_b, K.kbar):
        ia = bvh.order[bvh.start[a]:bvh.end[a]]
        jb = bvh.order[bvh.start[b]:bvh.end[b]]
        phi[ia] += lengths[ia, None] * kbar \
            * (lengths[jb, None] * cols[jb]).sum(axis=0)
    return phi.reshape(psi.shape)


class TestCompiledFarField:
    @pytest.mark.parametrize("kind", ["high", "low"])
    @pytest.mark.parametrize("leaf_size", [8, 2])
    @pytest.mark.parametrize("shape", [(), (4,)])
    def test_matches_block_sum_oracle(self, kind, leaf_size, shape):
        # at leaf size 8 the 96-gon has no admissible block
        net = smooth_circle() if leaf_size == 8 else polygon_net(96, seed=24)
        K = hier_kernel(net, kind, 0.25, EdgeBvh(net, leaf_size=leaf_size))
        assert len(K.bct.adm_a) > 0
        psi = np.random.default_rng(25).normal(size=(net.n_edges, *shape))
        got = K.matvec(psi)
        want = block_sum_oracle(K, net, psi)
        assert got.shape == psi.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestBlockKernels:
    @pytest.mark.parametrize("kind", ["high", "low"])
    def test_kbar_matches_scalar_loop(self, kind):
        # each admissible block's kernel at the aggregates of its two nodes:
        # 2 / r^(2 sigma + 1), or sum_T |T x d|^2 / r^(2 sigma + 5) over the
        # two (non-unit) average tangents
        net = smooth_circle()
        K = hier_kernel(net, kind)
        bct = K.bct
        assert len(bct.adm_a) > 0
        com, tbar = bct.bvh.com, bct.bvh.avg_tangent
        expo = 2 * SIGMA + 1
        for a, b, kbar in zip(bct.adm_a, bct.adm_b, K.kbar):
            if kind == "high":
                want = 2.0 / np.linalg.norm(com[a] - com[b]) ** expo
            else:
                want = sum(kernel_value(com[a], com[b], t, 2.0, expo + 4)
                           for t in (tbar[a], tbar[b]))
            assert kbar == pytest.approx(want, rel=1e-13)


class TestHierMetric:
    def test_constant_annihilated_exactly(self):
        self.check_constant_annihilated(polygon_net(64, seed=14))

    def test_constant_annihilated_exactly_with_blocks(self):
        assert self.check_constant_annihilated(smooth_circle()) > 0

    @staticmethod
    def check_constant_annihilated(net):
        hm = hier_metric_at(net, 0.25)
        u = np.full(net.n_vertices, 2.3)
        scale = np.linalg.norm(hm.apply(np.random.default_rng(15)
                                        .normal(size=net.n_vertices)))
        assert np.linalg.norm(hier_apply_high(hm, u)) <= 1e-12 * scale
        assert np.linalg.norm(hier_apply_low(hm, u)) <= 1e-12 * scale
        assert np.linalg.norm(hm.apply(u)) <= 1e-12 * scale
        return len(hm.bct.adm_a)

    def test_linearity(self):
        self.check_linearity(polygon_net(48, seed=16))

    def test_linearity_with_blocks(self):
        assert self.check_linearity(smooth_circle()) > 0

    @staticmethod
    def check_linearity(net):
        hm = hier_metric_at(net, DEFAULT_BCT_EPS)
        rng = np.random.default_rng(17)
        u = rng.normal(size=net.n_vertices)
        v = rng.normal(size=net.n_vertices)
        lhs = hm.apply(u + v)
        rhs = hm.apply(u) + hm.apply(v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())
        return len(hm.bct.adm_a)

    @pytest.mark.parametrize("which", ["B", "B0"])
    def test_matches_dense_gram_at_n64(self, which):
        self.check_dense_gram(polygon_net(64, seed=18), which)

    @pytest.mark.parametrize("which", ["B", "B0"])
    def test_matches_dense_gram_with_blocks(self, which):
        assert self.check_dense_gram(smooth_circle(), which) > 0

    @staticmethod
    def check_dense_gram(net, which):
        hm = hier_metric_at(net, DEFAULT_BCT_EPS)
        B, B0 = metric_parts(net, *dense_kernel_matrices(net, SIGMA))
        dense = B if which == "B" else B0
        rng = np.random.default_rng(19)
        u = rng.normal(size=net.n_vertices)
        got = hier_apply_high(hm, u) if which == "B" \
            else hier_apply_low(hm, u)
        want = dense @ u
        assert np.linalg.norm(got - want) <= 1e-2 * np.linalg.norm(want)
        return len(hm.bct.adm_a)

    def test_exact_fallback_matches_assembled_grams(self):
        # with trapezoid near-field entries and no admissible blocks, the
        # decomposition reproduces the assembled Gram matrices exactly
        net = polygon_net(32, seed=20)
        hm = hier_metric_at(net, 0.0)
        B, B0 = metric_parts(net, *dense_kernel_matrices(net, SIGMA))
        rng = np.random.default_rng(21)
        u = rng.normal(size=net.n_vertices)
        assert np.linalg.norm(hier_apply_high(hm, u) - B @ u) \
            <= 1e-12 * np.linalg.norm(B @ u)
        assert np.linalg.norm(hier_apply_low(hm, u) - B0 @ u) \
            <= 1e-12 * np.linalg.norm(B0 @ u)

    def test_exact_fallback_compiles_to_dense_metric_on_junctures(self):
        # at eps = 0 the compiled near part is the whole metric; two
        # degree-3 junctures and a second component check the stencils
        net = CurveNetwork(*theta_and_loop())
        S = hier_metric_at(net, 0.0).S.toarray()
        A = MetricOperator(net, P36).A
        assert np.abs(S - A).max() <= 1e-12 * np.abs(A).max()

    def test_compiled_apply_matches_matrix_free(self):
        self.check_compiled_apply(polygon_net(64))

    def test_compiled_apply_matches_matrix_free_with_blocks(self):
        assert self.check_compiled_apply(smooth_circle()) > 0

    def test_compiled_apply_matches_matrix_free_sparse_near_field(self):
        # S is 7% full here
        net = generate_test_curve("perturbed-circle", 1024, seed=5)
        assert self.check_compiled_apply(net) > 0

    @staticmethod
    def check_compiled_apply(net):
        hm = hier_metric_at(net, DEFAULT_BCT_EPS)
        U = np.random.default_rng(30).normal(size=(net.n_vertices, 2))
        want = hier_apply_high(hm, U) + hier_apply_low(hm, U)
        assert np.linalg.norm(hm.apply(U) - want) \
            <= 1e-12 * np.linalg.norm(want)
        return len(hm.bct.adm_a)

    def test_compiled_near_field_stays_sparse(self):
        # S holds at most the 4 vertex pairs of each near edge pair plus
        # the 3 entries per vertex of the edge stencils: no V x V storage
        net = generate_test_curve("perturbed-circle", 2048, seed=5)
        hm = hier_metric_at(net, DEFAULT_BCT_EPS)
        assert hm.S.nnz <= 4 * hm.k_high.near.nnz + 3 * net.n_vertices
        assert hm.S.nnz < net.n_vertices ** 2 // 16

    def test_stacked_apply(self):
        net = polygon_net(32, seed=22)
        self.check_per_coordinate_apply(net, DEFAULT_BCT_EPS, 23)

    def test_stacked_apply_is_three_applies(self):
        net = polygon_net(128, seed=26)
        assert self.check_per_coordinate_apply(net, 0.25, 27) == 0

    def test_stacked_apply_is_three_applies_with_blocks(self):
        assert self.check_per_coordinate_apply(smooth_circle(), 0.25, 27) > 0

    @staticmethod
    def check_per_coordinate_apply(net, eps, seed):
        # one apply per coordinate row of a stacked vector equals the
        # (V, 3) multi-column apply bit for bit
        hm = hier_metric_at(net, eps)
        X = np.random.default_rng(seed).normal(size=(3, net.n_vertices))
        assert np.array_equal(per_coordinate(hm.apply, X.reshape(-1)),
                              hm.apply(X.T).T.ravel())
        return len(hm.bct.adm_a)

    def test_one_pass_builds_both_kernels(self, monkeypatch):
        # one far-field and one near-field kernel evaluation serve both
        # kernel matrices, which share the length-weighted membership
        # matrix; the row sums take one matvec per kernel
        calls = Counter()

        def counted(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped

        for name in ("_far_values", "trapezoid_kernels"):
            monkeypatch.setattr(bct_module, name,
                                counted(name, getattr(bct_module, name)))
        monkeypatch.setattr(HierKernelMatrix, "matvec",
                            counted("matvec", HierKernelMatrix.matvec))
        hm = hier_metric_at(smooth_circle(), DEFAULT_BCT_EPS)
        assert len(hm.bct.adm_a) > 0
        assert calls == {"_far_values": 1, "trapezoid_kernels": 1,
                         "matvec": 2}
        assert hm.k_high.up is hm.k_low.up
        assert hm.k_high.down is hm.k_low.down

    def test_refitting_shared_tree_leaves_metric_unchanged(self):
        self.check_refit_leaves_metric(polygon_net(96, seed=28))

    def test_refitting_shared_tree_leaves_metric_unchanged_with_blocks(self):
        assert self.check_refit_leaves_metric(smooth_circle()) > 0

    @staticmethod
    def check_refit_leaves_metric(net):
        bvh = EdgeBvh(net)
        hm = hier_metric_at(net, DEFAULT_BCT_EPS, bvh)
        assert hm.bvh is bvh
        vec = np.random.default_rng(29).normal(size=3 * net.n_vertices)
        before = per_coordinate(hm.apply, vec)
        moved = net.with_positions(net.vertices * 1.5 + 0.1)
        bvh.refit(moved)
        assert np.array_equal(per_coordinate(hm.apply, vec), before)
        return len(hm.bct.adm_a)


class TestSweep:
    @pytest.mark.parametrize("eps", [0.0, 0.125, 0.25, 0.6])
    @pytest.mark.parametrize("leaf_size", [1, 2, 8])
    @pytest.mark.parametrize("scene", ["smooth_circle", "theta_and_loop",
                                       "perturbed_96"])
    def test_blocks_match_recursive_oracle(self, scene, leaf_size, eps):
        # the same admissible and near blocks, each once; only the order
        # differs from the block-by-block recursion
        net = {"smooth_circle": smooth_circle,
               "theta_and_loop": lambda: CurveNetwork(*theta_and_loop()),
               "perturbed_96": lambda: polygon_net(96, seed=24)}[scene]()
        bct = BlockClusterTree(EdgeBvh(net, leaf_size=leaf_size), eps=eps)
        admissible, near = bct_dfs(bct.bvh, eps)
        got_adm = list(zip(bct.adm_a.tolist(), bct.adm_b.tolist()))
        got_near = list(zip(bct.near_a.tolist(), bct.near_b.tolist()))
        assert len(got_adm) == len(set(got_adm)) == len(admissible)
        assert set(got_adm) == set(admissible)
        assert len(got_near) == len(set(got_near)) == len(near)
        assert set(got_near) == set(near)
        if eps == 0.0:
            assert not admissible

    @pytest.mark.parametrize("leaf_size", [2, 8])
    def test_up_matches_membership_loop(self, leaf_size):
        net = smooth_circle()
        bvh = EdgeBvh(net, leaf_size=leaf_size)
        bct = BlockClusterTree(bvh, eps=0.25)
        assert len(bct.far_nodes) > 0
        # one row per far node, its run of edges in tree order
        rows, edges = [], []
        for row, node in enumerate(bct.far_nodes):
            for edge in bvh.order[bvh.start[node]:bvh.end[node]]:
                rows.append(row)
                edges.append(edge)
        want = csr_matrix((np.ones(len(rows)), (rows, edges)),
                          shape=(len(bct.far_nodes), net.n_edges))
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(bct.up, part), getattr(want, part))

    def test_far_field_is_built_on_first_use(self):
        # a tree that only counts near pairs leaves the far field unbuilt;
        # once read, it equals the clusters the constructor built eagerly
        net = mixed_circle()
        bct = BlockClusterTree(EdgeBvh(net))
        lazy = ("far_nodes", "adm_rows", "adm_cols", "up")
        assert not set(lazy) & set(vars(bct))
        want = eager_far_field(bct)
        for name, expected in zip(lazy[:3], want):
            assert np.array_equal(getattr(bct, name), expected)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(bct.up, part),
                                  getattr(want[3], part))
        # HierMetric's far field reads the same clusters
        metric = HierMetric(net, SIGMA, bct)
        assert np.array_equal(metric.k_high.up.indices, want[3].indices)
        assert metric.K_blk.nnz > 0


def test_criterion_4_quick_passes():
    # the acceptance check of the hierarchical matvecs against the dense
    # kernels; the n = 256 circle's far field has 190 admissible blocks
    result = criterion_4(quick=True)
    assert result.passed, result.format_line()
    assert result.details[1].startswith("n=256: ")
    assert ", 190 admissible blocks; exact" in result.details[1]
