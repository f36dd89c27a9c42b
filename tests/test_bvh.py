import tracemalloc

import numpy as np
import pytest

from knotflow.bct import BlockClusterTree
from knotflow.bvh import (EdgeBvh, _far_terms, bh_differential, bh_energy,
                          overlap_pairs, run_pairs)
from knotflow.energy import (discrete_differential, discrete_energy,
                             validate_params)
from knotflow.flow import (_collision_times, collision_step_limit,
                           crossings_during_motion,
                           minimal_projected_crossings,
                           projected_crossing_count)
from knotflow.network import CurveNetwork, edges_share_vertex
from knotflow.scenes import _min_pair_gap, generate_test_curve

from oracles import (collision_times_all_pairs, crossings_all_pairs,
                     disjoint_pairs_upper, kernel_value, min_pair_gap_all_pairs, perturbed_polygon,
                     projected_crossings_all_pairs, refit_loop,
                     regular_polygon, smooth_circle, swept_box_pairs,
                     swept_boxes, theta_and_loop, traverse_dfs, tree_depth)

P36 = validate_params(3, 6)


def lumped_nodes(net, bvh, eps):
    """Number of nodes the plan at eps lumps some edge against."""
    return len(np.unique(bvh.plan(net, eps).far_node))


def two_loops(gap=20.0, n=12):
    """Two small far-separated loops; inter-loop field is very smooth."""
    v1, e1 = regular_polygon(n)
    v2, _ = regular_polygon(n)
    verts = np.concatenate([v1, v2 + np.array([gap, 0.0, 0.0])])
    edges = np.concatenate([e1, e1 + n])
    return CurveNetwork(verts, edges)


class TestBuild:
    def test_small_network_single_leaf(self):
        verts, edges = regular_polygon(6)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net, leaf_size=8)
        assert bvh.n_nodes == 1
        assert bvh.left[0] == -1

    def test_depth_is_logarithmic_at_4096_edges(self):
        net = generate_test_curve("perturbed-circle", 4096, seed=5)
        bvh = EdgeBvh(net)
        # ceil(log2(4096 / 8)) = 9 halvings reach the leaf size
        assert tree_depth(bvh.left, bvh.right) <= 9
        leaves = bvh.left < 0
        assert np.all(bvh.end[leaves] - bvh.start[leaves] <= bvh.leaf_size)

    @pytest.mark.parametrize("scale", [2.0 ** -7, 2.0 ** 7])
    def test_tree_does_not_depend_on_scale(self, scale):
        # powers of two scale every coordinate exactly
        net = generate_test_curve("random-trefoil", 256, seed=8)
        bvh = EdgeBvh(net)
        scaled = EdgeBvh(net.with_positions(scale * net.vertices))
        for name in ("order", "start", "end"):
            assert np.array_equal(getattr(scaled, name), getattr(bvh, name))

    def test_root_mass_is_total_length(self):
        verts, edges = perturbed_polygon(40, seed=0)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        assert bvh.mass[0] == pytest.approx(net.total_length(), rel=1e-12)

    def test_child_masses_sum_to_parent(self):
        verts, edges = perturbed_polygon(64, seed=1)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        for node in range(bvh.n_nodes):
            l, r = bvh.left[node], bvh.right[node]
            if l >= 0:
                assert bvh.mass[node] == pytest.approx(
                    bvh.mass[l] + bvh.mass[r], rel=1e-12)

    def test_aggregates_match_bottom_up_recompute(self):
        verts, edges = perturbed_polygon(48, seed=2)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        geom = net.geometry()
        for node in range(bvh.n_nodes):
            sel = bvh.order[bvh.start[node]:bvh.end[node]]
            w = geom.lengths[sel]
            assert bvh.mass[node] == pytest.approx(w.sum(), rel=1e-12)
            com = (w[:, None] * geom.midpoints[sel]).sum(0) / w.sum()
            assert np.allclose(bvh.com[node], com, rtol=1e-12)
            tbar = (w[:, None] * geom.tangents[sel]).sum(0) / w.sum()
            assert np.allclose(bvh.avg_tangent[node], tbar, rtol=1e-12)

    def test_radii_bound_contents(self):
        verts, edges = perturbed_polygon(32, seed=3)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net, leaf_size=4)
        geom = net.geometry()
        for node in range(bvh.n_nodes):
            sel = bvh.order[bvh.start[node]:bvh.end[node]]
            box_center_x = 0.5 * (bvh.lo[node, 3:] + bvh.hi[node, 3:])
            dx = np.linalg.norm(geom.midpoints[sel] - box_center_x, axis=1)
            assert np.all(dx <= bvh.r_x[node] + 1e-12)
            box_center_t = 0.5 * (bvh.lo[node, :3] + bvh.hi[node, :3])
            dt = np.linalg.norm(geom.tangents[sel] - box_center_t, axis=1)
            assert np.all(dt <= bvh.r_T[node] + 1e-12)

    def test_refit_tracks_moved_positions(self):
        verts, edges = perturbed_polygon(32, seed=4)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net, leaf_size=4)
        moved = net.with_positions(verts * 1.3 + np.array([0.5, 0, 0]))
        bvh.refit(moved)
        assert bvh.mass[0] == pytest.approx(moved.total_length(), rel=1e-12)
        fresh = EdgeBvh(moved, leaf_size=4)
        # same topology was kept, so root aggregates agree with a fresh build
        assert np.allclose(bvh.com[0], fresh.com[0], rtol=1e-12)


PLAN_INPUTS = {
    "smooth-circle": smooth_circle,
    "random-trefoil": lambda: generate_test_curve("random-trefoil", 128,
                                                  seed=8),
    "theta-and-loop": lambda: CurveNetwork(*theta_and_loop()),
    "grid-braid": lambda: generate_test_curve("grid-braid", 120, seed=3),
}


class TestPlan:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.8])
    @pytest.mark.parametrize("scene", sorted(PLAN_INPUTS))
    def test_matches_depth_first_traversal(self, scene, eps):
        # the same far entries and leaf pairs, each once; only the order
        # differs from the node-by-node traversal
        net = PLAN_INPUTS[scene]()
        bvh = EdgeBvh(net)
        plan = bvh.plan(net, eps)
        far, I, J = traverse_dfs(net, bvh, eps)
        far_set = {(e, node) for node, edges in far for e in edges.tolist()}
        assert len(plan.far_edge) == len(far_set)
        assert set(zip(plan.far_edge.tolist(),
                       plan.far_node.tolist())) == far_set
        leaf_set = set(zip(I.tolist(), J.tolist()))
        assert len(plan.I) == len(I) == len(leaf_set)
        assert set(zip(plan.I.tolist(), plan.J.tolist())) == leaf_set
        if eps == 0.0:
            assert len(far_set) == 0

    def test_one_plan_per_fit(self, monkeypatch):
        import knotflow.bvh as bvh_module

        plans = []
        make = bvh_module.bh_plan
        monkeypatch.setattr(bvh_module, "bh_plan",
                            lambda *args: plans.append(1) or make(*args))
        net = smooth_circle()
        bvh = EdgeBvh(net)
        energy = bh_energy(net, bvh, P36)
        assert bh_differential(net, bvh, P36)[0] == pytest.approx(
            energy, rel=1e-13)
        assert len(plans) == 1
        bvh.refit(net)
        bh_energy(net, bvh, P36)
        assert len(plans) == 2


class TestRunPairs:
    def test_row_major_with_empty_runs(self):
        # run pairs of 2 x 3, 0 x 2, 1 x 0 and 1 x 1 positions
        pos_a, pos_b = run_pairs(
            np.array([4, 9, 7, 0]), np.array([2, 0, 1, 1]),
            np.array([10, 20, 30, 5]), np.array([3, 2, 0, 1]))
        assert pos_a.tolist() == [4, 4, 4, 5, 5, 5, 0]
        assert pos_b.tolist() == [10, 11, 12, 10, 11, 12, 5]


class TestRefit:
    @pytest.mark.parametrize("net", [
        CurveNetwork(*perturbed_polygon(200, seed=11)),
        generate_test_curve("perturbed-circle", 4096, seed=5)],
        ids=["perturbed-polygon", "perturbed-circle-4096"])
    def test_matches_node_by_node_refit(self, net):
        bvh = EdgeBvh(net, leaf_size=5)
        moved = net.with_positions(1.1 * net.vertices[:, [1, 2, 0]])
        bvh.refit(moved)
        for name, want in refit_loop(bvh, moved).items():
            got = getattr(bvh, name)
            assert np.allclose(got, want, rtol=1e-14,
                               atol=1e-14 * np.abs(want).max()), name


class TestFarField:
    """The far field against scalar loops over the plan's (edge, node)
    entries, with the fitted tree's aggregates and the plan frozen."""

    @staticmethod
    def frozen_far_field(net, eps=0.25):
        bvh = EdgeBvh(net)
        plan = bvh.plan(net, eps)
        assert len(plan.far_edge) > 0
        frozen = (plan.far_edge.tolist(), plan.far_node.tolist(),
                  bvh.com.copy(), bvh.avg_tangent.copy(), bvh.mass.copy())
        return bvh, plan, frozen

    @staticmethod
    def lumped_loop(net, frozen, both_orders=False):
        """sum l_I m_a k(x_I - xbar_a, T_I), plus k(x_I - xbar_a, Tbar_a)
        with both orders; Tbar_a is not a unit vector."""
        far_edge, far_node, com, tbar, mass = frozen
        geom = net.geometry()
        total = 0.0
        for e, a in zip(far_edge, far_node):
            x = geom.midpoints[e]
            k = kernel_value(x, com[a], geom.tangents[e], 3.0, 6.0)
            if both_orders:
                k += kernel_value(x, com[a], tbar[a], 3.0, 6.0)
            total += geom.lengths[e] * mass[a] * k
        return total

    @pytest.mark.parametrize("make", [smooth_circle, lambda: CurveNetwork(
        *theta_and_loop())], ids=["smooth-circle", "theta-and-loop"])
    def test_energy_matches_scalar_loop(self, make):
        net = make()
        bvh, plan, frozen = self.frozen_far_field(net)
        assert _far_terms(net, bvh, P36, plan) == pytest.approx(
            self.lumped_loop(net, frozen), rel=1e-12)

    @pytest.mark.parametrize("make", [smooth_circle, lambda: CurveNetwork(
        *theta_and_loop())], ids=["smooth-circle", "theta-and-loop"])
    def test_differential_matches_central_differences(self, make):
        net = make()
        bvh, plan, frozen = self.frozen_far_field(net)
        grad = np.zeros((3, net.n_vertices))
        _far_terms(net, bvh, P36, plan, grad=grad)
        rng = np.random.default_rng(3)
        # the smooth circle's edges are short (2 pi / 256), so its central
        # differences err by about 2e-5 at h = 1e-5 and 2e-7 at h = 1e-6
        h = 2e-7
        for _ in range(3):
            u = rng.normal(size=net.vertices.shape)
            f = [self.lumped_loop(net.with_positions(net.vertices + s * h * u),
                                  frozen, both_orders=True) for s in (1, -1)]
            fd = (f[0] - f[1]) / (2 * h)
            assert float(np.sum(grad.T * u)) == pytest.approx(fd, rel=1e-6)


class TestMemory:
    """The step start, the line-search trials and the block cluster tree's
    near field stay far below a float64 E^2 / 2 pair list, 64 MiB at this
    size."""

    @pytest.mark.parametrize("trial", [False, True],
                             ids=["energy-and-differential", "trial-energy"])
    def test_peak_allocation(self, trial):
        net = generate_test_curve("perturbed-circle", 4096, seed=5)
        bvh = EdgeBvh(net)
        tracemalloc.start()
        try:
            if trial:
                bh_energy(net, bvh, P36)
            else:
                bh_differential(net, bvh, P36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_collision_broad_phase_peak_allocation(self):
        # swept boxes of a small motion, their pairs and the hit times
        net = generate_test_curve("perturbed-circle", 4096, seed=5)
        bvh = EdgeBvh(net)
        direction = smooth_motion(net, 1e-3, seed=3)
        tracemalloc.start()
        try:
            tau = collision_step_limit(net, direction, 1.5, bvh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tau == 1.5
        assert peak < 24 * 2 ** 20

    def test_block_cluster_tree_peak_allocation(self):
        # the block partition and its exact near-field pair list
        net = generate_test_curve("perturbed-circle", 4096, seed=5)
        bvh = EdgeBvh(net)
        tracemalloc.start()
        try:
            I, _ = BlockClusterTree(bvh).near_pair_arrays(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(I) > 0
        assert peak < 32 * 2 ** 20


def broad_phase_scenes():
    """(name, net): a knot, a network with junctures and a separate loop,
    open strands and a planar circle."""
    return [
        ("random-trefoil", generate_test_curve("random-trefoil", 128, seed=5)),
        ("theta-and-loop", CurveNetwork(*theta_and_loop())),
        ("grid-braid", generate_test_curve("grid-braid", 90, seed=3)),
        ("perturbed-circle", generate_test_curve("perturbed-circle", 96,
                                                 seed=5)),
    ]


def smooth_motion(net, scale, seed):
    """A smooth random velocity field: a few low Fourier modes of the
    vertex index, so neighbors move alike and far strands differently."""
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * np.arange(net.n_vertices) / net.n_vertices
    v = np.zeros((net.n_vertices, 3))
    for k in range(1, 4):
        a, b = rng.uniform(-1, 1, (2, 3))
        v += (a * np.cos(k * theta)[:, None]
              + b * np.sin(k * theta)[:, None]) / k
    return scale * v


def pair_set(I, J):
    return set(zip(I.tolist(), J.tolist()))


class TestBroadPhase:
    """The tree broad phase finds exactly the pairs the all-pairs box test
    keeps, and the queries built on it equal their all-pairs oracles."""

    @pytest.mark.parametrize("name,net", broad_phase_scenes(),
                             ids=[s[0] for s in broad_phase_scenes()])
    @pytest.mark.parametrize("scale,cap", [(0.05, 1.0), (0.3, 1.5),
                                           (2.0, 4.0)])
    def test_collision_times_match_all_pairs(self, name, net, scale, cap):
        velocity = smooth_motion(net, scale, seed=len(name))
        base = net.vertices
        lo, hi, pad = swept_boxes(net, base, velocity, cap)
        for bvh in (EdgeBvh(net), EdgeBvh(net, leaf_size=1),
                    EdgeBvh(net.with_positions(base + cap * velocity))):
            I, J = overlap_pairs(net, bvh, lo, hi, pad)
            assert np.all(I < J)
            assert len(pair_set(I, J)) == len(I)
            assert pair_set(I, J) \
                == pair_set(*swept_box_pairs(net, base, velocity, cap))
            hits = _collision_times(net, base, velocity, cap, bvh)
            want = collision_times_all_pairs(net, base, velocity, cap)
            assert np.array_equal(np.sort(hits), np.sort(want))
        end = base + velocity
        assert crossings_during_motion(net, base, end) \
            == crossings_all_pairs(net, base, end)
        want = collision_times_all_pairs(net, base, -velocity, cap)
        assert collision_step_limit(net, velocity, cap) \
            == (want.min() if len(want) else cap)

    def test_motions_with_contacts(self):
        # the wide motions must reach contacts, or the hit times test nothing
        net = generate_test_curve("random-trefoil", 128, seed=5)
        hits = collision_times_all_pairs(net, net.vertices,
                                         smooth_motion(net, 2.0, 14), 4.0)
        assert len(hits) > 0

    def test_wide_sweep_between_trefoil_frames(self, monkeypatch):
        # two random trefoils on the same edges, the second with its axes
        # turned: the swept boxes span much of the knot, so node pairs
        # survive deep into the tree and the mirrored half is dropped all the
        # way down
        import knotflow.bvh as bvh_module

        a = generate_test_curve("random-trefoil", 128, seed=5)
        b = generate_test_curve("random-trefoil", 128, seed=9).vertices
        b = b[:, [1, 2, 0]] * [-1, 1, 1]
        velocity = b - a.vertices
        want = swept_box_pairs(a, a.vertices, velocity, 1.0)
        assert len(want[0]) > len(disjoint_pairs_upper(a)[0]) // 4
        swept, sweep = [], bvh_module.sweep

        def recording_sweep(*args):
            out = sweep(*args)
            swept.append(out[2:])
            return out

        monkeypatch.setattr(bvh_module, "sweep", recording_sweep)
        tree = EdgeBvh(a)
        I, J = overlap_pairs(a, tree,
                             *swept_boxes(a, a.vertices, velocity, 1.0))
        assert len(pair_set(I, J)) == len(I)
        assert pair_set(I, J) == pair_set(*want)
        # the leaves get each unordered pair of leaves once, and pairs of
        # distinct leaves in many places of the tree
        leaf_a, leaf_b = swept[0]
        assert np.all(tree.start[leaf_a] <= tree.start[leaf_b])
        assert len(pair_set(leaf_a, leaf_b)) == len(leaf_a)
        assert np.sum(leaf_a != leaf_b) > len(tree.leaves)
        hits = _collision_times(a, a.vertices, velocity, 1.0)
        oracle = collision_times_all_pairs(a, a.vertices, velocity, 1.0)
        assert len(oracle) > 0
        assert np.array_equal(np.sort(hits), np.sort(oracle))
        assert crossings_during_motion(a, a.vertices, b) \
            == crossings_all_pairs(a, a.vertices, b)

    @pytest.mark.parametrize("name,net", broad_phase_scenes(),
                             ids=[s[0] for s in broad_phase_scenes()])
    def test_projected_crossings_match_all_pairs(self, name, net):
        rng = np.random.default_rng(21)
        bvh = EdgeBvh(net)
        for view in [[0.1234, 0.3456, 0.9123], [1, 0, 0], [0, 0, 1],
                     *rng.normal(size=(6, 3))]:
            want = projected_crossings_all_pairs(net, view)
            assert projected_crossing_count(net, view) == want
            assert projected_crossing_count(net, view, bvh) == want

    def test_trefoil_diagrams_keep_their_crossings(self):
        net = generate_test_curve("random-trefoil", 128, seed=8)
        counts = [projected_crossings_all_pairs(net, v) for v in
                  np.random.default_rng(0).normal(size=(40, 3))]
        assert minimal_projected_crossings(net, samples=40) == min(counts) == 3

    @pytest.mark.parametrize("name,net", broad_phase_scenes(),
                             ids=[s[0] for s in broad_phase_scenes()])
    @pytest.mark.parametrize("min_index_gap", [1, 5])
    def test_min_pair_gap_matches_all_pairs(self, name, net, min_index_gap):
        want = min_pair_gap_all_pairs(net, min_index_gap)
        assert _min_pair_gap(net, min_index_gap) == want
        bvh = EdgeBvh(net)
        for cutoff in (want, 2 * want, 10 * want, net.total_length()):
            assert _min_pair_gap(net, min_index_gap, cutoff, bvh) == want
        # below the true minimum the result only has to stay above cutoff
        for cutoff in (0.0, 0.5 * want, 0.99 * want):
            assert _min_pair_gap(net, min_index_gap, cutoff, bvh) > cutoff


class TestEnergy:
    def test_eps_zero_matches_exact(self):
        verts, edges = perturbed_polygon(48, seed=5)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net, leaf_size=1)
        exact = discrete_energy(net, P36)
        assert bh_energy(net, bvh, P36, eps=0.0) == pytest.approx(
            exact, rel=1e-12)

    def test_far_loops_lumped_accurately(self):
        net = two_loops(gap=25.0)
        bvh = EdgeBvh(net, leaf_size=4)
        exact = discrete_energy(net, P36)
        approx = bh_energy(net, bvh, P36, eps=0.25)
        assert abs(approx - exact) / exact < 1e-3

    def test_far_loops_lumped_accurately_with_far_groups(self):
        # the 12-gons above lump nothing at eps = 0.25 (each node's tangent
        # radius exceeds it); 256-gons have nodes that lump at eps = 0.05,
        # each against every edge of the other loop among others
        n = 256
        net = two_loops(gap=25.0, n=n)
        bvh = EdgeBvh(net, leaf_size=4)
        plan = bvh.plan(net, 0.05)
        assert len(plan.far_edge) > 0
        assert np.any((plan.far_edge < n)
                      != (bvh.order[bvh.start[plan.far_node]] < n))
        exact = discrete_energy(net, P36)
        approx = bh_energy(net, bvh, P36, eps=0.05)
        assert abs(approx - exact) / exact < 1e-3

    def test_no_far_group_lumps_an_edge_with_itself_or_a_neighbor(self):
        # past eps = 1/2 the eps test alone lumps some edges against a node
        # holding them or a neighbor; the separation term must keep them out
        net = generate_test_curve("random-trefoil", 128, seed=8)
        bvh = EdgeBvh(net)
        plan = bvh.plan(net, 0.8)
        assert len(plan.far_edge) > 0
        for edge, node in zip(plan.far_edge, plan.far_node):
            held = bvh.order[bvh.start[node]:bvh.end[node]]
            assert edge not in held
            assert not np.any(edges_share_vertex(net.edges[[edge]],
                                                 net.edges[held]))

    def test_perturbed_256gon_error_bound(self):
        verts, edges = perturbed_polygon(256, seed=6)
        self.check_error_bound(CurveNetwork(verts, edges))

    def test_error_bound_with_lumped_nodes(self):
        assert self.check_error_bound(smooth_circle()) > 0

    @staticmethod
    def check_error_bound(net):
        bvh = EdgeBvh(net)
        exact = discrete_energy(net, P36)
        approx = bh_energy(net, bvh, P36, eps=0.1)
        assert abs(approx - exact) / exact <= 1e-2
        return lumped_nodes(net, bvh, 0.1)

    def test_monotone_accuracy_in_eps(self):
        verts, edges = perturbed_polygon(96, seed=7)
        self.check_monotone_accuracy(CurveNetwork(verts, edges))

    def test_monotone_accuracy_in_eps_with_lumped_nodes(self):
        assert self.check_monotone_accuracy(smooth_circle()) > 0

    @staticmethod
    def check_monotone_accuracy(net):
        bvh = EdgeBvh(net)
        exact = discrete_energy(net, P36)
        errors = [abs(bh_energy(net, bvh, P36, eps=e) - exact)
                  for e in (0.4, 0.2, 0.1, 0.05)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-14
        return lumped_nodes(net, bvh, 0.4)


class TestDifferential:
    def test_eps_zero_matches_exact(self):
        verts, edges = perturbed_polygon(48, seed=8)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net, leaf_size=1)
        _, exact = discrete_differential(net, P36)
        _, approx = bh_differential(net, bvh, P36, eps=0.0)
        assert np.allclose(approx, exact, rtol=1e-12,
                           atol=1e-12 * np.abs(exact).max())

    def test_translation_residual_small_at_tenth(self):
        verts, edges = perturbed_polygon(128, seed=9)
        self.check_translation_residual(CurveNetwork(verts, edges))

    def test_translation_residual_small_with_lumped_nodes(self):
        assert self.check_translation_residual(smooth_circle()) > 0

    @staticmethod
    def check_translation_residual(net):
        bvh = EdgeBvh(net)
        _, g = bh_differential(net, bvh, P36, eps=0.1)
        drift = np.linalg.norm(g.sum(axis=0))
        assert drift < 1e-2 * np.linalg.norm(g)
        return lumped_nodes(net, bvh, 0.1)

    def test_direction_cosine_at_tenth(self):
        verts, edges = perturbed_polygon(256, seed=10)
        self.check_direction_cosine(CurveNetwork(verts, edges))

    def test_direction_cosine_with_lumped_nodes(self):
        assert self.check_direction_cosine(smooth_circle()) > 0

    @staticmethod
    def check_direction_cosine(net):
        bvh = EdgeBvh(net)
        exact = discrete_differential(net, P36)[1].reshape(-1)
        approx = bh_differential(net, bvh, P36, eps=0.1)[1].reshape(-1)
        cosine = approx @ exact / (np.linalg.norm(approx)
                                   * np.linalg.norm(exact))
        assert cosine >= 0.99
        return lumped_nodes(net, bvh, 0.1)
