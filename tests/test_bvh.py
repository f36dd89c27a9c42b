import numpy as np
import pytest

from knotflow.bvh import EdgeBvh, bh_differential, bh_energy
from knotflow.energy import (discrete_differential, discrete_energy,
                             validate_params)
from knotflow.network import CurveNetwork

from oracles import perturbed_polygon, regular_polygon

P36 = validate_params(3, 6)


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

    def test_perturbed_256gon_error_bound(self):
        verts, edges = perturbed_polygon(256, seed=6)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        exact = discrete_energy(net, P36)
        approx = bh_energy(net, bvh, P36, eps=0.1)
        assert abs(approx - exact) / exact <= 1e-2

    def test_monotone_accuracy_in_eps(self):
        verts, edges = perturbed_polygon(96, seed=7)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        exact = discrete_energy(net, P36)
        errors = [abs(bh_energy(net, bvh, P36, eps=e) - exact)
                  for e in (0.4, 0.2, 0.1, 0.05)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-14


class TestDifferential:
    def test_eps_zero_matches_exact(self):
        verts, edges = perturbed_polygon(48, seed=8)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net, leaf_size=1)
        exact = discrete_differential(net, P36)
        approx = bh_differential(net, bvh, P36, eps=0.0)
        assert np.allclose(approx, exact, rtol=1e-12,
                           atol=1e-12 * np.abs(exact).max())

    def test_translation_residual_small_at_tenth(self):
        verts, edges = perturbed_polygon(128, seed=9)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        g = bh_differential(net, bvh, P36, eps=0.1)
        drift = np.linalg.norm(g.sum(axis=0))
        assert drift < 1e-2 * np.linalg.norm(g)

    def test_direction_cosine_at_tenth(self):
        verts, edges = perturbed_polygon(256, seed=10)
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        exact = discrete_differential(net, P36).reshape(-1)
        approx = bh_differential(net, bvh, P36, eps=0.1).reshape(-1)
        cosine = approx @ exact / (np.linalg.norm(approx)
                                   * np.linalg.norm(exact))
        assert cosine >= 0.99
