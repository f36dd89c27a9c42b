import csv

import numpy as np
import pytest

from knotflow.constraints import Barycenter, ConstraintSet, EdgeLengths, TotalLength
from knotflow.energy import discrete_differential, discrete_energy, validate_params
from knotflow.flow import (FlowConfig, Objective, StepSolver, StuckFlow,
                           baseline_metric_matrix, collision_step_limit,
                           crossings_during_motion, descent_direction,
                           line_search, mass_norm, minimal_projected_crossings,
                           projected_crossing_count, run_flow)
from knotflow.multigrid import MgConfig
from knotflow.network import build_network
from knotflow.scenes import export_frames

from oracles import perturbed_polygon, regular_polygon

P36 = validate_params(3, 6)


def smooth_perturbed_circle(n, seed, amplitude=0.05, modes=6):
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * np.arange(n) / n
    r = np.ones(n)
    z = np.zeros(n)
    for k in range(1, modes + 1):
        ar, br, az, bz = rng.uniform(-1, 1, 4)
        r += amplitude / k * (ar * np.cos(k * theta) + br * np.sin(k * theta))
        z += amplitude / k * (az * np.cos(k * theta) + bz * np.sin(k * theta))
    verts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return build_network(verts, edges)


class TestDescentDirection:
    def test_zero_differential_zero_direction(self):
        net = smooth_perturbed_circle(16, seed=0)
        cs = ConstraintSet([Barycenter()])
        for strategy in ("hs", "l2", "h1", "h2"):
            d = descent_direction(strategy, net, P36, cs,
                                  np.zeros((net.n_vertices, 3)))
            assert np.allclose(d, 0.0)

    def test_dense_vs_multigrid_direction_cosine(self):
        net = smooth_perturbed_circle(128, seed=1)
        cs = ConstraintSet([Barycenter()])
        dE = discrete_differential(net, P36)
        d_dense = descent_direction("hs", net, P36, cs, dE).reshape(-1)
        d_mg = descent_direction("hs-mg", net, P36, cs, dE).reshape(-1)
        cosine = d_dense @ d_mg / (np.linalg.norm(d_dense)
                                   * np.linalg.norm(d_mg))
        assert cosine >= 0.99

    def test_all_strategies_give_descent(self):
        net = smooth_perturbed_circle(32, seed=2)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        dE = discrete_differential(net, P36)
        for strategy in ("hs", "l2", "h1", "h2"):
            d = descent_direction(strategy, net, P36, cs, dE)
            assert float(np.sum(dE * d)) > 0.0

    def test_missing_constraint_rejected(self):
        net = smooth_perturbed_circle(16, seed=3)
        with pytest.raises(ValueError, match="translation-fixing"):
            descent_direction("hs", net, P36, ConstraintSet(),
                              np.zeros((net.n_vertices, 3)))

    def test_baseline_metrics_are_spd_on_constraint_space(self):
        net = smooth_perturbed_circle(12, seed=4)
        for strategy in ("l2", "h1", "h2"):
            A = baseline_metric_matrix(net, strategy)
            assert np.allclose(A, A.T, atol=1e-10 * np.abs(A).max())
            eigvals = np.linalg.eigvalsh(A)
            assert eigvals.min() > 0  # mass terms make these PD outright


class TestCollisionStepLimit:
    def test_parallel_segments_contact_time(self):
        # two parallel unit segments, gap 1, closing speed 1
        verts = np.array([[0., 0., 0.], [1., 0., 0.],
                          [0., 1., 0.], [1., 1., 0.]])
        net = build_network(verts, [[0, 1], [2, 3]])
        direction = np.array([[0., -0.5, 0.], [0., -0.5, 0.],
                              [0., 0.5, 0.], [0., 0.5, 0.]])
        tau = collision_step_limit(net, direction, cap=10.0)
        assert tau == pytest.approx(1.0, rel=1e-6)

    def test_rigid_translation_never_collides(self):
        net = smooth_perturbed_circle(24, seed=5)
        direction = np.broadcast_to([0.3, -0.2, 0.1],
                                    (net.n_vertices, 3)).copy()
        assert collision_step_limit(net, direction, cap=50.0) == 50.0

    def test_zero_direction_returns_cap(self):
        net = smooth_perturbed_circle(16, seed=6)
        assert collision_step_limit(
            net, np.zeros((net.n_vertices, 3)), cap=7.0) == 7.0

    def test_crossing_audit_counts_events(self):
        verts = np.array([[0., 0., 0.], [1., 0., 0.],
                          [0., 1., -0.5], [1., 1., -0.5]])
        net = build_network(verts, [[0, 1], [2, 3]])
        start = verts.copy()
        end = verts.copy()
        end[2:, 1] -= 2.0   # second segment sweeps straight through the first
        end[2:, 2] += 1.0
        assert crossings_during_motion(net, start, end) >= 1
        assert crossings_during_motion(net, start, start + 0.01) == 0


class TestLineSearch:
    def test_accepts_and_decreases_energy(self):
        net = smooth_perturbed_circle(32, seed=7)
        cs = ConstraintSet([Barycenter()])
        config = FlowConfig()
        objective = Objective(P36)
        f0, dE = objective.energy_and_differential(net)
        solver = StepSolver("hs", net, P36, cs, config)
        g = solver.direction(dE)
        slope = float(np.sum(dE * g))
        tau, new_net, f_new, _, _ = line_search(net, g, objective, solver,
                                                f0, slope, config)
        assert f_new < f0
        assert tau > 0

    def test_collision_mode_respects_tau_max(self):
        # near-contact configuration: two strands close together
        verts = np.array([[0., 0., 0.], [1., 0., 0.],
                          [0., 0.05, 0.], [1., 0.05, 0.],
                          [0., 2., 0.], [1., 2., 0.]])
        net = build_network(verts, [[0, 1], [2, 3], [4, 5]])
        direction = np.zeros((6, 3))
        direction[2:4, 1] = -10.0   # pushes strand 2 hard into strand 1
        tau_max = collision_step_limit(net, -direction, cap=1e3)
        assert tau_max < 1.0

    def test_underflow_raises_stuck(self):
        net = smooth_perturbed_circle(16, seed=8)
        objective = Objective(P36)
        f0, dE = objective.energy_and_differential(net)
        config = FlowConfig(tau_floor=1e-3)
        ascent = -discrete_differential(net, P36)  # ascent direction
        with pytest.raises(StuckFlow):
            line_search(net, ascent, objective, None, f0,
                        float(np.sum(dE * ascent)), config)


class TestRunFlow:
    def test_already_converged_zero_iterations(self):
        net = smooth_perturbed_circle(24, seed=9)
        cs = ConstraintSet([Barycenter()])
        config = FlowConfig(stop_tolerance=1e9, max_iters=5)
        result = run_flow(net, P36, cs, strategy="hs", config=config)
        assert result.stop_reason == "converged"
        assert len(result.reports) == 0

    def test_perturbed_circle_rounds_out(self):
        # planar radial noise; the full-scale version lives in the acceptance
        # suite, this one just confirms the flow heads to a round circle
        rng = np.random.default_rng(10)
        n = 48
        theta = 2 * np.pi * np.arange(n) / n
        r = 1.0 + 0.05 * rng.uniform(-1, 1, n)
        verts = np.stack([r * np.cos(theta), r * np.sin(theta),
                          np.zeros(n)], axis=1)
        edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        net = build_network(verts, edges)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        config = FlowConfig(max_iters=150, stop_tolerance=1e-4)
        result = run_flow(net, P36, cs, strategy="hs", config=config)
        radii = np.linalg.norm(result.net.vertices[:, :2], axis=1)
        rel_dev = np.abs(radii - radii.mean()).max() / radii.mean()
        assert rel_dev < 5e-3
        assert np.all(np.diff(result.energies) <= 1e-12)

    def test_monotone_energy_and_constraints(self):
        net = smooth_perturbed_circle(32, seed=11)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        config = FlowConfig(max_iters=40)
        result = run_flow(net, P36, cs, strategy="hs", config=config)
        for report in result.reports:
            assert report.constraint_residual <= 1e-8
            assert report.mg_cycles == report.mg_unconverged == 0
        assert np.all(np.diff(result.energies) <= 1e-12)

    def test_collision_mode_no_crossings(self):
        net = smooth_perturbed_circle(32, seed=12)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        config = FlowConfig(mode="collision", max_iters=30)
        result = run_flow(net, P36, cs, strategy="hs", config=config)
        events = 0
        for a, b in zip(result.frames, result.frames[1:]):
            events += crossings_during_motion(net, a, b)
        assert events == 0

    def test_bh_accel_flow_runs(self):
        # Barnes-Hut energies are tree-dependent, so recorded energies are
        # monotone only up to the approximation error between rebuilds
        net = smooth_perturbed_circle(48, seed=13)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        config = FlowConfig(accel="bh", max_iters=15)
        result = run_flow(net, P36, cs, strategy="hs", config=config)
        assert len(result.reports) > 0
        energies = result.energies
        assert energies[-1] < energies[0]
        assert np.all(np.diff(energies) <= 2e-2 * energies[0])

    def test_unconverged_vcycles_reported(self, tmp_path):
        net = smooth_perturbed_circle(64, seed=14)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        config = FlowConfig(max_iters=2, mg=MgConfig(max_vcycles=1))
        result = run_flow(net, P36, cs, strategy="hs-mg", config=config)
        assert len(result.reports) > 0
        assert all(r.mg_cycles > 0 for r in result.reports)
        assert sum(r.mg_unconverged for r in result.reports) > 0
        export_frames(result, net.edges, tmp_path)
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["mg_unconverged"]) for row in rows] \
            == [r.mg_unconverged for r in result.reports]

    def test_multigrid_metric_shares_objective_tree(self):
        net = smooth_perturbed_circle(128, seed=16)
        cs = ConstraintSet([Barycenter()])
        objective = Objective(P36, accel="bh")
        objective.energy_and_differential(net, rebuild=True)
        solver = StepSolver("hs-mg", net, P36, cs, FlowConfig(accel="bh"),
                            bvh=objective.bvh)
        assert solver.hierarchy.levels[0].metric.bvh is objective.bvh


class TestCrossingCounts:
    def test_circle_has_no_crossings(self):
        verts, edges = regular_polygon(32)
        net = build_network(verts, edges)
        assert projected_crossing_count(net) == 0

    def test_trefoil_minimal_crossing_number(self):
        n = 96
        t = 2 * np.pi * np.arange(n) / n
        verts = np.stack([np.sin(t) + 2 * np.sin(2 * t),
                          np.cos(t) - 2 * np.cos(2 * t),
                          -np.sin(3 * t)], axis=1)
        edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        net = build_network(verts, edges)
        assert minimal_projected_crossings(net, samples=40) == 3
