import csv

import numpy as np
import pytest

from knotflow.constraints import (PROJECTION_MAX_ITERS, Barycenter,
                                  ConstraintSet, EdgeLengths, PointConstraint,
                                  ProjectionFailure,
                                  RankDeficientConstraintsError, TotalLength)
from knotflow.energy import (discrete_differential, discrete_energy,
                             metric_kernel_sums, validate_params)
from knotflow.flow import (FlowConfig, FlowResult, Objective, StepReport,
                           StepSolver, StuckFlow, baseline_metric_matrix,
                           collision_step_limit, crossings_during_motion,
                           line_search, mass_norm,
                           minimal_projected_crossings,
                           projected_crossing_count, run_flow)
from knotflow.meshes import MeshSignedDistance, TriangleMesh
from knotflow.metric import SaddleFactor
from knotflow.multigrid import (TARGET_REL_RESIDUAL, MgLevel,
                                MultigridHierarchy)
from knotflow.network import CurveNetwork
from knotflow.potentials import SurfacePotential
from knotflow.scenes import export_frames, generate_test_curve

from oracles import (mixed_circle, octahedron_sphere, perturbed_polygon,
                     regular_polygon)

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
    return CurveNetwork(verts, edges)


def descent_direction(strategy, net, constraints, differential):
    """Projected descent direction of one step under `strategy`, (V, 3)."""
    solver = StepSolver(strategy, net, P36, constraints)
    return solver.direction(differential)


class TestDescentDirection:
    def test_zero_differential_zero_direction(self):
        net = smooth_perturbed_circle(16, seed=0)
        cs = ConstraintSet([Barycenter()])
        for strategy in ("hs", "l2", "h1", "h2"):
            d = descent_direction(strategy, net, cs,
                                  np.zeros((net.n_vertices, 3)))
            assert np.allclose(d, 0.0)

    def test_dense_vs_multigrid_direction_cosine(self):
        # at n = 128 the finest level is dense and hs-mg takes the hs
        # factor; at n = 512 it applies HierMetric and V-cycles answer
        cs = ConstraintSet([Barycenter()])
        for n in (128, 512):
            net = smooth_perturbed_circle(n, seed=1)
            _, dE = discrete_differential(net, P36)
            d_dense = descent_direction("hs", net, cs, dE).reshape(-1)
            solver = StepSolver("hs-mg", net, P36, cs)
            d_mg = solver.direction(dE).reshape(-1)
            cosine = d_dense @ d_mg / (np.linalg.norm(d_dense)
                                       * np.linalg.norm(d_mg))
            assert cosine >= 0.99
        assert isinstance(solver.saddle, MultigridHierarchy)
        assert solver.saddle.cycles > 0

    def test_all_strategies_give_descent(self):
        net = smooth_perturbed_circle(32, seed=2)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        _, dE = discrete_differential(net, P36)
        for strategy in ("hs", "l2", "h1", "h2"):
            d = descent_direction(strategy, net, cs, dE)
            assert float(np.sum(dE * d)) > 0.0

    def test_missing_constraint_rejected(self):
        net = smooth_perturbed_circle(16, seed=3)
        with pytest.raises(ValueError, match="translation-fixing"):
            descent_direction("hs", net, ConstraintSet(),
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
        net = CurveNetwork(verts, [[0, 1], [2, 3]])
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
        net = CurveNetwork(verts, [[0, 1], [2, 3]])
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
        solver = StepSolver("hs", net, P36, cs)
        g = solver.direction(dE)
        slope = float(np.sum(dE * g))
        tau, new_net, f_new, _, _, trials, rejected = line_search(
            net, g, objective, solver, f0, slope, config)
        assert f_new < f0
        assert tau > 0
        # only the rejected trials' corrections count as rejected
        assert 0 <= rejected <= (trials - 1) * PROJECTION_MAX_ITERS

    def test_collision_mode_respects_tau_max(self):
        # near-contact configuration: two strands close together
        verts = np.array([[0., 0., 0.], [1., 0., 0.],
                          [0., 0.05, 0.], [1., 0.05, 0.],
                          [0., 2., 0.], [1., 2., 0.]])
        net = CurveNetwork(verts, [[0, 1], [2, 3], [4, 5]])
        direction = np.zeros((6, 3))
        direction[2:4, 1] = -10.0   # pushes strand 2 hard into strand 1
        tau_max = collision_step_limit(net, -direction, cap=1e3)
        assert tau_max < 1.0

    def test_underflow_raises_stuck(self, monkeypatch):
        net = smooth_perturbed_circle(16, seed=8)
        objective = Objective(P36)
        f0, dE = objective.energy_and_differential(net)
        monkeypatch.setattr("knotflow.flow.TAU_FLOOR", 1e-3)
        config = FlowConfig()
        ascent = -discrete_differential(net, P36)[1]  # ascent direction
        with pytest.raises(StuckFlow):
            line_search(net, ascent, objective, None, f0,
                        float(np.sum(dE * ascent)), config)

    def test_trial_fault_propagates(self):
        # a shape error in a trial is a fault of the program, not a
        # rejected step, so the flow does not report it as stuck
        class BrokenOnTrials:
            weight = 1.0
            calls = 0

            def value_and_differential(self, net, params=None):
                self.calls += 1
                if self.calls > 1:        # every call after step 1's start
                    np.zeros(2) + np.zeros(3)
                return 0.0, np.zeros_like(net.vertices)

        net = smooth_perturbed_circle(16, seed=8)
        cs = ConstraintSet([Barycenter.from_network(net)])
        with pytest.raises(ValueError, match="broadcast"):
            run_flow(net, P36, cs, potentials=[BrokenOnTrials()],
                     config=FlowConfig(max_iters=2))

    def test_trial_touching_obstacle_rejected(self):
        # the first collision-mode trial, tau = 1, moves the middle edge's
        # midpoint exactly onto the centroid of the obstacle's one face
        net = CurveNetwork([[x, 0.0, 1.0] for x in (-3.0, -1.0, 1.0, 3.0)],
                           [[0, 1], [1, 2], [2, 3]])
        mesh = TriangleMesh([[0., 1., 0.], [0., -1., 1.], [0., 0., -1.]],
                            [[0, 1, 2]])
        objective = Objective(P36, [SurfacePotential(mesh, exponent=2.0)])
        f0, _ = objective.energy_and_differential(net)
        down = np.tile([0.0, 0.0, 1.0], (4, 1))
        tau, moved, _, _, _, trials, _ = line_search(
            net, down, objective, None, 10 * f0, 1.0,
            FlowConfig(mode="collision"))
        assert (tau, trials) == (0.5, 2)
        assert np.allclose(moved.vertices[:, 2], 0.5)


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
        net = CurveNetwork(verts, edges)
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
            assert report.mg_cycles == report.mg_unconverged \
                == report.mg_solves == 0
            assert report.mg_residual == 0.0
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

    def test_unconverged_vcycles_reported(self, tmp_path, monkeypatch):
        # a finest level that applies HierMetric, so the solves run V-cycles
        net = mixed_circle()
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        monkeypatch.setattr("knotflow.multigrid.MAX_VCYCLES", 1)
        config = FlowConfig(max_iters=2)
        result = run_flow(net, P36, cs, strategy="hs-mg", config=config)
        assert len(result.reports) > 0
        assert all(r.mg_cycles > 0 for r in result.reports)
        assert sum(r.mg_unconverged for r in result.reports) > 0
        assert all(r.mg_levels >= 2 for r in result.reports)
        export_frames(result, net.edges, tmp_path)
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["mg_unconverged"]) for row in rows] \
            == [r.mg_unconverged for r in result.reports]
        assert [int(row["mg_levels"]) for row in rows] \
            == [r.mg_levels for r in result.reports]

    def test_dense_finest_level_is_one_exact_level(self):
        # the n = 64 circle's finest level is dense: "hs-mg" takes the "hs"
        # saddle factor, so its steps report no multigrid work and its flow
        # is the "hs" flow on the same Barnes-Hut energies
        net = smooth_perturbed_circle(64, seed=14)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        flows = [run_flow(net, P36, cs, strategy=strategy,
                          config=FlowConfig(accel="bh", max_iters=2))
                 for strategy in ("hs-mg", "hs")]
        for result in flows:
            assert len(result.reports) == 2
            for r in result.reports:
                assert r.mg_levels == r.mg_solves == r.mg_cycles == 0
                assert r.mg_unconverged == r.mg_hier_levels == 0
        assert np.array_equal(*(result.energies for result in flows))

    def test_dense_hs_mg_step_is_the_hs_step(self, monkeypatch):
        # on a dense finest level both strategies factor the same metric:
        # equal directions and projection steps, bit for bit, and no
        # multigrid level is built
        levels = []
        init = MgLevel.__init__
        monkeypatch.setattr(MgLevel, "__init__", lambda self, *args, **kw:
                            levels.append(1) or init(self, *args, **kw))
        net = smooth_perturbed_circle(64, seed=15)
        cs = ConstraintSet([Barycenter.from_network(net),
                            TotalLength(net.total_length())])
        objective = Objective(P36, accel="bh")
        _, dE = objective.energy_and_differential(net)
        solvers = [StepSolver(strategy, net, P36, cs, bvh=objective.bvh,
                              sums=objective.sums)
                   for strategy in ("hs-mg", "hs")]
        assert all(isinstance(s.saddle, SaddleFactor) for s in solvers)
        assert levels == []
        mg, hs = solvers
        assert np.array_equal(mg.direction(dE), hs.direction(dE))
        phi = 1e-3 * np.random.default_rng(15).normal(size=cs.k)
        assert np.array_equal(mg.saddle.solve_projection_step(phi),
                              hs.saddle.solve_projection_step(phi))

    def test_multigrid_metric_shares_objective_tree(self, monkeypatch):
        # at n = 512 the finest level's near field is sparse enough for
        # HierMetric, which keeps the tree; that metric decides for the
        # hierarchy and seeds it, so the finest network gets one block
        # cluster tree and one Jacobian, and each level one tree
        import knotflow.bct as bct

        trees, jacobians = [], []
        init, jacobian = bct.BlockClusterTree.__init__, ConstraintSet.jacobian
        monkeypatch.setattr(bct.BlockClusterTree, "__init__",
                            lambda self, bvh, *args: trees.append(
                                len(bvh.order)) or init(self, bvh, *args))
        monkeypatch.setattr(ConstraintSet, "jacobian",
                            lambda self, net: jacobians.append(
                                net.n_vertices) or jacobian(self, net))
        net = smooth_perturbed_circle(512, seed=16)
        cs = ConstraintSet([Barycenter()])
        objective = Objective(P36, accel="bh")
        objective.energy_and_differential(net)
        solver = StepSolver("hs-mg", net, P36, cs, bvh=objective.bvh)
        assert solver.saddle.levels[0].metric.bvh is objective.bvh
        assert trees.count(net.n_edges) == jacobians.count(512) == 1
        assert len(trees) == len(solver.saddle.levels) >= 2

    def test_one_plan_per_step_start(self, monkeypatch):
        # one plan per tree fit: each step start builds a tree, and each
        # line-search trial refits it
        import knotflow.bvh as bvh_module

        plans = []
        make = bvh_module.bh_plan
        monkeypatch.setattr(bvh_module, "bh_plan",
                            lambda *args: plans.append(1) or make(*args))
        net = smooth_perturbed_circle(128, seed=16)
        objective = Objective(P36, accel="bh")
        for _ in range(2):
            f0, _ = objective.energy_and_differential(net)
        assert len(plans) == 2
        assert f0 == pytest.approx(objective.energy(net), rel=1e-13)
        assert len(plans) == 3
        for scale in (1.01, 1.005):
            objective.energy(net.with_positions(scale * net.vertices))
        assert len(plans) == 5

    def test_flow_around_obstacle(self):
        # a loop around a sphere, close to it: the surface potential keeps
        # every vertex outside while the energy falls
        circle = generate_test_curve("perturbed-circle", 64, seed=5)
        net = CurveNetwork(1.5 * circle.vertices + np.array([0.0, 0.0, 0.3]),
                           circle.edges)
        mesh = octahedron_sphere(subdivisions=2)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        result = run_flow(net, P36, cs, strategy="hs",
                          potentials=[SurfacePotential(mesh)],
                          config=FlowConfig(accel="exact", max_iters=3))
        assert len(result.reports) == 3
        assert np.all(np.diff(result.energies) < 0)
        sdf = MeshSignedDistance(mesh)
        assert len(result.frames) == 4
        assert min(sdf.value(x) for frame in result.frames
                   for x in frame) > 0

    def test_log_columns_and_formats(self, tmp_path):
        report = StepReport(
            iteration=2, energy=0.1, gradient_norm=1.5e-7, step_size=0.25,
            constraint_residual=0.0, projection_iters=3, ls_trials=2,
            rejected_projection_iters=1, wall_time=1 / 3,
            collision_limited=True, mg_cycles=12, mg_unconverged=0,
            mg_residual=2e-09, mg_solves=4, mg_hier_levels=1, mg_levels=2,
            bh_far=100, bh_leaf_pairs=2000)
        net = smooth_perturbed_circle(8, seed=1)
        result = FlowResult(reports=[report], net=net, stop_reason="max_iters",
                            frames=[], stop_detail="")
        export_frames(result, net.edges, tmp_path)
        assert (tmp_path / "log.csv").read_bytes() == (
            b"iteration,energy,gradient_norm,step_size,constraint_residual,"
            b"projection_iters,ls_trials,rejected_projection_iters,wall_time,"
            b"collision_limited,mg_cycles,mg_unconverged,mg_residual,"
            b"mg_solves,mg_hier_levels,mg_levels,bh_far,bh_leaf_pairs\r\n"
            b"2,0.1,1.5e-07,0.25,0.0,3,2,1,0.3333333333333333,1,12,0,2e-09,"
            b"4,1,2,100,2000\r\n")

    @pytest.mark.parametrize("strategy, accel", [("hs-mg", "bh"),
                                                 ("hs", "exact")])
    def test_plan_size_reported(self, strategy, accel, tmp_path):
        net = smooth_perturbed_circle(128, seed=17)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        result = run_flow(net, P36, cs, strategy=strategy,
                          config=FlowConfig(accel=accel, max_iters=2))
        assert len(result.reports) == 2
        for r in result.reports:
            assert (r.bh_far > 0) == (r.bh_leaf_pairs > 0) == (accel == "bh")
        export_frames(result, net.edges, tmp_path)
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(row["bh_far"]), int(row["bh_leaf_pairs"]))
                for row in rows] \
            == [(r.bh_far, r.bh_leaf_pairs) for r in result.reports]

    @pytest.mark.parametrize("n, strategy, levels", [(512, "hs-mg", 2),
                                                     (128, "hs-mg", 0),
                                                     (128, "hs", 0)])
    def test_hierarchical_levels_reported(self, n, strategy, levels,
                                          tmp_path):
        # the near fields of the n = 512 and 256 levels hold less than
        # DENSE_FILL of their edge pairs; n = 128 and below are dense
        net = smooth_perturbed_circle(n, seed=16)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        result = run_flow(net, P36, cs, strategy=strategy,
                          config=FlowConfig(accel="bh", max_iters=1))
        assert [r.mg_hier_levels for r in result.reports] == [levels]
        export_frames(result, net.edges, tmp_path)
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["mg_hier_levels"]) for row in rows] == [levels]

    def test_final_vcycle_residual_reported(self, tmp_path, monkeypatch):
        steps = []
        init, vcycle_solve = StepSolver.__init__, MultigridHierarchy.vcycle_solve

        def new_step(self, *args, **kwargs):
            steps.append([])
            init(self, *args, **kwargs)

        def recorded_solve(self, b, *args):
            y, info = vcycle_solve(self, b, *args)
            steps[-1].append(info["residuals"][-1])
            return y, info

        monkeypatch.setattr(StepSolver, "__init__", new_step)
        monkeypatch.setattr(MultigridHierarchy, "vcycle_solve", recorded_solve)
        net = mixed_circle()
        # feasible from the start, so every StepSolver belongs to one step
        cs = ConstraintSet([Barycenter.from_network(net),
                            TotalLength(net.total_length())])
        monkeypatch.setattr("knotflow.multigrid.MAX_VCYCLES", 1)
        config = FlowConfig(max_iters=2)
        result = run_flow(net, P36, cs, strategy="hs-mg", config=config)
        assert 0 < len(result.reports) <= len(steps)
        for r, finals in zip(result.reports, steps):
            assert r.mg_residual == max(finals) > 0.0
            assert r.mg_solves == len(finals)
            # an unconverged solve stopped above the residual target
            assert (r.mg_residual > TARGET_REL_RESIDUAL) \
                == (r.mg_unconverged > 0)
        export_frames(result, net.edges, tmp_path)
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["mg_residual"]) for row in rows] \
            == [r.mg_residual for r in result.reports]
        assert [int(row["mg_solves"]) for row in rows] \
            == [r.mg_solves for r in result.reports]

    def test_line_search_trials_reported(self, tmp_path, monkeypatch):
        steps = []
        init, project = StepSolver.__init__, StepSolver.project

        def new_step(self, *args, **kwargs):
            steps.append([])
            init(self, *args, **kwargs)

        def recorded_project(self, net, *args):
            try:
                out = project(self, net, *args)
            except ProjectionFailure as exc:
                steps[-1].append(exc.iterations)
                raise
            steps[-1].append(0)
            return out

        monkeypatch.setattr(StepSolver, "__init__", new_step)
        monkeypatch.setattr(StepSolver, "project", recorded_project)
        # the `trefoil-mg` benchmark scene, feasible from the start: its
        # first trials fail projection
        net = generate_test_curve("random-trefoil", 128, seed=8)
        cs = ConstraintSet([Barycenter.from_network(net),
                            EdgeLengths.from_network(net)])
        config = FlowConfig(mode="collision", accel="bh", max_iters=2)
        result = run_flow(net, P36, cs, strategy="hs-mg", config=config)
        assert len(result.reports) == len(steps) == 2
        for r, trials in zip(result.reports, steps):
            assert r.ls_trials == len(trials)
            assert r.rejected_projection_iters == sum(trials)
        failed = [it for trials in steps for it in trials if it]
        assert failed and max(failed) < PROJECTION_MAX_ITERS
        export_frames(result, net.edges, tmp_path)
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(row["ls_trials"]), int(row["rejected_projection_iters"]))
                for row in rows] \
            == [(r.ls_trials, r.rejected_projection_iters)
                for r in result.reports]

    def test_exact_energy_once_per_trial_plus_start(self, monkeypatch):
        import knotflow.flow as flow

        calls = {"energy": 0, "trials": 0, "rank": 0}
        discrete = flow.discrete_energy
        trial = Objective.energy
        check_rank = ConstraintSet.check_rank

        def counted_energy(net, params):
            calls["energy"] += 1
            return discrete(net, params)

        def counted_trial(self, net):
            calls["trials"] += 1
            return trial(self, net)

        def counted_rank(self, C):
            calls["rank"] += 1
            return check_rank(self, C)

        monkeypatch.setattr(flow, "discrete_energy", counted_energy)
        monkeypatch.setattr(Objective, "energy", counted_trial)
        monkeypatch.setattr(ConstraintSet, "check_rank", counted_rank)
        net = smooth_perturbed_circle(24, seed=20)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        result = run_flow(net, P36, cs, strategy="hs",
                          config=FlowConfig(max_iters=4))
        assert len(result.reports) == 4
        assert calls["trials"] >= 4
        # the step start takes its energy from the differential pass
        assert calls["energy"] == calls["trials"]
        # no SVD rank check: each step's factorization shows rank loss
        assert calls["rank"] == 0
        # the differential pass reads the energy of the accepted trial
        assert result.reports[-1].energy \
            == pytest.approx(discrete(result.net, P36), rel=1e-14)

    def test_dense_metric_reads_the_differential_pass(self, monkeypatch):
        # on an exact "hs" flow the vertex pass runs once per energy and once
        # per step start, which also fills the metric kernel sums, so
        # MetricOperator runs no pass of its own; other metrics never fill
        # them, and without the exact pass "hs" computes its own
        import knotflow.energy as energy
        import knotflow.flow as flow
        import knotflow.metric as metric

        calls = dict.fromkeys(("blocks", "energy", "own", "sums"), 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name, key in (
                (energy, "_vertex_blocks", "blocks"),
                (flow, "discrete_energy", "energy"),
                (metric, "metric_kernel_sums", "own"),
                (energy, "_add_kernel_sums", "sums")):
            monkeypatch.setattr(module, name,
                                counted(key, getattr(module, name)))
        net = smooth_perturbed_circle(24, seed=20)
        cs = ConstraintSet([Barycenter.from_network(net),
                            TotalLength(net.total_length())])
        result = run_flow(net, P36, cs, strategy="hs",
                          config=FlowConfig(max_iters=4))
        steps = len(result.reports)
        assert steps == 4
        assert calls["blocks"] == calls["energy"] + steps
        # one row block of 24 edges per step start, both ends in one call
        assert calls["sums"] == steps and calls["own"] == 0
        for strategy in ("l2", "h1", "h2"):
            calls.update(own=0, sums=0)
            run_flow(net, P36, cs, strategy=strategy,
                     config=FlowConfig(max_iters=2))
            assert calls["own"] == calls["sums"] == 0
        calls.update(own=0)
        result = run_flow(net, P36, cs, strategy="hs",
                          config=FlowConfig(accel="bh", max_iters=2))
        assert calls["own"] == len(result.reports) == 2

    def test_metric_sums_buffer_is_refilled_not_held(self, monkeypatch):
        # every step start refills one (2, E, V) buffer; each step's dense
        # metric reads the sums of its own network and keeps no view of it
        import knotflow.metric as metric

        seen = []
        init = metric.MetricOperator.__init__

        def spy(self, net, params, sums=None):
            init(self, net, params, sums)
            seen.append((sums, sums.copy(), self.A, net))

        monkeypatch.setattr(metric.MetricOperator, "__init__", spy)
        net = smooth_perturbed_circle(24, seed=20)
        cs = ConstraintSet([Barycenter.from_network(net),
                            TotalLength(net.total_length())])
        result = run_flow(net, P36, cs, strategy="hs",
                          config=FlowConfig(max_iters=3))
        assert len(result.reports) == len(seen) == 3
        assert all(sums is seen[0][0] for sums, *_ in seen)
        for sums, filled, A, step_net in seen:
            assert not np.shares_memory(A, sums)
            assert np.allclose(filled, metric_kernel_sums(step_net, P36.sigma),
                               rtol=1e-13, atol=0.0)

    def test_exact_collision_flow_builds_one_tree(self, monkeypatch):
        # the exact path's broad phase keeps one tree topology for the whole
        # flow and never hands it to a step as a tree fitted to its network
        import knotflow.flow as flow

        built, handed = [], []
        tree, init = flow.EdgeBvh, StepSolver.__init__

        def recorded(self, *args, bvh=None, **kwargs):
            handed.append(bvh)
            init(self, *args, bvh=bvh, **kwargs)

        monkeypatch.setattr(flow, "EdgeBvh",
                            lambda net: built.append(net) or tree(net))
        monkeypatch.setattr(StepSolver, "__init__", recorded)
        net = smooth_perturbed_circle(32, seed=12)
        cs = ConstraintSet([Barycenter.from_network(net),
                            TotalLength(net.total_length())])
        result = run_flow(net, P36, cs, strategy="hs",
                          config=FlowConfig(mode="collision", max_iters=5))
        assert len(result.reports) == 5
        assert len(built) == 1
        assert handed == [None] * 5

    def test_stop_detail_names_the_cause(self, tmp_path, monkeypatch):
        import json

        net = smooth_perturbed_circle(16, seed=22)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        with monkeypatch.context() as patch:
            patch.setattr("knotflow.flow.TAU_FLOOR", 1.0)
            stuck = run_flow(net, P36, cs)
        assert stuck.stop_reason == "stuck"
        assert "line search underflow" in stuck.stop_detail
        export_frames(stuck, net.edges, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stop_detail"] == stuck.stop_detail

        far = ConstraintSet([Barycenter(),
                             EdgeLengths(0.01 * net.geometry().lengths)])
        with monkeypatch.context() as patch:
            patch.setattr("knotflow.constraints.PROJECTION_MAX_ITERS", 1)
            stalled = run_flow(net, P36, far)
        assert stalled.stop_reason == "stuck"
        assert stalled.stop_detail.startswith("initial projection:")
        assert "stalled" in stalled.stop_detail

        done = run_flow(net, P36, cs, config=FlowConfig(max_iters=2))
        assert done.stop_reason == "max_iters"
        assert done.stop_detail == "reached max_iters = 2"


class FixedRows:
    """Constraint with fixed Jacobian rows (k x 3V) and zero residual."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.size = len(self.rows)

    def evaluate(self, net):
        return np.zeros(self.size)

    def jacobian_triplets(self, net):
        r, c = np.nonzero(self.rows)
        return r, c, self.rows[r, c]

    def describe(self):
        return "fixed rows"


class TestRankLoss:
    @pytest.mark.parametrize("strategy", ["hs", "hs-mg"])
    def test_dependent_rows_named_by_step_solver(self, strategy):
        net = smooth_perturbed_circle(64, seed=23)
        pin = net.vertices[0]
        cs = ConstraintSet([Barycenter.from_network(net),
                            PointConstraint(0, pin), PointConstraint(0, pin)])
        with pytest.raises(RankDeficientConstraintsError, match="point v0"):
            StepSolver(strategy, net, P36, cs)

    @pytest.mark.parametrize("strategy", ["hs", "hs-mg"])
    def test_weak_pivot_runs_svd_check(self, strategy, monkeypatch):
        # a row repeated up to 1e-6 is full rank for the SVD check but leaves
        # a tiny pivot in the factor, which must hand over to check_rank
        net = smooth_perturbed_circle(24, seed=24)
        rng = np.random.default_rng(25)
        row = rng.normal(size=3 * net.n_vertices)
        near = row + 1e-6 * rng.normal(size=row.size)
        cs = ConstraintSet([Barycenter.from_network(net),
                            FixedRows([row, near])])
        calls = []
        monkeypatch.setattr(ConstraintSet, "check_rank",
                            lambda self, C: calls.append(C.shape))
        StepSolver(strategy, net, P36, cs)
        assert calls == [(5, 3 * net.n_vertices)]

    def test_independent_rows_accepted(self):
        net = smooth_perturbed_circle(64, seed=23)
        cs = ConstraintSet([Barycenter.from_network(net),
                            PointConstraint(0, net.vertices[0])])
        for strategy in ("hs", "hs-mg"):
            StepSolver(strategy, net, P36, cs)


    @pytest.mark.parametrize("strategy", ["hs", "hs-mg"])
    def test_one_jacobian_per_solver(self, strategy, monkeypatch):
        # the factor assembles C (on "hs-mg" too: the finest level is
        # dense); the solver assembles it again only for a rank check
        net = smooth_perturbed_circle(64, seed=23)
        cs = ConstraintSet([Barycenter.from_network(net),
                            PointConstraint(0, net.vertices[0])])
        calls = []
        jacobian = ConstraintSet.jacobian
        monkeypatch.setattr(
            ConstraintSet, "jacobian",
            lambda self, net: calls.append(1) or jacobian(self, net))
        solver = StepSolver(strategy, net, P36, cs)
        assert isinstance(solver.saddle, SaddleFactor)
        assert len(calls) == 1

class TestCrossingCounts:
    def test_circle_has_no_crossings(self):
        verts, edges = regular_polygon(32)
        net = CurveNetwork(verts, edges)
        assert projected_crossing_count(net) == 0

    def test_trefoil_minimal_crossing_number(self):
        n = 96
        t = 2 * np.pi * np.arange(n) / n
        verts = np.stack([np.sin(t) + 2 * np.sin(2 * t),
                          np.cos(t) - 2 * np.cos(2 * t),
                          -np.sin(3 * t)], axis=1)
        edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        net = CurveNetwork(verts, edges)
        assert minimal_projected_crossings(net, samples=40) == 3
