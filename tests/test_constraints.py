import numpy as np
import pytest

from knotflow.constraints import (PROJECTION_TOL, Barycenter, ConstraintSet,
                                  EdgeLengths, PointConstraint,
                                  ProjectionFailure,
                                  RankDeficientConstraintsError,
                                  SphereSurface, SurfaceConstraint,
                                  TangentConstraint, TotalLength,
                                  project_onto_constraints)
from knotflow.energy import validate_params
from knotflow.flow import (COLLISION_HORIZON, Objective, StepSolver,
                           collision_step_limit)
from knotflow.metric import MetricOperator, SaddleFactor
from knotflow.network import CurveNetwork, stack_fields
from knotflow.scenes import generate_test_curve

from oracles import (loop_jacobian, perturbed_polygon, project_full_budget,
                     regular_polygon, theta_and_loop)

CENTERED_SQUARE = CurveNetwork(
    [[-0.5, -0.5, 0.], [0.5, -0.5, 0.], [0.5, 0.5, 0.], [-0.5, 0.5, 0.]],
    [[0, 1], [1, 2], [2, 3], [3, 0]])


def fd_jacobian(constraints, net, h=1e-6):
    """Central-difference Jacobian of the stacked residual, (k x 3V) stacked."""
    base = net.vertices
    k = constraints.k
    J = np.zeros((k, 3 * net.n_vertices))
    for v in range(net.n_vertices):
        for d in range(3):
            p = base.copy()
            m = base.copy()
            p[v, d] += h
            m[v, d] -= h
            fp = constraints.evaluate(net.with_positions(p))
            fm = constraints.evaluate(net.with_positions(m))
            J[:, v + d * net.n_vertices] = (fp - fm) / (2 * h)
    return J


# the workload curves, an open braid and a network with junctures
JACOBIAN_SCENES = {
    "random-trefoil-128": lambda: generate_test_curve("random-trefoil", 128,
                                                      seed=8),
    "random-trefoil-384": lambda: generate_test_curve("random-trefoil", 384,
                                                      seed=8),
    "perturbed-circle-256": lambda: generate_test_curve("perturbed-circle",
                                                        256, seed=5),
    "perturbed-circle-4096": lambda: generate_test_curve("perturbed-circle",
                                                         4096, seed=5),
    "grid-braid-60": lambda: generate_test_curve("grid-braid", 60),
    "theta-and-loop": lambda: CurveNetwork(*theta_and_loop()),
}


def random_net(n=10, seed=0):
    verts, edges = perturbed_polygon(n, seed=seed)
    return CurveNetwork(verts, edges)


class TestEvaluate:
    def test_centered_square_barycenter(self):
        phi = ConstraintSet([Barycenter()]).evaluate(CENTERED_SQUARE)
        assert np.allclose(phi, 0.0, atol=1e-14)

    def test_total_length_satisfied(self):
        phi = ConstraintSet([TotalLength(4.0)]).evaluate(CENTERED_SQUARE)
        assert phi[0] == pytest.approx(0.0, abs=1e-14)

    def test_tangent_already_matching(self):
        T = CENTERED_SQUARE.geometry().tangents[1]
        phi = ConstraintSet([TangentConstraint(1, T)]).evaluate(CENTERED_SQUARE)
        assert np.allclose(phi, 0.0, atol=1e-14)

    @pytest.mark.parametrize("target", [[0.0, 0.0, 2.0], [np.nan, 0.0, 1.0],
                                        [0.0, 0.0, 0.0]],
                             ids=["long", "nan", "zero"])
    def test_tangent_target_must_be_unit(self, target):
        with pytest.raises(ValueError, match="must be a unit vector"):
            TangentConstraint(1, target)

    def test_stacking_order_and_count(self):
        cs = ConstraintSet([Barycenter(), TotalLength(4.0),
                            PointConstraint(0, [0, 0, 0])])
        assert cs.k == 7
        phi = cs.evaluate(CENTERED_SQUARE)
        assert phi.shape == (7,)
        assert np.allclose(phi[4:7], CENTERED_SQUARE.vertices[0])


class TestJacobians:
    def test_point_rows_are_identity(self):
        net = random_net()
        C = ConstraintSet([PointConstraint(3, [1, 2, 3])]).jacobian(net).toarray()
        V = net.n_vertices
        for d in range(3):
            expected = np.zeros(3 * V)
            expected[3 + d * V] = 1.0
            assert np.array_equal(C[d], expected)

    def test_surface_row_on_unit_sphere(self):
        net = random_net()
        v = net.vertices[2] / np.linalg.norm(net.vertices[2])
        pos = net.vertices.copy()
        pos[2] = v
        net = net.with_positions(pos)
        C = ConstraintSet([SurfaceConstraint(2, SphereSurface())]) \
            .jacobian(net).toarray()
        V = net.n_vertices
        row = np.array([C[0, 2 + d * V] for d in range(3)])
        assert np.allclose(row, 2.0 * v, atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda net: Barycenter([0.1, -0.2, 0.3]),
        lambda net: TotalLength(5.0),
        lambda net: EdgeLengths.from_network(net),
        lambda net: PointConstraint(1, [0.3, 0.4, 0.5]),
        lambda net: SurfaceConstraint(4, SphereSurface(radius=1.5)),
        lambda net: TangentConstraint(2, [0.0, 0.0, 1.0]),
    ])
    def test_matches_finite_differences(self, make):
        net = random_net(n=8, seed=3)
        cs = ConstraintSet([make(net)])
        C = cs.jacobian(net).toarray()
        fd = fd_jacobian(cs, net)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(C - fd).max() < 1e-6 * scale

    @pytest.mark.parametrize("name", list(JACOBIAN_SCENES))
    def test_edge_constraints_match_loop_oracle(self, name):
        # the per-component loops each edge constraint had before it took
        # its derivatives from `edge_chain`: the same CSR arrays
        net = JACOBIAN_SCENES[name]()
        E, T = net.n_edges, net.geometry().tangents
        cs = ConstraintSet(
            [Barycenter.from_network(net), Barycenter([0.1, -0.2, 0.3]),
             TotalLength(1.0), EdgeLengths.from_network(net),
             PointConstraint(1, [0.3, 0.4, 0.5])]
            + [TangentConstraint(e, T[e]) for e in (0, E // 3, E - 1)])
        got, want = cs.jacobian(net), loop_jacobian(cs, net)
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))

    def test_edge_length_row_signs(self):
        net = random_net(n=6, seed=4)
        cs = ConstraintSet([EdgeLengths.from_network(net)])
        C = cs.jacobian(net).toarray()
        geom = net.geometry()
        V = net.n_vertices
        i1, i2 = net.edges[0]
        row0 = np.array([[C[0, i1 + d * V] for d in range(3)],
                         [C[0, i2 + d * V] for d in range(3)]])
        assert np.allclose(row0[0], geom.tangents[0], atol=1e-12)
        assert np.allclose(row0[1], -geom.tangents[0], atol=1e-12)

    def test_rank_deficiency_reported_with_names(self):
        net = random_net(n=8, seed=5)
        cs = ConstraintSet([PointConstraint(0, [0, 0, 0]),
                            PointConstraint(0, [0, 0, 0])])
        with pytest.raises(RankDeficientConstraintsError, match="point v0"):
            cs.check_rank(cs.jacobian(net))


def dense_correction(net, params, constraints):
    """`SaddleFactor.solve_projection_step` under the dense hs metric."""
    metric = MetricOperator(net, params)
    C = constraints.jacobian(net)
    return SaddleFactor(metric.A, C, net.dual_masses()).solve_projection_step


def project_gradient(net, params, constraints, differential):
    """Gradient projected onto the constraint tangent space, (V, 3)."""
    solver = StepSolver("hs", net, params, constraints)
    return solver.direction(differential)


class TestProjectGradient:
    def test_zero_differential(self):
        net = random_net(n=8, seed=6)
        p = validate_params(3, 6)
        g = project_gradient(net, p, ConstraintSet([Barycenter()]),
                             np.zeros((net.n_vertices, 3)))
        assert np.allclose(g, 0.0)

    def test_fully_pinned_network_gives_zero(self):
        net = random_net(n=6, seed=7)
        p = validate_params(3, 6)
        cs = ConstraintSet([PointConstraint(i, net.vertices[i])
                            for i in range(net.n_vertices)])
        rng = np.random.default_rng(8)
        g = project_gradient(net, p, cs, rng.normal(size=(net.n_vertices, 3)))
        assert np.allclose(g, 0.0, atol=1e-10)

    def test_octagon_total_length_residuals(self):
        # a regular octagon would give g = 0 exactly (the radial differential
        # lies entirely in the constrained scaling direction); perturb it
        from knotflow.energy import discrete_differential

        verts, edges = perturbed_polygon(8, seed=21)
        net = CurveNetwork(verts, edges)
        p = validate_params(3, 6)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        C = cs.jacobian(net)
        _, dE = discrete_differential(net, p)
        g = project_gradient(net, p, cs, dE)
        gs = stack_fields(g)
        assert np.linalg.norm(C @ gs) < 1e-8 * max(np.linalg.norm(gs), 1e-30)
        # full saddle residual against the dense solve
        metric = MetricOperator(net, p)
        res = metric.apply_stacked(gs) - stack_fields(dE)
        # residual must lie in the row space of C (A g + C^T lambda = dE)
        Cd = C.toarray()
        coeffs, *_ = np.linalg.lstsq(Cd.T, res, rcond=None)
        assert np.linalg.norm(Cd.T @ coeffs - res) < 1e-10 * np.linalg.norm(
            stack_fields(dE))

    def test_descent_direction_property(self):
        from knotflow.energy import discrete_differential

        net = random_net(n=12, seed=9)
        p = validate_params(3, 6)
        cs = ConstraintSet([Barycenter(), TotalLength(net.total_length())])
        _, dE = discrete_differential(net, p)
        g = project_gradient(net, p, cs, dE)
        assert float(np.sum(dE * g)) > 0.0


class TestProjectOntoConstraints:
    def test_feasible_input_zero_iterations(self):
        net = random_net(n=8, seed=10)
        p = validate_params(3, 6)
        cs = ConstraintSet([EdgeLengths.from_network(net)])
        correction = dense_correction(net, p, cs)
        out, iters = project_onto_constraints(correction, cs, net)
        assert iters == 0
        assert out is net

    def test_stretched_square_restored(self):
        p = validate_params(3, 6)
        cs = ConstraintSet([EdgeLengths(np.ones(4))])
        stretched = CENTERED_SQUARE.with_positions(
            CENTERED_SQUARE.vertices * 1.01)
        correction = dense_correction(stretched, p, cs)
        out, iters = project_onto_constraints(correction, cs, stretched)
        assert iters <= 3
        assert np.linalg.norm(cs.evaluate(out), np.inf) <= 1e-8

    def test_vertex_returned_to_sphere(self):
        verts, edges = regular_polygon(8)
        net = CurveNetwork(verts, edges)
        p = validate_params(3, 6)
        cs = ConstraintSet([SurfaceConstraint(0, SphereSurface())])
        pos = net.vertices.copy()
        pos[0] *= 1.05  # pull vertex 0 off the unit sphere by 0.05
        off = net.with_positions(pos)
        correction = dense_correction(off, p, cs)
        out, iters = project_onto_constraints(correction, cs, off)
        assert abs(SphereSurface().value(out.vertices[0])) <= 1e-8
        assert iters >= 1

    def test_fixed_point_on_constraint_set(self):
        net = random_net(n=8, seed=11)
        p = validate_params(3, 6)
        cs = ConstraintSet([TotalLength(net.total_length())])
        correction = dense_correction(net, p, cs)
        out, iters = project_onto_constraints(correction, cs, net)
        assert iters == 0 and out is net

    def test_projection_failure_reported(self):
        net = random_net(n=8, seed=12)
        p = validate_params(3, 6)
        # infeasible from far away: demand a total length 100x shorter with
        # a tiny iteration budget
        cs = ConstraintSet([EdgeLengths(net.geometry().lengths * 0.01)])
        correction = dense_correction(net, p, cs)
        with pytest.raises(ProjectionFailure):
            project_onto_constraints(correction, cs, net, max_iters=1)


def trefoil_trials(n, strategy, accel, count=4):
    """The first `count` line-search candidates of the first step on the
    `random-trefoil` scene of the benchmark's trefoil workloads (collision
    stepping, barycenter and edge lengths), and a maker of fresh solvers
    for them: a multigrid hierarchy keeps the residuals it has solved."""
    net = generate_test_curve("random-trefoil", n, seed=8)
    P = validate_params(3, 6)
    cs = ConstraintSet([Barycenter.from_network(net),
                        EdgeLengths.from_network(net)])
    objective = Objective(P, accel=accel)
    _, dE = objective.energy_and_differential(net)

    def solver():
        return StepSolver(strategy, net, P, cs, bvh=objective.bvh)

    g = solver().direction(dE)
    tau = min(2.0 / 3.0 * collision_step_limit(net, g, COLLISION_HORIZON), 1.0)
    trials = [net.with_positions(net.vertices - tau * 0.5 ** j * g)
              for j in range(count)]
    return trials, cs, solver


def scripted_projection(project, norms, max_iters=10):
    """Run `project` on a one-row residual that reads norms[i] after i
    corrections (each correction moves vertex 0 one unit along x)."""
    net = CurveNetwork([[0., 0., 0.], [0., 1., 0.], [0., 0., 1.]],
                       [[0, 1], [1, 2]])
    step = np.zeros(3 * net.n_vertices)
    step[0] = 1.0

    class Scripted:
        def evaluate(self, current):
            return np.array([norms[round(current.vertices[0, 0])]])

    return project(lambda phi: step, Scripted(), net, max_iters=max_iters)


class TestProjectionEarlyStop:
    @pytest.mark.parametrize("n, strategy, accel", [(128, "hs-mg", "bh"),
                                                    (384, "hs", "exact")])
    def test_real_trials_decided_as_full_budget(self, n, strategy, accel):
        trials, cs, solver = trefoil_trials(n, strategy, accel)
        accepted = []
        for trial in trials:
            outcomes = []
            for project in (project_onto_constraints, project_full_budget):
                try:
                    outcomes.append(project(
                        solver().saddle.solve_projection_step, cs, trial))
                except ProjectionFailure as exc:
                    outcomes.append(exc)
            early, full = outcomes
            if isinstance(full, ProjectionFailure):
                assert isinstance(early, ProjectionFailure)
                assert early.iterations <= full.iterations
                assert early.predicted > PROJECTION_TOL
            else:
                assert early[1] == full[1]
                assert np.array_equal(early[0].vertices, full[0].vertices)
            accepted.append(not isinstance(full, ProjectionFailure))
        # both kinds of trial occur on these scenes
        assert True in accepted and False in accepted

    def test_rate_reaching_tolerance_at_budget_runs_to_it(self):
        # |Phi| halves exactly and meets the tolerance at the 10th correction
        norms = [PROJECTION_TOL * 2.0 ** (10 - i) for i in range(11)]
        _, iters = scripted_projection(project_onto_constraints, norms)
        assert iters == 10

    def test_first_ratio_transient_not_stopped(self):
        # a first contraction of 0.41, then a steady 0.19: the 0.41 alone
        # predicts failure after correction 1, the later rate reaches the
        # tolerance at correction 10
        norms = [0.05 * (0.41 * 0.19 ** (i - 1) if i else 1.0)
                 for i in range(11)]
        assert norms[9] > PROJECTION_TOL >= norms[10]
        _, iters = scripted_projection(project_onto_constraints, norms)
        assert iters == 10

    def test_smallest_ratio_kept(self):
        # one slow correction after fast ones does not stop the loop; the
        # latest ratio, 0.5, would predict 2.2e-6 after correction 5
        ratios = [0.41, 0.15, 0.15, 0.15, 0.5, 0.15, 0.15, 0.15, 0.15, 0.15]
        norms = [0.1 * np.prod(ratios[:i]) for i in range(11)]
        assert norms[9] > PROJECTION_TOL >= norms[10]
        _, iters = scripted_projection(project_onto_constraints, norms)
        assert iters == 10

    @pytest.mark.parametrize("ratio", [0.51, 1.0, 2.0])
    def test_slow_or_growing_residual_stops_at_correction_2(self, ratio):
        norms = [PROJECTION_TOL * 2.0 ** 10 * ratio ** i for i in range(11)]
        with pytest.raises(ProjectionFailure, match="stalled") as info:
            scripted_projection(project_onto_constraints, norms)
        assert info.value.iterations == 2
        assert info.value.residual == norms[2]
        assert info.value.predicted == pytest.approx(norms[2] * ratio ** 8)
        assert "after 2 of 10 iterations" in str(info.value)
        with pytest.raises(ProjectionFailure) as full:
            scripted_projection(project_full_budget, norms)
        assert full.value.iterations == 10

    @pytest.mark.parametrize("norms", [[1.0, 0.5], [1.0, 0.0]])
    def test_single_iteration_budget_unchanged(self, norms):
        outcomes = []
        for project in (project_onto_constraints, project_full_budget):
            try:
                outcomes.append(scripted_projection(project, norms, 1)[1])
            except ProjectionFailure as exc:
                outcomes.append((exc.iterations, exc.residual))
        assert outcomes[0] == outcomes[1]


class TestSchedules:
    def test_growth_applied(self):
        cs = ConstraintSet([TotalLength(2.0, growth=1.5),
                            EdgeLengths(np.array([1.0, 2.0]), growth=0.5)])
        cs.advance_schedules()
        assert cs.specs[0].target == pytest.approx(3.0)
        assert np.allclose(cs.specs[1].targets, [0.5, 1.0])
