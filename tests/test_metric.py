import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix, issparse

from knotflow.constraints import (Barycenter, ConstraintSet, EdgeLengths,
                                  PointConstraint, TotalLength)
from knotflow.energy import validate_params
from knotflow.flow import baseline_metric_matrix
from knotflow.metric import (MetricOperator, SaddleFactor, average_matrix,
                             checked_cholesky, cholesky_inverse,
                             dense_kernel_matrices, derivative_matrix,
                             metric_parts)
from knotflow.network import CurveNetwork, stack_fields, unstack_fields
from knotflow.scenes import generate_test_curve

from oracles import (brute_high_order_form, brute_low_order_form,
                     diags_metric_parts, four_congruence_parts,
                     lu_saddle_solve,
                     pair_kernel_matrices, perturbed_polygon, regular_polygon,
                     saddle_matrix, saddle_product, theta_and_loop)

SIGMA = 2.0 / 3.0
P36 = validate_params(3, 6)         # sigma = 2/3


def dense_gradient(net, p, dE, C):
    """Saddle-projected H^s gradient (V, 3) through SaddleFactor."""
    factor = SaddleFactor(MetricOperator(net, p).A, C, net.dual_masses())
    g, _ = factor.solve(stack_fields(dE), None)
    return unstack_fields(g)


def octagon_net(seed=None):
    if seed is None:
        verts, edges = regular_polygon(8)
    else:
        verts, edges = perturbed_polygon(8, seed=seed)
    return CurveNetwork(verts, edges)


def mean_fix_jacobian(n):
    """Minimal translation-fixing constraint: per-component vertex sums."""
    C = np.zeros((3, 3 * n))
    for c in range(3):
        C[c, c * n:(c + 1) * n] = 1.0
    return C


class TestDerivativeOperators:
    def test_derivative_kills_constants(self):
        net = octagon_net(seed=1)
        D = derivative_matrix(net)
        out = D @ np.full(net.n_vertices, 4.2)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_derivative_of_arclength_is_tangent(self):
        # straight 3-vertex segment; u = arc length coordinate
        verts = np.array([[0., 0., 0.], [1., 1., 0.], [2., 2., 0.]])
        net = CurveNetwork(verts, [[0, 1], [1, 2]])
        u = np.array([0.0, np.sqrt(2), 2 * np.sqrt(2)])
        out = (derivative_matrix(net) @ u).reshape(-1, 3)
        assert np.allclose(out, net.geometry().tangents, atol=1e-12)

    def test_average_matrix(self):
        net = octagon_net()
        rng = np.random.default_rng(0)
        u = rng.normal(size=net.n_vertices)
        out = average_matrix(net) @ u
        direct = 0.5 * (u[net.edges[:, 0]] + u[net.edges[:, 1]])
        assert np.allclose(out, direct)


class TestWeights:
    def test_square_opposite_edges(self):
        net = CurveNetwork(
            [[0., 0., 0.], [1., 0., 0.], [1., 1., 0.], [0., 1., 0.]],
            [[0, 1], [1, 2], [2, 3], [3, 0]])
        K, _ = dense_kernel_matrices(net, SIGMA)
        # K is the symmetrized weight w_IJ + w_JI of the ordered double sum
        expected = 0.25 * (2 * 1.0 + 2 * np.sqrt(2) ** (-(2 * SIGMA + 1)))
        assert K[0, 2] == pytest.approx(2 * expected, rel=1e-12)
        assert K[1, 3] == pytest.approx(2 * expected, rel=1e-12)

    def test_adjacent_pairs_excluded(self):
        net = octagon_net()
        K, K0 = dense_kernel_matrices(net, SIGMA)
        for I in range(net.n_edges):
            for J in range(net.n_edges):
                adjacent = bool(set(net.edges[I]) & set(net.edges[J]))
                assert (K[I, J] == 0.0) == adjacent
                assert K0[I, J] == 0.0 or not adjacent

    def test_weight_scaling(self):
        net = octagon_net(seed=2)
        scaled = CurveNetwork(3.0 * net.vertices, net.edges)
        K, _ = dense_kernel_matrices(net, SIGMA)
        Ks, _ = dense_kernel_matrices(scaled, SIGMA)
        factor = 3.0 ** 2 / 3.0 ** (2 * SIGMA + 1)
        assert np.allclose(Ks, factor * K, rtol=1e-12)

    def test_low_order_vanishes_on_collinear(self):
        verts = np.stack([np.arange(6.0), np.zeros(6), np.zeros(6)], axis=1)
        net = CurveNetwork(verts, [[i, i + 1] for i in range(5)])
        _, K0 = dense_kernel_matrices(net, SIGMA)
        assert np.allclose(K0, 0.0, atol=1e-14)


def oracle_net(shape):
    if shape == "random-trefoil-384":
        return generate_test_curve("random-trefoil", 384, seed=8)
    return CurveNetwork(*theta_and_loop())


def max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestDenseAssemblyOracles:
    """The vertex-sum kernels, the one-congruence parts and the one-product
    saddle factor against the pair-form, four-congruence and column-block
    references they replace."""

    @pytest.mark.parametrize("shape", ["random-trefoil-384",
                                       "theta-and-loop"])
    def test_kernels_and_metric_match_pair_form(self, shape):
        net = oracle_net(shape)
        K, K0 = dense_kernel_matrices(net, P36.sigma)
        want_K, want_K0 = pair_kernel_matrices(net, P36.sigma)
        # the same zero pattern: identical and adjacent pairs
        assert np.array_equal(K == 0, want_K == 0)
        assert max_rel(K, want_K) <= 1e-13
        # |T x d|^2 = r^2 - (T.d)^2 cancels on nearly collinear pairs, so
        # K0 keeps fewer correct digits of its largest entry than K
        assert max_rel(K0, want_K0) <= 1e-12
        A = MetricOperator(net, P36).A
        want = sum(four_congruence_parts(net, want_K, want_K0))
        assert max_rel(A, want) <= 1e-13

    @pytest.mark.parametrize("shape", ["random-trefoil-384",
                                       "theta-and-loop"])
    def test_one_congruence_parts_in_both_storages(self, shape):
        net = oracle_net(shape)
        K, K0 = dense_kernel_matrices(net, P36.sigma)
        want = four_congruence_parts(net, K, K0)
        for kernels in ((K, K0), (csr_matrix(K), csr_matrix(K0))):
            for got, part in zip(metric_parts(net, *kernels), want):
                got = got.toarray() if issparse(got) else got
                assert max_rel(got, part) <= 1e-13

    @pytest.mark.parametrize("shape", ["random-trefoil-384",
                                       "theta-and-loop"])
    def test_dense_parts_match_diags_form_exactly(self, shape):
        net = oracle_net(shape)
        K, K0 = dense_kernel_matrices(net, P36.sigma)
        kept = K.copy(), K0.copy()
        want = diags_metric_parts(net, K, K0)
        for got, part in zip(metric_parts(net, K, K0), want):
            assert not issparse(got) and np.array_equal(got, part)
        # the caller's kernels are left as they were
        assert all(np.array_equal(a, b) for a, b in zip((K, K0), kept))

    def test_differential_pass_fills_the_same_sums(self):
        from knotflow.energy import discrete_differential, metric_kernel_sums

        net = oracle_net("theta-and-loop")
        sums = np.zeros((2, net.n_edges, net.n_vertices))
        _, grad = discrete_differential(net, P36, sums=sums)
        assert np.array_equal(grad, discrete_differential(net, P36)[1])
        assert np.array_equal(sums, metric_kernel_sums(net, P36.sigma))
        assert np.array_equal(MetricOperator(net, P36, sums).A,
                              MetricOperator(net, P36).A)

    @pytest.mark.parametrize("shape", ["random-trefoil-384",
                                       "theta-and-loop"])
    def test_saddle_product_matches_column_blocks(self, shape):
        net = oracle_net(shape)
        cs = ConstraintSet([Barycenter.from_network(net),
                            EdgeLengths.from_network(net)])
        C = cs.jacobian(net)
        factor = SaddleFactor(MetricOperator(net, P36).A, C,
                              net.dual_masses())
        (want, lower), weak = checked_cholesky(
            C @ saddle_product(C, factor._inv).T)
        assert np.array_equal(factor._cc[0], want)
        assert factor._cc[1] == lower and factor.rank_suspect == weak


class TestGramMatrices:
    def test_high_order_kills_constants(self):
        net = octagon_net(seed=3)
        B, _ = metric_parts(net, *dense_kernel_matrices(net, P36.sigma))
        u = np.full(net.n_vertices, 1.7)
        assert abs(u @ B @ u) < 1e-12 * np.abs(B).max()

    def test_high_order_quadratic_form_oracle(self):
        net = octagon_net(seed=4)
        B, _ = metric_parts(net, *dense_kernel_matrices(net, P36.sigma))
        rng = np.random.default_rng(5)
        u = rng.normal(size=net.n_vertices)
        v = rng.normal(size=net.n_vertices)
        expected = brute_high_order_form(net.vertices, net.edges, SIGMA, u, v)
        assert u @ B @ v == pytest.approx(expected, rel=1e-12)

    def test_low_order_quadratic_form_oracle(self):
        net = octagon_net(seed=6)
        _, B0 = metric_parts(net, *dense_kernel_matrices(net, P36.sigma))
        rng = np.random.default_rng(7)
        u = rng.normal(size=net.n_vertices)
        v = rng.normal(size=net.n_vertices)
        expected = brute_low_order_form(net.vertices, net.edges, SIGMA, u, v)
        assert u @ B0 @ v == pytest.approx(expected, rel=1e-12)

    def test_low_order_kills_constants(self):
        net = octagon_net(seed=8)
        _, B0 = metric_parts(net, *dense_kernel_matrices(net, P36.sigma))
        u = np.full(net.n_vertices, -2.2)
        assert abs(u @ B0 @ u) < 1e-12 * max(np.abs(B0).max(), 1e-30)

    def test_symmetry(self):
        net = octagon_net(seed=9)
        B, B0 = metric_parts(net, *dense_kernel_matrices(net, P36.sigma))
        assert np.allclose(B, B.T, atol=1e-12 * np.abs(B).max())
        assert np.allclose(B0, B0.T, atol=1e-12 * max(np.abs(B0).max(), 1e-30))

    @pytest.mark.parametrize("shape", ["polygon-64", "theta-and-loop"])
    def test_csr_kernels_give_the_same_parts(self, shape):
        # one assembly for both storages: CSR kernels give the same (B, B0)
        # as dense ones, stored as CSR
        verts, edges = regular_polygon(64) if shape == "polygon-64" \
            else theta_and_loop()
        net = CurveNetwork(verts, edges)
        K, K0 = dense_kernel_matrices(net, P36.sigma)
        dense = metric_parts(net, K, K0)
        sparse = metric_parts(net, csr_matrix(K), csr_matrix(K0))
        for want, got in zip(dense, sparse):
            assert issparse(got)
            assert np.abs(got.toarray() - want).max() \
                <= 1e-13 * np.abs(want).max()

    def test_combined_metric_psd_with_constant_null_space(self):
        verts, edges = perturbed_polygon(16, seed=10)
        net = CurveNetwork(verts, edges)
        p = validate_params(3, 6)
        A = MetricOperator(net, p).A
        eigvals = np.linalg.eigvalsh(A)
        norm = np.abs(eigvals).max()
        assert eigvals.min() > -1e-10 * norm
        # exactly one (near) zero eigenvalue on a connected network
        assert np.sum(eigvals < 1e-10 * norm) == 1
        const = np.ones(net.n_vertices)
        assert np.linalg.norm(A @ const) < 1e-10 * norm

    def test_metric_scaling_exponent(self):
        verts, edges = perturbed_polygon(12, seed=11)
        p = validate_params(3, 6)
        A1 = MetricOperator(CurveNetwork(verts, edges), p).A
        A2 = MetricOperator(CurveNetwork(2.0 * verts, edges), p).A
        factor = 2.0 ** (-(2 * p.sigma + 1))
        assert np.allclose(A2, factor * A1, rtol=1e-10)


class TestDenseSolve:
    def test_zero_rhs_gives_zero(self):
        net = octagon_net(seed=12)
        p = validate_params(3, 6)
        g = dense_gradient(net, p, np.zeros((net.n_vertices, 3)),
                           mean_fix_jacobian(net.n_vertices))
        assert np.allclose(g, 0.0)

    def test_singular_without_constraint(self):
        net = octagon_net(seed=13)
        p = validate_params(3, 6)
        with pytest.raises(ValueError, match="translation-fixing"):
            dense_gradient(net, p, np.zeros((net.n_vertices, 3)), None)

    def test_polygon_gradient_radially_symmetric(self):
        from knotflow.energy import discrete_differential

        verts, edges = regular_polygon(12)
        net = CurveNetwork(verts, edges)
        p = validate_params(2, 4)
        _, dE = discrete_differential(net, p)
        g = dense_gradient(net, p, dE, mean_fix_jacobian(net.n_vertices))
        mags = np.linalg.norm(g, axis=1)
        assert np.allclose(mags, mags[0], rtol=1e-8)

    def test_rescaled_direction_invariance(self):
        from knotflow.energy import discrete_differential

        verts, edges = perturbed_polygon(14, seed=14)
        p = validate_params(3, 6)
        dirs = []
        for c in (1.0, 3.0):
            net = CurveNetwork(c * verts, edges)
            _, dE = discrete_differential(net, p)
            g = dense_gradient(net, p, dE,
                               mean_fix_jacobian(net.n_vertices))
            dirs.append(g.reshape(-1) / np.linalg.norm(g))
        assert np.linalg.norm(dirs[0] - dirs[1]) < 1e-8

    def test_saddle_residual(self):
        net = octagon_net(seed=15)
        p = validate_params(3, 6)
        metric = MetricOperator(net, p)
        C = mean_fix_jacobian(net.n_vertices)
        factor = SaddleFactor(metric.A, C, net.dual_masses())
        rng = np.random.default_rng(16)
        rhs = stack_fields(rng.normal(size=(net.n_vertices, 3)))
        x, lam = factor.solve(rhs, None)
        full = np.concatenate([rhs, np.zeros(len(C))])
        r = saddle_matrix(metric.A, C) @ np.concatenate([x, lam]) - full
        assert np.linalg.norm(r) < 1e-10 * np.linalg.norm(full)
        assert np.linalg.norm(C @ x) < 1e-8 * np.linalg.norm(x)


    def test_cholesky_inverse_matches_identity_solve(self):
        import scipy.linalg

        net = CurveNetwork(*perturbed_polygon(96, seed=17))
        A = MetricOperator(net, P36).A
        m = net.dual_masses()
        M = A + np.outer(m, m) * np.trace(A) / (len(m) * (m @ m))
        chol = scipy.linalg.cho_factor(M, lower=True)
        reference = scipy.linalg.cho_solve(chol, np.eye(len(M)))
        # strips of 64 rows and a remainder of 32
        inv = cholesky_inverse(chol)
        assert np.array_equal(inv, inv.T)
        assert np.abs(inv - reference).max() \
            <= 1e-12 * np.abs(reference).max()


def _constraint_case(name, net):
    if name == "barycenter+edge-lengths":
        return ConstraintSet([Barycenter.from_network(net),
                              EdgeLengths.from_network(net)])
    if name == "point":
        return ConstraintSet([PointConstraint(3, net.vertices[3])])
    return ConstraintSet([Barycenter.from_network(net),
                          TotalLength(net.total_length())])


def assert_matches_full_lu(A, C, masses):
    factor = SaddleFactor(A, C, masses)
    assert not factor.rank_suspect
    rng = np.random.default_rng(31)
    top = rng.normal(size=3 * len(A))
    bottom = rng.normal(size=C.shape[0])
    for t, b in ((top, None), (None, bottom), (top, bottom)):
        x, lam = factor.solve(t, b)
        want_x, want_lam = lu_saddle_solve(A, C.toarray(), t, b)
        assert np.linalg.norm(x - want_x) <= 1e-10 * np.linalg.norm(want_x)
        # multipliers vanish for (None, b) with a point constraint, so
        # they are compared within the whole solution vector
        got = np.concatenate([x, lam])
        want = np.concatenate([want_x, want_lam])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestSaddleFactorOracle:
    """SaddleFactor against an LU solve of the full (3V + k)^2 system."""

    @pytest.mark.parametrize("strategy,case", [
        ("hs", "barycenter+edge-lengths"),
        ("hs", "point"),
        ("l2", "barycenter+total-length"),
        ("h1", "barycenter+edge-lengths"),
        ("h2", "point"),
    ])
    def test_matches_full_lu(self, strategy, case):
        verts, edges = perturbed_polygon(24, seed=30)
        net = CurveNetwork(verts, edges)
        cs = _constraint_case(case, net)
        C = cs.jacobian(net)
        A = MetricOperator(net, P36).A if strategy == "hs" \
            else baseline_metric_matrix(net, strategy)
        assert_matches_full_lu(A, C, net.dual_masses())

    def test_small_translation_remainder(self):
        # the length weights of the barycenter couple it to the smooth modes:
        # on this near-planar curve two eigenvalues of the 3 x 3 remainder
        # are 1e-4, which magnify any rounding noise in S's U block
        net = generate_test_curve("perturbed-circle", 256, seed=5)
        cs = ConstraintSet([Barycenter.from_network(net),
                            TotalLength(net.total_length())])
        assert_matches_full_lu(MetricOperator(net, P36).A, cs.jacobian(net),
                               net.dual_masses())

    def test_dependent_rows_show_as_weak_pivot(self):
        # a row repeated up to 1e-6 leaves the constraint block positive
        # definite, with a relative pivot near 1e-12
        net = octagon_net(seed=32)
        C = mean_fix_jacobian(net.n_vertices)
        row = np.random.default_rng(33).normal(size=3 * net.n_vertices)
        near = row + 1e-6 * np.random.default_rng(34).normal(size=len(row))
        A = MetricOperator(net, P36).A
        independent = SaddleFactor(A, np.vstack([C, row]), net.dual_masses())
        assert not independent.rank_suspect
        factor = SaddleFactor(A, np.vstack([C, row, near]), net.dual_masses())
        assert factor.rank_suspect


def trefoil_saddle_inputs():
    """(A, C, masses) on random-trefoil n = 384 with barycenter + edge
    lengths, the `trefoil-dense` benchmark scene (k = V + 3)."""
    net = oracle_net("random-trefoil-384")
    cs = ConstraintSet([Barycenter.from_network(net),
                        EdgeLengths.from_network(net)])
    return MetricOperator(net, P36).A, cs.jacobian(net), net.dual_masses()


class TestSaddleFactorMemory:
    """The factor keeps A'^-1 and the Cholesky factor of its (k x k) Gram,
    O(V^2 + k^2) numbers, and no (k x 3V) array."""

    def test_holds_no_array_larger_than_its_square_blocks(self):
        A, C, masses = trefoil_saddle_inputs()
        factor = SaddleFactor(A, C, masses)
        held = [v for value in vars(factor).values()
                for v in (value if isinstance(value, tuple) else (value,))]
        sizes = [v.size for v in held if isinstance(v, np.ndarray)]
        sizes += [v.data.size for v in held if issparse(v)]
        assert max(sizes) <= max(A.shape[0], C.shape[0]) ** 2

    def test_build_peak_allocation(self):
        A, C, masses = trefoil_saddle_inputs()
        # A'^-1, the Gram and its Cholesky factor are three (V or k)^2
        # arrays; a stored C A_bar'^-1 and its transposed copy would add six
        # (9.2 MiB in all, against 3.7 MiB without them)
        bound = 5 * 8 * max(A.shape[0], C.shape[0]) ** 2
        tracemalloc.start()
        try:
            SaddleFactor(A, C, masses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("shape", ["random-trefoil-384",
                                       "theta-and-loop"])
    def test_projection_skips_the_zero_primal_block(self, shape):
        # solve(None, b) drops A'^-1 0, C 0 and 0 . m; the results are
        # those of an explicit zero top, signed zeros aside
        net = oracle_net(shape)
        cs = ConstraintSet([Barycenter.from_network(net),
                            EdgeLengths.from_network(net)])
        C = cs.jacobian(net)
        factor = SaddleFactor(MetricOperator(net, P36).A, C,
                              net.dual_masses())
        bottom = np.random.default_rng(35).normal(size=C.shape[0])
        got = factor.solve(None, bottom)
        want = factor.solve(np.zeros(3 * net.n_vertices), bottom)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
