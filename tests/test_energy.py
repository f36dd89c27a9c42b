import tracemalloc

import numpy as np
import pytest

import knotflow.energy
from knotflow.bct import trapezoid_kernels
from knotflow.bvh import EdgeBvh, bh_differential, bh_energy
from knotflow.energy import (PAIR_CHUNK, EnergyParams, ParameterError,
                             SelfContactError, _row_blocks,
                             discrete_differential, discrete_energy, kernel,
                             metric_kernel_sums, validate_params)
from knotflow.network import CurveNetwork
from knotflow.scenes import generate_test_curve

from oracles import (brute_energy, far_terms_per_entry,
                     finite_difference_gradient, pair_terms_per_sample,
                     perturbed_polygon, regular_polygon, theta_and_loop,
                     trapezoid_kernels_per_sample)


def scale_invariant(params: EnergyParams) -> bool:
    """True on the boundary beta = alpha + 2 where the energy is scale-free."""
    return params.beta == params.alpha + 2


def touching_loops(n=24):
    """Two polygons whose separate vertices 0 and n + n/2 coincide."""
    verts, edges = regular_polygon(n)
    other = verts + [2.0, 0.0, 0.0]
    other[n // 2] = verts[0]
    return np.vstack([verts, other]), np.vstack([edges, edges + n])


def trefoil(n):
    net = generate_test_curve("random-trefoil", n, seed=8)
    return net.vertices, net.edges


def trefoil_144():
    return trefoil(144)


def open_arc(n=40, seed=6):
    """A jittered open helix arc of n edges: two endpoints of degree 1."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 3 * np.pi, n + 1)
    verts = np.stack([np.cos(t), np.sin(t), 0.3 * t], axis=1) \
        + rng.uniform(-0.02, 0.02, (n + 1, 3))
    return verts, np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)


# networks beyond one loop, each with its dense and Barnes-Hut twins
TWINS = {"theta-and-loop": theta_and_loop, "open-arc": open_arc,
         "trefoil": trefoil_144}
TWIN_PARAMS = [(3, 6), (2, 4.5)]


def circle_256():
    net = generate_test_curve("perturbed-circle", 256, seed=5)
    return net.vertices, net.edges


# the scenes of the per-sample pair oracle: the curves of the three
# benchmark workloads (the circle's near leaf pairs nearly collinear), an
# open arc and a network with junctures
PAIR_SCENES = {"trefoil-128": lambda: trefoil(128),
               "trefoil-384": lambda: trefoil(384),
               "circle-256": circle_256, "open-arc": open_arc,
               "theta-and-loop": theta_and_loop}


def close_to(new, old, rel=1e-12):
    """new matches old entrywise to rel of the largest |old|."""
    return np.allclose(new, old, rtol=0.0, atol=rel * np.abs(old).max())


# at least two row blocks of the vertex-form pass (the last one partial),
# so block seams are crossed
MULTI_CHUNK = {"trefoil": lambda: trefoil(200),
               "theta-and-loop": lambda: theta_and_loop(m=40, n_loop=64)}


def n_row_blocks(net):
    return len(list(_row_blocks(net.n_edges, net.n_vertices)))


SQUARE = CurveNetwork(
    [[0., 0., 0.], [1., 0., 0.], [1., 1., 0.], [0., 1., 0.]],
    [[0, 1], [1, 2], [2, 3], [3, 0]])


class TestParams:
    def test_standard_exponents(self):
        p = validate_params(3, 6)
        assert p.s == pytest.approx(5.0 / 3.0)
        assert p.sigma == pytest.approx(2.0 / 3.0)
        assert not scale_invariant(p)

    def test_half_exponents(self):
        p = validate_params(2, 4.5)
        assert p.s == pytest.approx(1.75)

    def test_scale_invariant_boundary(self):
        assert scale_invariant(validate_params(2, 4))

    def test_upper_window_violation(self):
        with pytest.raises(ParameterError, match="2\\*alpha \\+ 1"):
            validate_params(2, 6)

    def test_lower_window_violation(self):
        with pytest.raises(ParameterError, match="alpha \\+ 2"):
            validate_params(3, 4)

    def test_alpha_violation(self):
        with pytest.raises(ParameterError, match="alpha"):
            validate_params(1, 3.5)

    def test_window_contains_s_in_one_two(self):
        for a, b in [(2, 4), (2, 4.9), (3, 5), (3, 6.9), (1.5, 3.5)]:
            p = validate_params(a, b)
            assert 1 < p.s < 2
            assert 0 < p.sigma < 1


class TestKernel:
    def test_tangent_parallel_to_chord(self):
        p = validate_params(2, 4)
        assert kernel([0, 0, 0], [1, 0, 0], [1, 0, 0], p) == 0.0

    def test_orthogonal_unit_case(self):
        p = validate_params(2, 4)
        assert kernel([0, 0, 0], [0, 1, 0], [1, 0, 0], p) == pytest.approx(1.0)

    def test_hand_evaluation(self):
        p = validate_params(3, 6)
        val = kernel([0, 0, 0], [0, 2, 0], [1, 0, 0], p)
        assert val == pytest.approx(2 ** 3 / 2 ** 6)

    def test_coincident_points(self):
        p = validate_params(2, 4)
        with pytest.raises(SelfContactError):
            kernel([1, 1, 1], [1, 1, 1], [1, 0, 0], p)

    def test_non_unit_tangent_rejected(self):
        p = validate_params(2, 4)
        with pytest.raises(ValueError):
            kernel([0, 0, 0], [0, 1, 0], [2, 0, 0], p)


class TestEnergy:
    def test_unit_square(self):
        p = validate_params(2, 4)
        assert discrete_energy(SQUARE, p) == pytest.approx(2.5, rel=1e-12)

    def test_all_adjacent_arc_is_zero(self):
        # every pair of edges shares a vertex, so no pair contributes
        verts = np.array([[0., 0., 0.], [1., 0., 0.], [1., 1., 0.]])
        net = CurveNetwork(verts, [[0, 1], [1, 2]])
        assert discrete_energy(net, validate_params(2, 4)) == 0.0

    def test_matches_brute_force(self):
        verts, edges = perturbed_polygon(10, seed=3)
        net = CurveNetwork(verts, edges)
        p = validate_params(3, 6)
        assert discrete_energy(net, p) == pytest.approx(
            brute_energy(verts, edges, 3, 6), rel=1e-12)

    def test_polygon_energy_converges_to_circle_value(self):
        # the signed error crosses zero near n = 150, so monotonicity of the
        # absolute error is only meaningful on the first refinement leg
        p = validate_params(2, 4)
        target = np.pi ** 2
        errors = []
        for n in (64, 128, 256):
            verts, edges = regular_polygon(n)
            e = discrete_energy(CurveNetwork(verts, edges), p)
            errors.append(abs(e - target) / target)
        assert errors[0] > errors[1]
        assert errors[-1] < 0.02

    def test_scaling_law(self):
        p = validate_params(3, 6)
        verts, edges = perturbed_polygon(12, seed=5)
        net = CurveNetwork(verts, edges)
        scaled = CurveNetwork(2.0 * verts, edges)
        expected = 2.0 ** (2 + p.alpha - p.beta) * discrete_energy(net, p)
        assert discrete_energy(scaled, p) == pytest.approx(expected, rel=1e-10)

    def test_self_contact_rejected(self):
        verts = np.array([[0., 0., 0.], [1., 0., 0.], [1., 1., 0.],
                          [0., 0., 0.], [-1., 0., 0.], [-1., -1., 0.]])
        # vertices 0 and 3 coincide but belong to disjoint edges
        edges = [[0, 1], [1, 2], [3, 4], [4, 5]]
        net = CurveNetwork(verts, edges)
        with pytest.raises(SelfContactError):
            discrete_energy(net, validate_params(2, 4))
        with pytest.raises(SelfContactError):
            discrete_differential(net, validate_params(2, 4))

    @pytest.mark.parametrize("scale, shift, rotvec",
                             [(1.0, 0.0, None), (0.7, 0.1, None),
                              (0.7, 0.1, [0.3, -0.2, 0.9])],
                             ids=["unit", "scaled", "rotated"])
    def test_self_contact_rejected_at_second_ends(self, scale, shift,
                                                  rotvec):
        # every edge reversed: the coincident vertices 0 and 3 are only the
        # second ends of their edges, whose distances the passes derive; in
        # the scaled copy the vertex pass derives a squared distance of
        # 1e-32, not 0, and in the rotated one the pair kernel does too
        from scipy.spatial.transform import Rotation

        verts = np.array([[0., 0., 0.], [1., 0., 0.], [1., 1., 0.],
                          [0., 0., 0.], [-1., 0., 0.], [-1., -1., 0.]])
        verts = scale * verts + shift * np.array([1., 2., 3.])
        if rotvec is not None:
            verts = verts @ Rotation.from_rotvec(rotvec).as_matrix().T
        net = CurveNetwork(verts, [[1, 0], [2, 1], [4, 3], [5, 4]])
        p = validate_params(2, 4)
        with pytest.raises(SelfContactError):
            discrete_energy(net, p)
        with pytest.raises(SelfContactError):
            discrete_differential(net, p)
        with pytest.raises(SelfContactError):
            metric_kernel_sums(net, p.sigma)
        # the pair kernel derives its second-end samples the same way
        bvh = EdgeBvh(net, leaf_size=1)
        with pytest.raises(SelfContactError):
            bh_energy(net, bvh, p, eps=0.0)
        with pytest.raises(SelfContactError):
            bh_differential(net, bvh, p, eps=0.0)
        with pytest.raises(SelfContactError):
            trapezoid_kernels(net, p.sigma, *net.disjoint_edge_pairs())

    def test_self_contact_in_barnes_hut_leaf(self):
        verts, edges = touching_loops()
        net = CurveNetwork(verts, edges)
        bvh = EdgeBvh(net)
        p = validate_params(3, 6)
        with pytest.raises(SelfContactError):
            bh_energy(net, bvh, p, eps=0.25)
        with pytest.raises(SelfContactError):
            bh_differential(net, bvh, p, eps=0.25)

    def test_folded_arc_is_zero(self):
        # the end vertices coincide, but the only two edges meet: there is
        # no disjoint pair, so there is no contact and no kernel to evaluate
        net = CurveNetwork([[0., 0., 0.], [1., 0., 0.], [0., 0., 0.]],
                           [[0, 1], [1, 2]])
        p = validate_params(3, 6)
        assert discrete_energy(net, p) == 0.0
        assert np.all(discrete_differential(net, p)[1] == 0.0)

    def test_vertex_on_no_edge_is_ignored(self):
        # a vertex on no edge lies on no disjoint pair, even where it
        # coincides with a corner of the square
        verts = np.vstack([SQUARE.vertices, SQUARE.vertices[:1]])
        net = CurveNetwork(verts, SQUARE.edges)
        p = validate_params(3, 6)
        assert discrete_energy(net, p) == discrete_energy(SQUARE, p)
        _, grad = discrete_differential(net, p)
        assert np.allclose(grad[:4], discrete_differential(SQUARE, p)[1],
                           rtol=1e-14, atol=1e-14)
        assert np.all(grad[4] == 0.0)

    @pytest.mark.parametrize("scene", sorted(MULTI_CHUNK))
    def test_multi_chunk_matches_brute_force(self, scene):
        verts, edges = MULTI_CHUNK[scene]()
        net = CurveNetwork(verts, edges)
        assert n_row_blocks(net) >= 2
        assert discrete_energy(net, validate_params(3, 6)) == pytest.approx(
            brute_energy(verts, edges, 3, 6), rel=1e-12)

    @pytest.mark.parametrize("scene", sorted(MULTI_CHUNK))
    def test_multi_chunk_barnes_hut_leaf_pairs(self, scene):
        # at eps = 0 every disjoint pair is a leaf pair, so the pair-list
        # kernel crosses its chunk seams
        net = CurveNetwork(*MULTI_CHUNK[scene]())
        bvh = EdgeBvh(net, leaf_size=1)
        assert len(bvh.plan(net, 0.0).I) > 2 * PAIR_CHUNK
        p = validate_params(3, 6)
        assert bh_energy(net, bvh, p, eps=0.0) == pytest.approx(
            discrete_energy(net, p), rel=1e-12)
        _, exact = discrete_differential(net, p)
        assert np.allclose(bh_differential(net, bvh, p, eps=0.0)[1], exact,
                           rtol=1e-12, atol=1e-12 * np.abs(exact).max())


@pytest.mark.parametrize("eps", [0.25, 0.0])
@pytest.mark.parametrize("scene", sorted(PAIR_SCENES))
class TestPairKernelOracle:
    """The tangent-line pair kernel, and the far field on its sample code,
    against the per-sample forms they replaced (`oracles`): at eps 0.25 on
    the default tree, and at eps 0 on one-edge leaves, where every disjoint
    pair is a leaf pair and the list spans three chunks or more."""

    @pytest.fixture
    def case(self, scene, eps, monkeypatch):
        net = CurveNetwork(*PAIR_SCENES[scene]())
        bvh = EdgeBvh(net, leaf_size=1 if eps == 0.0 else 8)
        plan = bvh.plan(net, eps)
        if eps == 0.0:
            monkeypatch.setattr(knotflow.energy, "PAIR_CHUNK",
                                min(PAIR_CHUNK, len(plan.I) // 3 + 1))
            assert len(plan.I) > 2 * knotflow.energy.PAIR_CHUNK
        return net, bvh, plan

    @pytest.mark.parametrize("alpha, beta", TWIN_PARAMS)
    def test_energy_and_differential(self, case, eps, alpha, beta):
        net, bvh, plan = case
        p = validate_params(alpha, beta)
        grad = np.zeros((3, net.n_vertices))
        want = far_terms_per_entry(net, bvh, p, plan, grad) \
            + pair_terms_per_sample(net, p, plan.I, plan.J, grad)
        assert bh_energy(net, bvh, p, eps) == pytest.approx(want, rel=1e-12)
        energy, got = bh_differential(net, bvh, p, eps)
        assert energy == pytest.approx(want, rel=1e-12)
        assert close_to(got, grad.T)

    def test_trapezoid_kernels(self, case):
        net, _, plan = case
        sigma = validate_params(3, 6).sigma
        for got, want in zip(
                trapezoid_kernels(net, sigma, plan.I, plan.J),
                trapezoid_kernels_per_sample(net, sigma, plan.I, plan.J)):
            assert close_to(got, want)


@pytest.mark.parametrize("alpha, beta", TWIN_PARAMS)
@pytest.mark.parametrize("scene", sorted(TWINS))
class TestTwins:
    """The dense vertex-form pass against the Barnes-Hut pair-list pass at
    eps = 0 (every disjoint pair a leaf pair) and the brute-force loop."""

    def test_energy(self, scene, alpha, beta):
        verts, edges = TWINS[scene]()
        net = CurveNetwork(verts, edges)
        p = validate_params(alpha, beta)
        dense = discrete_energy(net, p)
        assert dense == pytest.approx(brute_energy(verts, edges, alpha, beta),
                                      rel=1e-12)
        bh = bh_energy(net, EdgeBvh(net, leaf_size=1), p, eps=0.0)
        assert dense == pytest.approx(bh, rel=1e-12)

    def test_differential(self, scene, alpha, beta):
        net = CurveNetwork(*TWINS[scene]())
        p = validate_params(alpha, beta)
        dense_energy, dense = discrete_differential(net, p)
        energy, bh = bh_differential(net, EdgeBvh(net, leaf_size=1), p,
                                     eps=0.0)
        assert np.allclose(dense, bh, rtol=1e-12,
                           atol=1e-12 * np.abs(dense).max())
        assert energy == pytest.approx(discrete_energy(net, p), rel=1e-12)
        # the flow's step start reads this energy in place of a trial's
        assert dense_energy == discrete_energy(net, p)


class TestDifferential:
    def test_polygon_radial_symmetry(self):
        # (3, 6) is not scale-invariant, so the polygon gradient is nonzero
        verts, edges = regular_polygon(16)
        net = CurveNetwork(verts, edges)
        _, grad = discrete_differential(net, validate_params(3, 6))
        radial = verts / np.linalg.norm(verts, axis=1)[:, None]
        mags = np.linalg.norm(grad, axis=1)
        assert mags[0] > 0
        assert np.allclose(mags, mags[0], rtol=1e-10)
        cosines = np.einsum("ij,ij->i", grad, radial) / mags
        assert np.allclose(np.abs(cosines), 1.0, atol=1e-10)

    def test_finite_difference_match(self):
        verts, edges = perturbed_polygon(32, seed=7)
        net = CurveNetwork(verts, edges)
        p = validate_params(3, 6)
        _, grad = discrete_differential(net, p)

        def energy_of(pos):
            return discrete_energy(CurveNetwork(pos, edges), p)

        fd = finite_difference_gradient(energy_of, verts, h=1e-5)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    @pytest.mark.parametrize("scene", sorted(MULTI_CHUNK))
    def test_multi_chunk_finite_difference_match(self, scene):
        verts, edges = MULTI_CHUNK[scene]()
        net = CurveNetwork(verts, edges)
        p = validate_params(2, 4.5)
        _, grad = discrete_differential(net, p)

        def energy_of(pos):
            return discrete_energy(net.with_positions(pos), p)

        fd = finite_difference_gradient(energy_of, verts, h=1e-5)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    def test_translation_invariance(self):
        verts, edges = perturbed_polygon(12, seed=9)
        p = validate_params(3, 6)
        _, g0 = discrete_differential(CurveNetwork(verts, edges), p)
        _, g1 = discrete_differential(
            CurveNetwork(verts + [2.5, -1.0, 0.75], edges), p)
        assert np.allclose(g0, g1, rtol=1e-12, atol=1e-12 * np.abs(g0).max())

    def test_rotation_equivariance(self):
        from scipy.spatial.transform import Rotation

        verts, edges = perturbed_polygon(12, seed=11)
        p = validate_params(3, 6)
        R = Rotation.from_rotvec([0.3, -0.2, 0.9]).as_matrix()
        _, g0 = discrete_differential(CurveNetwork(verts, edges), p)
        _, g1 = discrete_differential(CurveNetwork(verts @ R.T, edges), p)
        assert np.allclose(g1, g0 @ R.T, rtol=1e-10, atol=1e-10 * np.abs(g0).max())

    def test_differential_sums_to_zero(self):
        verts, edges = perturbed_polygon(20, seed=13)
        _, grad = discrete_differential(CurveNetwork(verts, edges),
                                     validate_params(2, 4.5))
        assert np.allclose(grad.sum(axis=0), 0.0,
                           atol=1e-12 * np.abs(grad).max())


class TestMemory:
    """The vertex-form pass works row block by row block: its peak
    allocation does not grow with the 384 x 384 (edge, vertex) pairs here.
    The Barnes-Hut pass works chunk by chunk over its plan: its bounds are
    the peaks measured for the per-sample pair kernel it replaced, 0.97
    and 2.01 MiB, so a chunk holds no more than it did."""

    @pytest.mark.parametrize("func, limit_mib",
                             [(discrete_energy, 4), (discrete_differential, 8)])
    def test_peak_allocation(self, func, limit_mib):
        net = generate_test_curve("random-trefoil", 384, seed=8)
        p = validate_params(3, 6)
        func(net, p)            # fills the cached adjacency triples
        tracemalloc.start()
        try:
            func(net, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2 ** 20

    @pytest.mark.parametrize("func, limit_mib",
                             [(bh_energy, 0.97), (bh_differential, 2.01)])
    def test_barnes_hut_peak_allocation(self, func, limit_mib):
        net = generate_test_curve("random-trefoil", 384, seed=8)
        p = validate_params(3, 6)
        bvh = EdgeBvh(net)
        func(net, bvh, p)       # caches the plan
        tracemalloc.start()
        try:
            func(net, bvh, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2 ** 20
