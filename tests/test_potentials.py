import tracemalloc

import numpy as np
import pytest

from knotflow.energy import validate_params
from knotflow.bvh import LEAF_SIZE
from knotflow.meshes import (FaceTree, MeshSignedDistance, TriangleMesh,
                             load_obj_mesh)
from knotflow.network import CurveNetwork
from knotflow.potentials import (ConstantField, FieldPotential,
                                 LengthDifferencePotential, RotationField,
                                 SurfacePotential, TotalLengthPotential,
                                 surface_plan)
from knotflow.scenes import generate_test_curve

from oracles import (ExhaustiveSurfacePotential, finite_difference_gradient,
                     length_difference_loop, octahedron_sphere,
                     perturbed_polygon, regular_polygon, save_obj_mesh,
                     surface_walk, theta_and_loop, tree_depth)

P36 = validate_params(3, 6)


def fd_check(potential, net, rel=1e-5, h=1e-6):
    value, grad = potential.value_and_differential(net, P36)

    def value_of(pos):
        v, _ = potential.value_and_differential(net.with_positions(pos), P36)
        return v

    fd = finite_difference_gradient(value_of, net.vertices, h=h)
    assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < rel
    return value


class TestTotalLength:
    def test_unit_square_value_and_fd(self):
        net = CurveNetwork(
            [[0., 0., 0.], [1., 0., 0.], [1., 1., 0.], [0., 1., 0.]],
            [[0, 1], [1, 2], [2, 3], [3, 0]])
        value = fd_check(TotalLengthPotential(), net)
        assert value == pytest.approx(4.0)

    def test_single_edge_endpoint_gradients(self):
        net = CurveNetwork([[0., 0., 0.], [2., 0., 0.]], [[0, 1]])
        value, grad = TotalLengthPotential().value_and_differential(net)
        assert value == pytest.approx(2.0)
        assert np.allclose(grad[0], [-1, 0, 0])
        assert np.allclose(grad[1], [1, 0, 0])

    def test_scaling(self):
        verts, edges = perturbed_polygon(9, seed=0)
        net = CurveNetwork(verts, edges)
        v1, _ = TotalLengthPotential().value_and_differential(net)
        v2, _ = TotalLengthPotential().value_and_differential(
            net.with_positions(3.0 * verts))
        assert v2 == pytest.approx(3.0 * v1)


class TestLengthDifference:
    def test_equilateral_polygon_is_zero(self):
        verts, edges = regular_polygon(10)
        net = CurveNetwork(verts, edges)
        value, grad = LengthDifferencePotential().value_and_differential(net)
        assert value == pytest.approx(0.0, abs=1e-25)

    def test_three_vertex_arc(self):
        net = CurveNetwork([[0., 0., 0.], [1., 0., 0.], [3., 0., 0.]],
                            [[0, 1], [1, 2]])
        value, _ = LengthDifferencePotential().value_and_differential(net)
        assert value == pytest.approx(1.0)

    def test_junctures_and_endpoints_skipped(self):
        # Y junction: no degree-2 vertices at all
        verts = np.array([[0., 0., 0.], [1., 0., 0.], [-1., 1., 0.],
                          [-1., -1., 0.]])
        net = CurveNetwork(verts, [[0, 1], [0, 2], [0, 3]])
        value, grad = LengthDifferencePotential().value_and_differential(net)
        assert value == 0.0 and np.all(grad == 0.0)

    def test_fd_on_random_arc(self):
        rng = np.random.default_rng(1)
        verts = np.cumsum(rng.uniform(0.5, 1.5, size=(7, 3)), axis=0)
        edges = [[i, i + 1] for i in range(6)]
        net = CurveNetwork(verts, edges)
        fd_check(LengthDifferencePotential(), net, rel=1e-6)

    def test_fd_on_theta_and_loop(self):
        # junctures, three jittered arcs and a separate loop
        net = CurveNetwork(*theta_and_loop())
        assert fd_check(LengthDifferencePotential(), net, rel=1e-6) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_vertex_loop(self, seed):
        verts, edges = theta_and_loop(seed=seed)
        rng = np.random.default_rng(seed)
        # relabel and flip edges, and pull the loop out of regular
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        net = CurveNetwork(verts * rng.uniform(0.9, 1.1, verts.shape), edges)
        value, grad = LengthDifferencePotential().value_and_differential(net)
        want, want_grad = length_difference_loop(net)
        assert value == pytest.approx(want, rel=1e-12)
        assert np.max(np.abs(grad - want_grad)) \
            <= 1e-12 * np.max(np.abs(want_grad))


class TestFaceTree:
    def test_balanced_with_bounded_leaves(self):
        mesh = octahedron_sphere(subdivisions=3)
        assert mesh.n_faces == 512
        tree = FaceTree(mesh)
        # ceil(log2(512 / 8)) = 6 halvings reach the leaf size
        assert tree_depth(tree.left, tree.right) <= 6
        leaves = tree.left < 0
        assert np.all(tree.end[leaves] - tree.start[leaves] <= LEAF_SIZE)
        assert np.array_equal(np.sort(tree.order), np.arange(mesh.n_faces))

    def test_node_aggregates_bound_their_faces(self):
        mesh = octahedron_sphere(subdivisions=2)
        tree = FaceTree(mesh)
        for node in range(len(tree.left)):
            sel = tree.order[tree.start[node]:tree.end[node]]
            area = mesh.face_areas[sel]
            assert tree.area[node] == pytest.approx(area.sum(), rel=1e-12)
            centroid = area @ mesh.face_centroids[sel] / area.sum()
            assert np.allclose(tree.centroid[node], centroid, rtol=1e-12)
            corners = mesh.vertices[mesh.faces[sel]].reshape(-1, 3)
            center = 0.5 * (tree.lo[node] + tree.hi[node])
            assert np.all(np.linalg.norm(corners - center, axis=1)
                          <= tree.radius[node] + 1e-12)


class TestSurfacePotential:
    def unit_face_mesh(self):
        # single unit-area triangle in the plane z = 0
        return TriangleMesh([[0., 0., 0.], [2., 0., 0.], [0., 1., 0.]],
                            [[0, 1, 2]])

    def test_single_face_value(self):
        mesh = self.unit_face_mesh()
        c = mesh.face_centroids[0]
        d = 1.7
        # unit edge whose midpoint sits distance d above the centroid
        net = CurveNetwork([c + [0, -0.5, d], c + [0, 0.5, d]], [[0, 1]])
        pot = SurfacePotential(mesh)
        value, _ = pot.value_and_differential(net, P36)
        assert value == pytest.approx(1.0 / d ** (P36.beta - P36.alpha))

    def test_distance_scaling(self):
        mesh = self.unit_face_mesh()
        c = mesh.face_centroids[0]
        pot = SurfacePotential(mesh)
        nets = [CurveNetwork([c + [0, -0.5, d], c + [0, 0.5, d]], [[0, 1]])
                for d in (1.0, 2.0)]
        v1, _ = pot.value_and_differential(nets[0], P36)
        v2, _ = pot.value_and_differential(nets[1], P36)
        assert v2 / v1 == pytest.approx(2.0 ** (P36.alpha - P36.beta))

    def test_tree_matches_exhaustive_within_one_percent(self):
        mesh = octahedron_sphere(radius=1.0, subdivisions=3)
        verts, edges = perturbed_polygon(24, seed=2)
        net = CurveNetwork(verts * 3.0 + np.array([0.0, 0.0, 2.5]), edges)
        exact = ExhaustiveSurfacePotential(mesh)
        fast = SurfacePotential(mesh)
        v_exact, g_exact = exact.value_and_differential(net, P36)
        v_fast, g_fast = fast.value_and_differential(net, P36)
        assert abs(v_fast - v_exact) / v_exact < 0.01
        assert np.linalg.norm(g_fast - g_exact) / np.linalg.norm(g_exact) < 0.05

    def test_fd_exact_mode(self):
        mesh = self.unit_face_mesh()
        verts, edges = perturbed_polygon(8, seed=3)
        net = CurveNetwork(verts + np.array([0.0, 0.0, 2.0]), edges)
        # on one face the tree sum is exact too
        for pot in (ExhaustiveSurfacePotential(mesh), SurfacePotential(mesh)):
            fd_check(pot, net)

    def test_touching_mesh_rejected(self):
        # centroid (1, 1, 0) is exactly representable, so the edge midpoint
        # lands exactly on it
        mesh = TriangleMesh([[0., 0., 0.], [3., 0., 0.], [0., 3., 0.]],
                            [[0, 1, 2]])
        net = CurveNetwork([[1., 0.5, 0.], [1., 1.5, 0.]], [[0, 1]])
        for pot in (ExhaustiveSurfacePotential(mesh), SurfacePotential(mesh)):
            with pytest.raises(ValueError, match="touches"):
                pot.value_and_differential(net, P36)

    def test_midpoint_on_far_cluster_centroid_is_no_contact(self):
        # the root's area-weighted centroid is exactly 0, where the edge's
        # midpoint sits, yet every face is at distance 1/3 or more
        mesh = TriangleMesh([[1., 0., 0.], [0., 1., 0.], [0., 0., 1.],
                             [-1., 0., 0.], [0., -1., 0.], [0., 0., -1.]],
                            [[0, 1, 2], [3, 4, 5]])
        net = CurveNetwork([[-0.1, 0., 0.], [0.1, 0., 0.]], [[0, 1]])
        v_fast, g_fast = SurfacePotential(mesh).value_and_differential(
            net, P36)
        v_exact, g_exact = ExhaustiveSurfacePotential(mesh) \
            .value_and_differential(net, P36)
        assert v_exact == pytest.approx(1.8, rel=1e-12)
        assert v_fast == pytest.approx(v_exact, rel=1e-12)
        assert np.allclose(g_fast, g_exact, rtol=0.0, atol=1e-12)


def obstacle_case(subdivisions, verts, edges, scale, lift):
    mesh = octahedron_sphere(subdivisions=subdivisions)
    net = CurveNetwork(scale * verts + np.array([0.0, 0.0, lift]), edges)
    return SurfacePotential(mesh), net


def circle_around_sphere(subdivisions, n, scale, lift):
    circle = generate_test_curve("perturbed-circle", n, seed=5)
    return obstacle_case(subdivisions, circle.vertices, circle.edges, scale,
                         lift)


class TestSurfacePlan:
    """The breadth-first sweep of `surface_plan` against the node-by-node
    walk of `oracles.surface_walk`."""

    @pytest.fixture(scope="class",
                    params=["polygon-24", "circle-256-far", "circle-256-near"])
    def case(self, request):
        """(potential, midpoints, the walk's result at exponent 3)."""
        if request.param == "polygon-24":
            pot, net = obstacle_case(3, *perturbed_polygon(24, seed=2), 3.0,
                                     2.5)
        elif request.param == "circle-256-far":
            pot, net = circle_around_sphere(4, 256, 3.0, 2.5)
        else:
            pot, net = circle_around_sphere(4, 256, 1.5, 0.3)
        mid = net.geometry().midpoints
        return pot, mid, surface_walk(pot._tree, mid, 3.0)

    def test_same_lumped_and_face_entries_as_walk(self, case):
        pot, mid, (lumped, faces, _, _) = case
        far_edge, far_node, edge, face = surface_plan(pot._tree, mid)
        assert len(far_edge) == len(lumped) > 0
        assert set(zip(far_edge.tolist(), far_node.tolist())) == lumped
        assert len(edge) == len(faces) > 0
        assert set(zip(edge.tolist(), face.tolist())) == faces

    def test_midpoint_terms_match_walk(self, case):
        pot, mid, (_, _, values, forces) = case
        v, f = pot._midpoint_terms(mid, 3.0)
        assert np.all(np.abs(v - values) <= 1e-12 * values)
        assert np.max(np.abs(f - forces)) <= 1e-12 * np.max(np.abs(forces))

    def test_chunked_pass_memory(self):
        # 8192 faces around a 4096-gon: 354 661 lumped entries.  Measured
        # peak 22.9 MiB; an unchunked evaluation of the same entries peaked
        # at 43 MiB
        pot, net = circle_around_sphere(5, 4096, 3.0, 2.5)
        net.geometry()
        tracemalloc.start()
        try:
            pot.value_and_differential(net, P36)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2 ** 20


class TestFieldPotential:
    def test_aligned_edge_is_zero(self):
        net = CurveNetwork([[0., 0., 0.], [0., 0., 2.]], [[0, 1]])
        value, _ = FieldPotential(ConstantField([0, 0, 1])) \
            .value_and_differential(net)
        assert value == pytest.approx(0.0, abs=1e-28)

    def test_orthogonal_unit_edge(self):
        net = CurveNetwork([[0., 0., 0.], [1., 0., 0.]], [[0, 1]])
        value, _ = FieldPotential(ConstantField([0, 0, 1])) \
            .value_and_differential(net)
        assert value == pytest.approx(1.0)

    def test_fd_constant_field(self):
        verts, edges = perturbed_polygon(9, seed=4)
        net = CurveNetwork(verts, edges)
        fd_check(FieldPotential(ConstantField([0.3, -0.5, 0.81])), net)

    def test_fd_rotation_field(self):
        rng = np.random.default_rng(5)
        verts = np.cumsum(rng.uniform(0.3, 0.9, size=(8, 3)), axis=0) \
            + np.array([2.0, 0.0, 0.0])
        edges = [[i, i + 1] for i in range(7)]
        net = CurveNetwork(verts, edges)
        fd_check(FieldPotential(RotationField([0, 0, 1])), net)

    @pytest.mark.parametrize("field", [ConstantField, RotationField])
    @pytest.mark.parametrize("axis", [[0, 0, 0], [np.nan, 0, 1],
                                      [np.inf, 0, 0]],
                             ids=["zero", "nan", "inf"])
    def test_degenerate_axis_rejected(self, field, axis):
        with pytest.raises(ValueError, match="must be a finite nonzero"):
            field(axis)

    def test_nonnegative(self):
        verts, edges = perturbed_polygon(16, seed=6)
        net = CurveNetwork(verts, edges)
        value, _ = FieldPotential(RotationField()).value_and_differential(net)
        assert value >= 0.0


class TestTotalObjective:
    def test_weighted_sum(self):
        verts, edges = perturbed_polygon(10, seed=7)
        net = CurveNetwork(verts, edges)
        from knotflow.energy import discrete_differential, discrete_energy
        from knotflow.flow import Objective

        pot = TotalLengthPotential(weight=0.25)
        value, grad = Objective(P36, [pot]).energy_and_differential(net)
        base = discrete_energy(net, P36)
        assert value == pytest.approx(base + 0.25 * net.total_length())
        _, pot_grad = pot.value_and_differential(net, P36)
        assert np.allclose(grad, discrete_differential(net, P36)[1]
                           + 0.25 * pot_grad, rtol=1e-12, atol=0.0)


class TestMeshes:
    def test_obj_roundtrip(self, tmp_path):
        mesh = octahedron_sphere(subdivisions=1)
        path = tmp_path / "sphere.obj"
        save_obj_mesh(path, mesh)
        back = load_obj_mesh(path)
        assert np.allclose(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    @pytest.mark.parametrize("record, message", [
        ("f 0 1 2", "face indices must be positive integers"),
        ("f -1 -2 -3", "face indices must be positive integers"),
        ("f 1 2 x", "face indices must be positive integers"),
        ("f 1 2 4", "index 4 is past the 3 vertices"),
        ("v 1 2", "a vertex needs 3 numeric coordinates"),
        ("f 1 2 3 1", "only triangular faces"),
    ], ids=["zero-index", "negative-index", "non-integer", "past-count",
            "short-vertex", "quad"])
    def test_bad_record_named(self, tmp_path, record, message):
        path = tmp_path / "mesh.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{record}\n")
        with pytest.raises(ValueError, match=f"mesh.obj:4: {message}"):
            load_obj_mesh(path)

    def test_signed_distance_of_sphere(self):
        mesh = octahedron_sphere(radius=1.0, subdivisions=3)
        sdf = MeshSignedDistance(mesh)
        assert sdf.value([2.0, 0.0, 0.0]) == pytest.approx(1.0, abs=0.02)
        assert sdf.value([0.2, 0.0, 0.0]) == pytest.approx(-0.8, abs=0.02)
        g = sdf.gradient([2.0, 0.0, 0.0])
        assert np.allclose(g, [1, 0, 0], atol=0.05)

    def test_degenerate_meshes_rejected(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))
