import numpy as np
import pytest

from knotflow.network import (CurveNetwork, InvalidNetworkError,
                              edge_average, edge_chain, edge_geometry,
                              stack_fields, unstack_fields)

from oracles import (component_labels, finite_difference_gradient,
                     regular_polygon, theta_and_loop)

SQUARE_VERTS = np.array([[0., 0., 0.], [1., 0., 0.], [1., 1., 0.], [0., 1., 0.]])
SQUARE_EDGES = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


def test_closed_loop_classification():
    net = CurveNetwork(SQUARE_VERTS, SQUARE_EDGES)
    assert net.n_vertices == 4 and net.n_edges == 4
    assert np.all(net.degrees == 2)
    assert len(np.unique(component_labels(net))) == 1
    assert net.interior_vertices.size == 4
    assert net.endpoints.size == 0 and net.junctures.size == 0


def test_open_arc_classification():
    verts = np.array([[0., 0., 0.], [1., 0., 0.], [2., 0., 0.]])
    net = CurveNetwork(verts, [[0, 1], [1, 2]])
    assert len(np.unique(component_labels(net))) == 1
    assert set(net.endpoints) == {0, 2}
    assert net.degrees[0] == 1 and net.degrees[2] == 1


def test_juncture_classification():
    verts = np.array([[0., 0., 0.], [1., 0., 0.], [-1., 0.5, 0.], [-1., -0.5, 0.]])
    net = CurveNetwork(verts, [[0, 1], [0, 2], [0, 3]])
    assert set(net.junctures) == {0}


def test_degenerate_edge_rejected():
    with pytest.raises(InvalidNetworkError):
        CurveNetwork(SQUARE_VERTS, [[0, 0]])


def test_duplicate_edge_rejected():
    with pytest.raises(InvalidNetworkError):
        CurveNetwork(SQUARE_VERTS, [[0, 1], [1, 0]])


def test_out_of_range_index_rejected():
    with pytest.raises(InvalidNetworkError):
        CurveNetwork(SQUARE_VERTS, [[0, 7]])


def test_zero_length_edge_rejected():
    verts = np.array([[1., 1., 1.], [1., 1., 1.], [0., 0., 0.]])
    with pytest.raises(InvalidNetworkError):
        CurveNetwork(verts, [[0, 1], [1, 2]])


def test_edge_geometry_values():
    verts = np.array([[0., 0., 0.], [2., 0., 0.], [0., 0., -3.]])
    net = CurveNetwork(verts, [[0, 1], [0, 2]])
    geom = edge_geometry(net)
    assert geom.lengths[0] == pytest.approx(2.0)
    assert np.allclose(geom.tangents[0], [1, 0, 0])
    assert np.allclose(geom.midpoints[0], [1, 0, 0])
    assert geom.lengths[1] == pytest.approx(3.0)
    assert np.allclose(geom.tangents[1], [0, 0, -1])
    assert np.allclose(geom.midpoints[1], [0, 0, -1.5])


def random_edge_partials(net, seed, terms=()):
    """Random dl, dmid and dT for `terms` leading axes of terms."""
    rng = np.random.default_rng(seed)
    E = net.n_edges
    return (rng.normal(size=terms + (E,)), rng.normal(size=terms + (E, 3)),
            rng.normal(size=terms + (E, 3)))


def test_edge_chain_matches_finite_differences():
    # F = sum_I a_I l_I + b_I . x_I + c_I . T_I on a network with junctures
    net = CurveNetwork(*theta_and_loop())
    a, b, c = random_edge_partials(net, seed=7)

    def F(verts):
        geom = net.with_positions(verts).geometry()
        return a @ geom.lengths + np.sum(b * geom.midpoints) \
            + np.sum(c * geom.tangents)

    ends = edge_chain(net, dl=a, dmid=b, dT=c)
    assert ends.shape == (3, 2, net.n_edges)
    grad = np.zeros_like(net.vertices)
    for end in range(2):
        np.add.at(grad, net.edges[:, end], ends[:, end].T)
    fd = finite_difference_gradient(F, net.vertices, h=1e-6)
    assert np.abs(grad - fd).max() <= 1e-7 * np.abs(fd).max()


def test_edge_chain_terms_partials_and_edge_subsets():
    net = CurveNetwork(*theta_and_loop())
    a, b, c = random_edge_partials(net, seed=8, terms=(2,))
    both = edge_chain(net, dl=a, dmid=b, dT=c)
    assert both.shape == (2, 3, 2, net.n_edges)
    for k in range(2):
        one = edge_chain(net, dl=a[k], dmid=b[k], dT=c[k])
        np.testing.assert_allclose(both[k], one, rtol=1e-15, atol=1e-15)
    # each partial on its own, and the three add up
    parts = [edge_chain(net, dl=a[0]), edge_chain(net, dmid=b[0]),
             edge_chain(net, dT=c[0])]
    np.testing.assert_allclose(sum(parts), both[0], rtol=1e-13, atol=1e-13)
    # a scalar dl is one value for every edge
    np.testing.assert_array_equal(
        edge_chain(net, dl=-1.0), edge_chain(net, dl=np.full(net.n_edges,
                                                             -1.0)))
    # `edges` gives the derivatives of those edges alone
    sel = np.array([0, 5, 40, net.n_edges - 1])
    sub = edge_chain(net, dl=a[0, sel], dmid=b[0, sel], dT=c[0, sel],
                     edges=sel)
    np.testing.assert_allclose(sub, both[0][..., sel], rtol=1e-15,
                               atol=1e-15)


def test_reconstruction_identity():
    rng = np.random.default_rng(0)
    verts = rng.normal(size=(10, 3))
    edges = np.stack([np.arange(9), np.arange(1, 10)], axis=1)
    net = CurveNetwork(verts, edges)
    geom = net.geometry()
    rebuilt = verts[edges[:, 0]] + geom.lengths[:, None] * geom.tangents
    assert np.allclose(rebuilt, verts[edges[:, 1]], rtol=1e-12, atol=1e-12)
    assert np.allclose(np.linalg.norm(geom.tangents, axis=1), 1.0, atol=1e-12)


def test_dual_masses_sum_to_total_length():
    verts, edges = regular_polygon(17)
    net = CurveNetwork(verts, edges)
    masses = net.dual_masses()
    assert np.all(masses > 0)
    assert masses.sum() == pytest.approx(net.total_length(), rel=1e-12)


def test_edge_average_constant():
    net = CurveNetwork(SQUARE_VERTS, SQUARE_EDGES)
    out = edge_average(net, np.full(4, 3.25))
    assert np.all(out == 3.25)


def test_edge_average_single_edge():
    net = CurveNetwork([[0., 0., 0.], [1., 0., 0.]], [[0, 1]])
    assert edge_average(net, np.array([0.0, 2.0]))[0] == pytest.approx(1.0)


def test_edge_average_matches_direct_formula():
    rng = np.random.default_rng(1)
    net = CurveNetwork(SQUARE_VERTS, SQUARE_EDGES)
    u = rng.normal(size=4)
    expected = np.array([0.5 * (u[i] + u[j]) for i, j in SQUARE_EDGES])
    assert np.allclose(edge_average(net, u), expected)


def test_edge_average_size_mismatch():
    net = CurveNetwork(SQUARE_VERTS, SQUARE_EDGES)
    with pytest.raises(ValueError):
        edge_average(net, np.zeros(5))


def test_disjoint_pairs_square():
    net = CurveNetwork(SQUARE_VERTS, SQUARE_EDGES)
    pi, pj = net.disjoint_edge_pairs()
    # row-major in (I, J)
    assert list(zip(pi.tolist(), pj.tolist())) \
        == [(0, 2), (1, 3), (2, 0), (3, 1)]


def test_snapshots_share_pair_arrays():
    net = CurveNetwork(SQUARE_VERTS, SQUARE_EDGES)
    moved = net.with_positions(net.vertices + 0.1)
    again = moved.with_positions(moved.vertices * 2.0)
    pi, pj = net.disjoint_edge_pairs()
    for snap in (moved, again):
        qi, qj = snap.disjoint_edge_pairs()
        assert qi is pi and qj is pj
    assert not pi.flags.writeable


def test_snapshot_shares_read_only_edges():
    edges = SQUARE_EDGES.copy()
    net = CurveNetwork(SQUARE_VERTS, edges)
    moved = net.with_positions(SQUARE_VERTS + 0.5)
    assert moved.edges is net.edges
    assert not net.edges.flags.writeable
    edges[0] = [0, 2]       # the network keeps its own validated copy
    assert np.array_equal(net.edges, SQUARE_EDGES)
    assert np.allclose(moved.geometry().midpoints,
                       net.geometry().midpoints + 0.5)


@pytest.mark.parametrize("bad", ["nan", "zero-length", "count", "shape"])
def test_snapshot_positions_still_checked(bad):
    net = CurveNetwork(SQUARE_VERTS, SQUARE_EDGES)
    verts = SQUARE_VERTS.copy()
    if bad == "nan":
        verts[2, 1] = np.nan
    elif bad == "zero-length":
        verts[1] = verts[0]
    elif bad == "count":
        verts = np.vstack([verts, [[5., 5., 5.]]])
    else:
        verts = verts[:, :2]
    with pytest.raises(InvalidNetworkError):
        net.with_positions(verts)


def test_stack_roundtrip():
    rng = np.random.default_rng(2)
    field = rng.normal(size=(6, 3))
    assert np.array_equal(unstack_fields(stack_fields(field)), field)
    vec = stack_fields(field)
    assert np.array_equal(vec[:6], field[:, 0])


def test_adjacent_vertex_triples_match_loops():
    # two junctures (0 and 1) joined by three arcs, with a tail at vertex 1
    edges = np.array([[0, 2], [2, 1], [0, 3], [3, 1], [0, 4], [4, 5],
                      [5, 1], [1, 6]])
    verts = np.random.default_rng(3).normal(size=(7, 3))
    net = CurveNetwork(verts, edges)
    rows, cols, full, group, J = net.adjacent_vertex_triples()
    ends = [set(e) for e in edges.tolist()]
    expected = {(I, w, K) for I in range(len(edges)) for K in range(len(edges))
                if ends[I] & ends[K] for w in ends[K]}
    triples = list(zip(rows[group].tolist(), cols[group].tolist(), J.tolist()))
    assert len(triples) == len(expected) and set(triples) == expected
    assert np.all(np.diff(rows * net.n_vertices + cols) > 0)
    for I, w, is_full in zip(rows, cols, full):
        assert is_full == all(ends[I] & ends[K] for K in range(len(edges))
                              if w in ends[K])
    moved = net.with_positions(verts + 1.0)
    assert moved.adjacent_vertex_triples()[0] is rows
    assert not rows.flags.writeable
