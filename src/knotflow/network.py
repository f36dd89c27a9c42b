"""Curve networks: vertex positions plus an edge graph, and per-edge geometry.

A network may contain closed loops, open arcs, and junctures where three or
more edges meet.  Positions are stored in double precision; the repulsive
kernels downstream divide by near-zero distances, so float32 is not enough.

`edge_chain` is the one chain rule from edge length, midpoint and tangent to
the vertices: the edge constraints and the penalties declare their partials
in those and take their derivatives from it (the energy keeps its own).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix


class InvalidNetworkError(ValueError):
    """Raised when vertices/edges do not form a valid embedded curve network."""


def stack_fields(field: np.ndarray) -> np.ndarray:
    """Flatten an (n, 3) vertex field to a stacked (3n,) vector [x; y; z]."""
    field = np.asarray(field, dtype=float)
    return field.T.reshape(-1).copy()


def unstack_fields(vec: np.ndarray) -> np.ndarray:
    """Inverse of stack_fields: (3n,) -> (n, 3)."""
    vec = np.asarray(vec, dtype=float)
    n = vec.size // 3
    return vec.reshape(3, n).T.copy()


def per_coordinate(apply, vec: np.ndarray) -> np.ndarray:
    """blockdiag(op, op, op) @ vec for a stacked vector, which is a C-ordered
    (3, n) array in memory: `apply`, op's single-vector product, is called
    once per coordinate row of that view, with no copy on the way in."""
    return np.concatenate([apply(row) for row in vec.reshape(3, -1)])


@dataclass(frozen=True)
class EdgeGeometry:
    """Per-edge length, unit tangent, and midpoint arrays."""

    lengths: np.ndarray   # (E,)
    tangents: np.ndarray  # (E, 3) unit vectors
    midpoints: np.ndarray  # (E, 3)


class CurveNetwork:
    """Immutable snapshot of a curve network.

    Parameters
    ----------
    vertices : (V, 3) array of positions.
    edges : (E, 2) array of vertex index pairs.

    Vertices of degree 1 are endpoints, degree 2 interior, degree >= 3
    junctures.  Edge direction (i1 -> i2) fixes the sign of the unit tangent.
    """

    def __init__(self, vertices, edges):
        vertices = _checked_positions(vertices)
        # a private read-only copy: the edges are validated once, here, and
        # shared by every `with_positions` snapshot
        edges = np.array(np.atleast_2d(edges), dtype=int)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise InvalidNetworkError(f"edges must be (E, 2), got {edges.shape}")
        if len(vertices) < 2 or len(edges) < 1:
            raise InvalidNetworkError("need at least 2 vertices and 1 edge")
        if edges.min() < 0 or edges.max() >= len(vertices):
            raise InvalidNetworkError("edge index out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            bad = int(np.flatnonzero(edges[:, 0] == edges[:, 1])[0])
            raise InvalidNetworkError(f"edge {bad} has coincident endpoints")
        key = np.sort(edges, axis=1)
        _, counts = np.unique(key, axis=0, return_counts=True)
        if np.any(counts > 1):
            raise InvalidNetworkError("duplicate edge")
        edges.setflags(write=False)
        self._set(vertices, edges, {})

    def _set(self, vertices, edges, topology: dict):
        self.vertices = vertices
        self.edges = edges
        self._geometry = edge_geometry(self)   # rejects zero-length edges
        # adjacency triples, interior incidence and the pair list, which
        # depend on the edges alone; shared by snapshots
        self._topology = topology

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def with_positions(self, vertices) -> "CurveNetwork":
        """New network with the same edges and updated positions.

        The snapshot shares this network's validated edges and topology
        caches (adjacency triples, interior incidence, the pair list); only
        the positions are checked."""
        vertices = _checked_positions(vertices)
        if len(vertices) != self.n_vertices:
            raise InvalidNetworkError(
                f"expected {self.n_vertices} vertices, got {len(vertices)}")
        net = object.__new__(CurveNetwork)
        net._set(vertices, self.edges, self._topology)
        return net

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.reshape(-1), minlength=self.n_vertices)

    @property
    def interior_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.degrees == 2)

    @property
    def endpoints(self) -> np.ndarray:
        return np.flatnonzero(self.degrees == 1)

    @property
    def junctures(self) -> np.ndarray:
        return np.flatnonzero(self.degrees >= 3)

    def geometry(self) -> EdgeGeometry:
        return self._geometry

    def total_length(self) -> float:
        return float(self.geometry().lengths.sum())

    def dual_masses(self) -> np.ndarray:
        """Per-vertex lumped mass: half the sum of incident edge lengths."""
        lengths = self.geometry().lengths
        masses = np.zeros(self.n_vertices)
        np.add.at(masses, self.edges[:, 0], 0.5 * lengths)
        np.add.at(masses, self.edges[:, 1], 0.5 * lengths)
        return masses

    def adjacent_vertex_triples(self) -> tuple[np.ndarray, ...]:
        """Triples (I, w, J) with J = I or J sharing a vertex with I, and w a
        vertex of J, grouped by their (I, w) pair; built once per topology.

        Returns (rows, cols, full, group, J): the distinct pairs (rows[u],
        cols[u]), sorted by row and then column; full[u], true where every
        edge at cols[u] shares a vertex with rows[u]; and for each triple its
        pair index group and its edge J.
        """
        if "triples" not in self._topology:
            E, V = self.n_edges, self.n_vertices
            incidence = csr_matrix(
                (np.ones(2 * E), (np.repeat(np.arange(E), 2),
                                  self.edges.reshape(-1))), shape=(E, V))
            adjacent = (incidence @ incidence.T).tocoo()
            I, J = np.repeat(adjacent.row, 2), np.repeat(adjacent.col, 2)
            keys, group, counts = np.unique(
                I * V + self.edges[adjacent.col].reshape(-1),
                return_inverse=True, return_counts=True)
            rows, cols = np.divmod(keys, V)
            full = counts == self.degrees[cols]
            self._topology["triples"] = _read_only(
                rows, cols, full, group, J.astype(int))
        return self._topology["triples"]

    def interior_incidence(self) -> tuple[np.ndarray, ...]:
        """Each degree-2 vertex with its two edges, in edge order, and the
        neighbors across them; built once per topology.

        Returns (vertices, edges, neighbors): the interior vertices in
        increasing order, (n,), and for each its edges and neighbors, (n, 2).
        """
        if "interior" not in self._topology:
            ends = self.edges.reshape(-1)
            slots = np.argsort(ends, kind="stable")   # by vertex, then edge
            degrees = self.degrees
            vertices = np.flatnonzero(degrees == 2)
            first = (np.cumsum(degrees) - degrees)[vertices]
            slot = slots[first[:, None] + np.arange(2)]
            self._topology["interior"] = _read_only(
                vertices, slot // 2, ends[slot ^ 1])
        return self._topology["interior"]

    def disjoint_edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ordered edge pairs (I, J) sharing no vertex, row-major in (I, J),
        as two read-only index arrays, built once per topology.

        Nothing in the package reads this E^2 list: it stays only for the
        `flowbench` spans, which patch it, and for tests.
        """
        if "ordered" not in self._topology:
            self._topology["ordered"] = _read_only(*exact_pairs(
                self, *np.divmod(np.arange(self.n_edges ** 2), self.n_edges)))
        return self._topology["ordered"]


def unit_vector(vector, name: str) -> np.ndarray:
    """`vector` scaled to unit length; a zero or non-finite one raises a
    ValueError naming it as `name`."""
    vector = np.asarray(vector, float)
    norm = np.linalg.norm(vector)
    if not 0.0 < norm < np.inf:                     # NaN fails too
        raise ValueError(f"{name} must be a finite nonzero vector")
    return vector / norm


def finite_array(value, name: str) -> np.ndarray:
    """`value` as a float array, 0-d for a number; a non-finite entry raises
    a ValueError naming it as `name`."""
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _checked_positions(vertices) -> np.ndarray:
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise InvalidNetworkError(f"vertices must be (V, 3), got {vertices.shape}")
    if not np.all(np.isfinite(vertices)):
        raise InvalidNetworkError("vertex positions must be finite")
    return vertices


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def edges_share_vertex(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Elementwise test whether edge rows ea and eb share an endpoint."""
    return ((ea[:, 0] == eb[:, 0]) | (ea[:, 0] == eb[:, 1])
            | (ea[:, 1] == eb[:, 0]) | (ea[:, 1] == eb[:, 1]))


def exact_pairs(net: CurveNetwork, I: np.ndarray,
                J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edge pairs (I, J) the energy and the metric sum over: those that
    are neither identical nor adjacent, in their given order."""
    keep = (I != J) & ~edges_share_vertex(net.edges[I], net.edges[J])
    return I[keep], J[keep]


def edge_geometry(net: CurveNetwork) -> EdgeGeometry:
    """Lengths, unit tangents, and midpoints for every edge."""
    a = net.vertices[net.edges[:, 0]]
    b = net.vertices[net.edges[:, 1]]
    diffs = b - a
    lengths = np.linalg.norm(diffs, axis=1)
    if np.any(lengths == 0.0):
        bad = int(np.flatnonzero(lengths == 0.0)[0])
        raise InvalidNetworkError(f"edge {bad} has zero length")
    tangents = diffs / lengths[:, None]
    midpoints = 0.5 * (a + b)
    return EdgeGeometry(lengths=lengths, tangents=tangents, midpoints=midpoints)


def edge_average(net: CurveNetwork, u: np.ndarray) -> np.ndarray:
    """Average per-vertex values onto edges: u_I = (u_{i1} + u_{i2}) / 2."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != net.n_vertices:
        raise ValueError(f"expected {net.n_vertices} vertex values, got {u.shape[0]}")
    return 0.5 * (u[net.edges[:, 0]] + u[net.edges[:, 1]])


def edge_chain(net: CurveNetwork, dl=None, dmid=None, dT=None,
               edges: np.ndarray | None = None) -> np.ndarray:
    """Derivatives at both ends of each edge of per-edge terms f_I(l_I, x_I,
    T_I), from the partials dl, (..., E) or one scalar, and dmid and dT,
    (..., E, 3), of the edges `edges` (all if None); an absent partial costs
    nothing.  With dl_I/dx = -+T_I, dx_I/dx = Id / 2 and dT_I/dx =
    -+(Id - T_I T_I^t) / l_I at the ends i1 and i2, the derivative is
    -+(dl T_I + (dT - (dT . T_I) T_I) / l_I) + dmid / 2.  Returns
    (..., 3, 2, E): component d at end a, the layout of `stack_fields`."""
    geom = net.geometry()
    T, lengths = geom.tangents.T, geom.lengths
    if edges is not None:
        T, lengths = T[:, edges], lengths[edges]
    T = np.ascontiguousarray(T)         # (3, E) rows, like the results

    def rows(partial):                  # (..., E, 3) -> (..., 3, E)
        return np.ascontiguousarray(np.swapaxes(partial, -1, -2))

    along = np.zeros_like(T) if dl is None \
        else np.reshape(dl, np.shape(dl)[:-1] + (1, -1)) * T
    if dT is not None:
        dT = rows(dT)
        along = along + (dT - (dT * T).sum(axis=-2, keepdims=True) * T) \
            / lengths
    if dmid is None:
        return np.stack([-along, along], axis=-2)
    half = 0.5 * rows(dmid)
    return np.stack([half - along, half + along], axis=-2)
