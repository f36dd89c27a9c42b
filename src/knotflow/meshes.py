"""Triangle meshes: OBJ ingestion, face aggregates, and signed distance.

Meshes act as obstacles (surface potential) and as constraint surfaces via a
signed-distance adapter with angle-weighted pseudonormals.
"""

from __future__ import annotations

import numpy as np

from .bvh import median_split_tree, node_boxes, tree_levels


class TriangleMesh:
    """Vertices (n, 3) and triangular faces (m, 3) with cached aggregates."""

    def __init__(self, vertices, faces):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = np.asarray(faces, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("mesh vertices must be (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("mesh faces must be (m, 3) triangles")
        if len(self.faces) == 0:
            raise ValueError("mesh has no faces")
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        cross = np.cross(b - a, c - a)
        self.face_areas = 0.5 * np.linalg.norm(cross, axis=1)
        self.face_centroids = (a + b + c) / 3.0
        norms = np.linalg.norm(cross, axis=1)
        norms[norms == 0] = 1.0
        self.face_normals = cross / norms[:, None]

    @property
    def n_faces(self):
        return len(self.faces)


def read_obj(path, key: str):
    """The vertices and the `key` records ('l' lines or 'f' faces) of an OBJ
    file: a list of [x, y, z] and a list of ("path:line", 0-based indices).
    A malformed record raises ValueError naming its file and line."""
    verts, records = [], []
    noun = {"l": "line", "f": "face"}[key]
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            where = f"{path}:{lineno}"
            if parts[:1] == ["v"]:
                try:
                    xyz = [float(x) for x in parts[1:4]]
                except ValueError:
                    xyz = []
                if len(xyz) < 3:
                    raise ValueError(f"{where}: a vertex needs 3 numeric "
                                     f"coordinates: {line.strip()!r}")
                verts.append(xyz)
            elif parts[:1] == [key]:
                idx = [tok.split("/")[0] for tok in parts[1:]]
                if not all(t.isdecimal() and int(t) > 0 for t in idx):
                    raise ValueError(f"{where}: {noun} indices must be "
                                     f"positive integers: {line.strip()!r}")
                records.append((where, [int(t) - 1 for t in idx]))
    for where, idx in records:
        if max(idx, default=-1) >= len(verts):
            raise ValueError(f"{where}: index {max(idx) + 1} is past the "
                             f"{len(verts)} vertices")
    return verts, records


def load_obj_mesh(path) -> TriangleMesh:
    """Read an OBJ file with 'v' and triangular 'f' records (`read_obj`)."""
    verts, faces = read_obj(path, "f")
    for where, face in faces:
        if len(face) != 3:
            raise ValueError(f"{where}: only triangular faces supported")
    if not verts or not faces:
        raise ValueError(f"{path}: no usable geometry")
    return TriangleMesh(verts, [face for _, face in faces])


class FaceTree:
    """Binary AABB tree over mesh faces with area-weighted centroid aggregates.

    Used to cull the far field of the surface potential: a node whose bounding
    radius is small relative to the query distance contributes a single lumped
    term (total area at the aggregate centroid).  The faces are split by
    `bvh.median_split_tree` on their centroids, and the aggregates reduce
    the leaf runs and combine the levels bottom up, like `bvh.EdgeBvh.refit`.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self.order, self.start, self.end, self.left, self.right = \
            median_split_tree(mesh.face_centroids)
        self.leaves, self.levels = tree_levels(self.start, self.left,
                                               self.right)
        sel, leaves = self.order, self.leaves
        runs = self.start[leaves]
        areas = mesh.face_areas[sel]
        n = len(self.left)
        self.area, moment = np.zeros(n), np.zeros((n, 3))
        self.area[leaves] = np.add.reduceat(areas, runs)
        moment[leaves] = np.add.reduceat(
            areas[:, None] * mesh.face_centroids[sel], runs)
        for nodes in self.levels:
            l, r = self.left[nodes], self.right[nodes]
            self.area[nodes] = self.area[l] + self.area[r]
            moment[nodes] = moment[l] + moment[r]
        tri = mesh.vertices[mesh.faces]           # (m, 3, 3)
        self.lo, self.hi = node_boxes(self, tri.min(axis=1), tri.max(axis=1))
        self.centroid = moment / np.maximum(self.area, 1e-300)[:, None]
        self.radius = 0.5 * np.linalg.norm(self.hi - self.lo, axis=1)


def closest_point_on_triangles(points, a, b, c):
    """Closest points on triangles (a, b, c) for each query point (vectorized).

    points: (n, 3); a, b, c: (n, 3) triangle corners.  Returns (n, 3).
    Standard barycentric region classification.
    """
    ab = b - a
    ac = c - a
    ap = points - a
    d1 = np.einsum("ni,ni->n", ab, ap)
    d2 = np.einsum("ni,ni->n", ac, ap)
    bp = points - b
    d3 = np.einsum("ni,ni->n", ab, bp)
    d4 = np.einsum("ni,ni->n", ac, bp)
    cp = points - c
    d5 = np.einsum("ni,ni->n", ab, cp)
    d6 = np.einsum("ni,ni->n", ac, cp)

    out = np.empty_like(points)
    done = np.zeros(len(points), dtype=bool)

    def assign(mask, value):
        todo = mask & ~done
        out[todo] = value[todo] if value.ndim == 2 else value
        done[todo] = True

    assign((d1 <= 0) & (d2 <= 0), a)                       # vertex a
    assign((d3 >= 0) & (d4 <= d3), b)                      # vertex b
    assign((d6 >= 0) & (d5 <= d6), c)                      # vertex c

    vc = d1 * d4 - d3 * d2
    v = np.where(np.abs(d1 - d3) > 0, d1 / np.where(d1 - d3 == 0, 1, d1 - d3), 0)
    assign((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v[:, None] * ab)  # edge ab

    vb = d5 * d2 - d1 * d6
    w = np.where(np.abs(d2 - d6) > 0, d2 / np.where(d2 - d6 == 0, 1, d2 - d6), 0)
    assign((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w[:, None] * ac)  # edge ac

    va = d3 * d6 - d5 * d4
    denom = (d4 - d3) + (d5 - d6)
    t = np.where(denom != 0, (d4 - d3) / np.where(denom == 0, 1, denom), 0)
    assign((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
           b + t[:, None] * (c - b))                       # edge bc

    den = va + vb + vc
    den = np.where(den == 0, 1, den)
    v_in = vb / den
    w_in = vc / den
    assign(np.ones(len(points), dtype=bool),
           a + v_in[:, None] * ab + w_in[:, None] * ac)    # interior
    return out


class MeshSignedDistance:
    """Signed distance to a triangle mesh, with gradient.

    Sign comes from angle-weighted pseudonormals at the closest feature, so it
    is meaningful for watertight meshes.  Usable as an implicit surface for
    SurfaceConstraint.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self._vertex_normals = self._angle_weighted_normals()

    def _angle_weighted_normals(self):
        mesh = self.mesh
        normals = np.zeros_like(mesh.vertices)
        tri = mesh.vertices[mesh.faces]
        for corner in range(3):
            p = tri[:, corner]
            q = tri[:, (corner + 1) % 3]
            r = tri[:, (corner + 2) % 3]
            u = q - p
            v = r - p
            cosang = np.einsum("ni,ni->n", u, v) \
                / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            ang = np.arccos(np.clip(cosang, -1, 1))
            np.add.at(normals, mesh.faces[:, corner],
                      ang[:, None] * mesh.face_normals)
        norms = np.linalg.norm(normals, axis=1)
        norms[norms == 0] = 1.0
        return normals / norms[:, None]

    def _closest(self, x):
        mesh = self.mesh
        pts = np.broadcast_to(x, (mesh.n_faces, 3))
        tri = mesh.vertices[mesh.faces]
        cp = closest_point_on_triangles(pts, tri[:, 0], tri[:, 1], tri[:, 2])
        d2 = np.einsum("ni,ni->n", cp - x, cp - x)
        f = int(np.argmin(d2))
        return f, cp[f], float(np.sqrt(d2[f]))

    def _pseudonormal(self, face, cp):
        mesh = self.mesh
        tri = mesh.vertices[mesh.faces[face]]
        # barycentric coordinates of cp
        T = np.stack([tri[1] - tri[0], tri[2] - tri[0]], axis=1)
        sol, *_ = np.linalg.lstsq(T, cp - tri[0], rcond=None)
        bary = np.array([1 - sol.sum(), sol[0], sol[1]])
        tol = 1e-9
        on_vertex = bary > 1 - tol
        if on_vertex.any():
            return self._vertex_normals[mesh.faces[face][np.argmax(bary)]]
        off_edge = bary < tol
        if off_edge.any():
            # edge opposite the near-zero coordinate; average the two
            # endpoint vertex normals as a cheap edge pseudonormal
            i = int(np.argmin(bary))
            vids = [mesh.faces[face][j] for j in range(3) if j != i]
            n = self._vertex_normals[vids[0]] + self._vertex_normals[vids[1]]
            return n / max(np.linalg.norm(n), 1e-30)
        return mesh.face_normals[face]

    def value(self, x):
        x = np.asarray(x, float)
        face, cp, dist = self._closest(x)
        n = self._pseudonormal(face, cp)
        sign = 1.0 if float((x - cp) @ n) >= 0 else -1.0
        return sign * dist

    def gradient(self, x):
        x = np.asarray(x, float)
        face, cp, dist = self._closest(x)
        n = self._pseudonormal(face, cp)
        if dist < 1e-12:
            return n
        sign = 1.0 if float((x - cp) @ n) >= 0 else -1.0
        return sign * (x - cp) / dist
