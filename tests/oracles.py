"""Independent brute-force oracles shared by the test suite.

Everything here is written as plain loops over the defining formulas, kept
deliberately separate from the library's vectorized implementations.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags_array

from knotflow.bct import trapezoid_kernels
from knotflow.bvh import run_pairs
from knotflow.constraints import (PROJECTION_TOL, Barycenter, EdgeLengths,
                                  ProjectionFailure, TangentConstraint,
                                  TotalLength)
from knotflow.energy import SelfContactError
from knotflow.meshes import TriangleMesh
from knotflow.metric import (_congruence, _tangent_scaled, average_matrix,
                             derivative_matrix, difference_matrix)
from knotflow.network import (CurveNetwork, edges_share_vertex, exact_pairs,
                              unstack_fields)
from knotflow.potentials import SURFACE_THETA, SurfacePotential
from knotflow.scenes import generate_test_curve


def finite_difference_gradient(func, x0, h=1e-5):
    """Central-difference gradient of a scalar function of an (n, 3) array."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (func(xp) - func(xm)) / (2 * h)
        it.iternext()
    return grad


def kernel_value(p, q, T, alpha, beta):
    """|T x (p - q)|^alpha / |p - q|^beta in scalar arithmetic."""
    dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
    tx, ty, tz = T
    cx = ty * dz - tz * dy
    cy = tz * dx - tx * dz
    cz = tx * dy - ty * dx
    cr = math.sqrt(cx * cx + cy * cy + cz * cz)
    return cr ** alpha / math.sqrt(dx * dx + dy * dy + dz * dz) ** beta


def brute_energy(vertices, edges, alpha, beta):
    """Direct loop evaluation of the trapezoidal tangent-point energy."""
    pts = [tuple(float(c) for c in v) for v in vertices]
    edges = [(int(i1), int(i2)) for i1, i2 in edges]

    def length(i1, i2):
        return math.sqrt(sum((b - a) ** 2 for a, b in zip(pts[i1], pts[i2])))

    total = 0.0
    for i1, i2 in edges:
        li = length(i1, i2)
        ti = [(b - a) / li for a, b in zip(pts[i1], pts[i2])]
        for j1, j2 in edges:
            if {i1, i2} & {j1, j2}:
                continue
            lj = length(j1, j2)
            khat = 0.25 * sum(
                kernel_value(pts[i], pts[j], ti, alpha, beta)
                for i in (i1, i2) for j in (j1, j2))
            total += khat * li * lj
    return total


def edge_local_derivative(vertices, edge, u):
    """D_I u = (u_{i2} - u_{i1}) T_I / l_I as a 3-vector."""
    i1, i2 = edge
    d = vertices[i2] - vertices[i1]
    li = np.linalg.norm(d)
    return (u[i2] - u[i1]) * d / li ** 2


def brute_high_order_form(vertices, edges, sigma, u, v):
    """Direct double-sum evaluation of the high-order bilinear form."""
    vertices = np.asarray(vertices, float)
    total = 0.0
    for I, (i1, i2) in enumerate(edges):
        li = np.linalg.norm(vertices[i2] - vertices[i1])
        for J, (j1, j2) in enumerate(edges):
            if {i1, i2} & {j1, j2}:
                continue
            lj = np.linalg.norm(vertices[j2] - vertices[j1])
            w = 0.25 * li * lj * sum(
                1.0 / np.linalg.norm(vertices[i] - vertices[j]) ** (2 * sigma + 1)
                for i in (i1, i2) for j in (j1, j2))
            du = edge_local_derivative(vertices, (i1, i2), u) \
                - edge_local_derivative(vertices, (j1, j2), u)
            dv = edge_local_derivative(vertices, (i1, i2), v) \
                - edge_local_derivative(vertices, (j1, j2), v)
            total += w * float(du @ dv)
    return total


def brute_low_order_form(vertices, edges, sigma, u, v):
    """Direct double-sum evaluation of the low-order bilinear form."""
    vertices = np.asarray(vertices, float)
    total = 0.0
    for I, (i1, i2) in enumerate(edges):
        li = np.linalg.norm(vertices[i2] - vertices[i1])
        ti = (vertices[i2] - vertices[i1]) / li
        ui = 0.5 * (u[i1] + u[i2])
        vi = 0.5 * (v[i1] + v[i2])
        for J, (j1, j2) in enumerate(edges):
            if {i1, i2} & {j1, j2}:
                continue
            lj = np.linalg.norm(vertices[j2] - vertices[j1])
            w0 = 0.25 * li * lj * sum(
                kernel_value(vertices[i], vertices[j], ti, 2.0, 4.0)
                / np.linalg.norm(vertices[i] - vertices[j]) ** (2 * sigma + 1)
                for i in (i1, i2) for j in (j1, j2))
            uj = 0.5 * (u[j1] + u[j2])
            vj = 0.5 * (v[j1] + v[j2])
            total += w0 * (ui - uj) * (vi - vj)
    return total


def saddle_matrix(A, C):
    """Full saddle matrix [[blockdiag(A, A, A), C^T], [C, 0]], built densely."""
    C = np.asarray(C, float)
    n, k = 3 * len(A), len(C)
    M = np.zeros((n + k, n + k))
    for c in range(3):
        M[c * len(A):(c + 1) * len(A), c * len(A):(c + 1) * len(A)] = A
    M[:n, n:] = C.T
    M[n:, :n] = C
    return M


def lu_saddle_solve(A, C, top=None, bottom=None):
    """Solve the full saddle system by dense LU; returns (primal, mult)."""
    import scipy.linalg

    M = saddle_matrix(A, C)
    n = 3 * len(A)
    rhs = np.zeros(len(M))
    if top is not None:
        rhs[:n] = top
    if bottom is not None:
        rhs[n:] = bottom
    sol = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), rhs)
    return sol[:n], sol[n:]


def regular_polygon(n, radius=1.0):
    """Closed regular n-gon inscribed in a circle of the given radius."""
    theta = 2 * np.pi * np.arange(n) / n
    verts = np.stack([radius * np.cos(theta), radius * np.sin(theta),
                      np.zeros(n)], axis=1)
    edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return verts, edges


def perturbed_polygon(n, seed, amplitude=0.05):
    """Regular n-gon with seeded radial and vertical noise."""
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * np.arange(n) / n
    r = 1.0 + amplitude * rng.uniform(-1, 1, n)
    verts = np.stack([r * np.cos(theta), r * np.sin(theta),
                      amplitude * rng.uniform(-1, 1, n)], axis=1)
    edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return verts, edges


def theta_and_loop(m=32, n_loop=48, seed=4):
    """A theta graph (two degree-3 junctures joined by three arcs of m edges,
    interior vertices jittered) next to a separate closed loop."""
    rng = np.random.default_rng(seed)
    t = np.pi * np.arange(1, m) / m
    verts = [[0., 0., 1.], [0., 0., -1.]]
    edges = []
    for k in range(3):
        phi = 2 * np.pi * k / 3
        arc = np.stack([np.sin(t) * np.cos(phi), np.sin(t) * np.sin(phi),
                        np.cos(t)], axis=1) + rng.uniform(-0.02, 0.02, (m - 1, 3))
        ids = [0] + list(range(len(verts), len(verts) + m - 1)) + [1]
        verts.extend(arc)
        edges.extend(zip(ids[:-1], ids[1:]))
    theta = 2 * np.pi * np.arange(n_loop) / n_loop
    start = len(verts)
    verts.extend(np.stack([3 + np.cos(theta), np.zeros(n_loop), np.sin(theta)],
                          axis=1))
    edges.extend((start + i, start + (i + 1) % n_loop) for i in range(n_loop))
    return np.array(verts), np.array(edges)


def smooth_circle():
    """A smooth 256-edge perturbed circle: an input with a far field.

    A balanced tree leaves the small noisy polygons above without admissible
    blocks or lumped nodes: a node of more than 8 of their edges has a
    tangent radius wider than eps, so the exact near field is the answer.
    Far-field tests therefore also run on this curve.
    """
    return generate_test_curve("perturbed-circle", 256, seed=5)


def mixed_circle():
    """A 512-edge perturbed circle whose multigrid hierarchy mixes metrics.

    The near blocks of its finest level hold a quarter of the edge pairs, so
    that level applies `HierMetric`; the coarser levels' near blocks hold
    0.77 of them or more, so they apply the dense metric.  Multigrid tests
    of the hierarchical metric run on this curve, where `smooth_circle`
    gets a dense hierarchy.
    """
    return generate_test_curve("perturbed-circle", 512, seed=5)


def segments_cross_2d(p1, p2, q1, q2):
    """Exact-ish proper intersection test for 2D segments."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def component_labels(net):
    """Connected-component label per vertex (labels are 0..c-1)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    i, j = net.edges[:, 0], net.edges[:, 1]
    adj = coo_matrix((np.ones(len(i)), (i, j)), shape=(net.n_vertices,) * 2)
    return connected_components(adj, directed=False)[1]


def tree_depth(left, right):
    """Edges on the longest root-to-leaf path of a flat binary tree."""
    deepest, stack = 0, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if left[node] >= 0:
            stack += [(left[node], depth + 1), (right[node], depth + 1)]
    return deepest


def coverage_count(bct):
    """Total edge pairs covered by all leaf blocks (should tile E x E)."""
    sizes = bct.bvh.end - bct.bvh.start
    blocks = [*zip(bct.adm_a, bct.adm_b), *zip(bct.near_a, bct.near_b)]
    return sum(int(sizes[a] * sizes[b]) for a, b in blocks)


class ExhaustiveSurfacePotential(SurfacePotential):
    """`SurfacePotential` summed over every face, with no tree lumping."""

    def _midpoint_terms(self, midpoints, expo):
        mesh = self.mesh
        values, forces = np.zeros(len(midpoints)), np.zeros_like(midpoints)
        for i, x in enumerate(midpoints):
            d = x - mesh.face_centroids
            r2 = np.einsum("fi,fi->f", d, d)
            if np.any(r2 == 0.0):
                raise ValueError("curve touches the obstacle mesh")
            r = np.sqrt(r2)
            contrib = mesh.face_areas / r ** expo
            values[i] = contrib.sum()
            forces[i] = np.einsum("f,fi->i", -expo * contrib / r2, d)
        return values, forces


def surface_walk(tree, midpoints, expo):
    """The face tree walked midpoint by midpoint from a node stack: the
    reference for `potentials.surface_plan` and the surface potential's
    midpoint terms.

    Returns (lumped, faces, values, forces): the sets of (edge, node) pairs
    lumped and of (edge, face) pairs summed face by face, and each
    midpoint's potential (E,) and gradient (E, 3).  An evaluated node or
    face at distance zero is contact and raises ValueError.
    """
    mesh = tree.mesh
    lumped, faces = set(), set()
    values, forces = np.zeros(len(midpoints)), np.zeros_like(midpoints)
    for i, x in enumerate(midpoints):
        stack = [0]
        while stack:
            node = stack.pop()
            d = x - tree.centroid[node]
            dist = np.linalg.norm(d)
            if tree.radius[node] <= SURFACE_THETA * dist:
                if dist == 0.0:
                    raise ValueError("curve touches the obstacle mesh")
                lumped.add((i, node))
                contrib = tree.area[node] / dist ** expo
                values[i] += contrib
                forces[i] += -expo * contrib / dist ** 2 * d
            elif tree.left[node] >= 0:
                stack.append(tree.left[node])
                stack.append(tree.right[node])
            else:
                sel = tree.order[tree.start[node]:tree.end[node]]
                faces.update((i, int(f)) for f in sel)
                dd = x - mesh.face_centroids[sel]
                r2 = np.einsum("fi,fi->f", dd, dd)
                if np.any(r2 == 0.0):
                    raise ValueError("curve touches the obstacle mesh")
                r = np.sqrt(r2)
                contrib = mesh.face_areas[sel] / r ** expo
                values[i] += contrib.sum()
                forces[i] += np.einsum("f,fi->i", -expo * contrib / r2, dd)
    return lumped, faces, values, forces


def save_obj_mesh(path, mesh):
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def octahedron_sphere(radius=1.0, subdivisions=2):
    """Sphere approximation by subdividing an octahedron."""
    verts = [np.array(v, float) for v in
             [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
              (0, 0, 1), (0, 0, -1)]]
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    for _ in range(subdivisions):
        new_faces = []
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for (i, j, k) in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = new_faces
    return TriangleMesh(radius * np.array(verts), np.array(faces))


def hier_apply_high(hm, u):
    """B u from `hm`'s kernel matrices, matrix-free: sum_c D_c^T (diag(K 1) -
    K) D_c u with K, and the row sums K 1, applied through
    `HierKernelMatrix.matvec`; the reference for the compiled
    `HierMetric.apply`."""
    D = derivative_matrix(hm.net)
    du = D @ u                                           # (3E,) or (3E, m)
    t = du.reshape(hm.net.n_edges, -1)                   # (E, 3) or (E, 3m)
    K = hm.k_high
    y = K.matvec(np.ones(len(t)))[:, None] * t - K.matvec(t)
    return D.T @ y.reshape(du.shape)


def hier_apply_low(hm, u):
    """B0 u from `hm`'s kernel matrices, matrix-free: E^T (diag(K0 1) - K0)
    E u, the low-order half of the reference for `HierMetric.apply`."""
    E = average_matrix(hm.net)
    a = E @ u                                            # (E,) or (E, m)
    t = a.reshape(hm.net.n_edges, -1)
    K = hm.k_low
    y = K.matvec(np.ones(len(t)))[:, None] * t - K.matvec(t)
    return E.T @ y.reshape(a.shape)


def traverse_dfs(net, bvh, eps):
    """Barnes-Hut traversal node by node from a stack: the reference for
    `bvh.bh_plan`.

    Returns (far, I, J): `far` lists the admissible groups (node, edges),
    each lumped against its node, and (I, J) are the ordered leaf pairs, I
    traversing and J in a leaf, with identical and adjacent pairs dropped.
    """
    geom = net.geometry()
    far, near_i, near_j = [], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    stack = [(0, np.arange(net.n_edges))]
    while stack:
        node, active = stack.pop()
        d = geom.midpoints[active] - bvh.com[node]
        dist = np.linalg.norm(d, axis=1)
        if eps > 0:
            half = 0.5 * geom.lengths[active]
            reach = bvh.r_x[node] + half
            admissible = (dist > 2 * bvh.r_x[node] + half) \
                & (reach <= eps * dist) & (bvh.r_T[node] <= eps)
        else:
            admissible = np.zeros(len(active), dtype=bool)
        if np.any(admissible):
            far.append((node, active[admissible]))
        rest = active[~admissible]
        if len(rest) == 0:
            continue
        if bvh.left[node] < 0:
            leaf_edges = bvh.order[bvh.start[node]:bvh.end[node]]
            I = np.repeat(rest, len(leaf_edges))
            J = np.tile(leaf_edges, len(rest))
            keep = (I != J) & ~edges_share_vertex(net.edges[I], net.edges[J])
            near_i.append(I[keep])
            near_j.append(J[keep])
        else:
            stack.append((bvh.left[node], rest))
            stack.append((bvh.right[node], rest))
    return far, np.concatenate(near_i), np.concatenate(near_j)


def bct_dfs(bvh, eps):
    """Block cluster tree block by block, recursively from the root block:
    the reference for `bct.BlockClusterTree`.

    Returns (admissible, near), the lists of node pairs (a, b) of the
    admissible blocks and of the near blocks, which pair two leaves.
    """
    admissible, near = [], []

    def visit(a, b):
        dist = np.linalg.norm(bvh.com[a] - bvh.com[b])
        if 2 * (bvh.r_x[a] + bvh.r_x[b]) < dist \
                and max(bvh.r_x[a], bvh.r_x[b]) <= eps * dist \
                and max(bvh.r_T[a], bvh.r_T[b]) <= eps:
            admissible.append((a, b))
            return
        halves_a = [a] if bvh.left[a] < 0 else [bvh.left[a], bvh.right[a]]
        halves_b = [b] if bvh.left[b] < 0 else [bvh.left[b], bvh.right[b]]
        if len(halves_a) == len(halves_b) == 1:
            near.append((a, b))
            return
        for x in halves_a:
            for y in halves_b:
                visit(x, y)

    visit(0, 0)
    return admissible, near


def eager_far_field(bct):
    """The far-field clusters of a block cluster tree, built in one pass:
    (far_nodes, adm_rows, adm_cols, up) from one `np.unique` with inverse
    and the membership run of each node."""
    bvh = bct.bvh
    far_nodes, rows = np.unique(np.concatenate([bct.adm_a, bct.adm_b]),
                                return_inverse=True)
    sizes = bvh.end[far_nodes] - bvh.start[far_nodes]
    rows_up, pos = run_pairs(np.arange(len(sizes)), np.ones_like(sizes),
                             bvh.start[far_nodes], sizes)
    up = csr_matrix((np.ones(len(rows_up)), (rows_up, bvh.order[pos])),
                    shape=(len(sizes), len(bvh.order)))
    return far_nodes, rows[:len(bct.adm_a)], rows[len(bct.adm_a):], up


def refit_loop(bvh, net):
    """`EdgeBvh.refit`'s aggregates recomputed node by node, bottom up: a
    dict of mass, com, avg_tangent, lo, hi, r_x and r_T."""
    geom = net.geometry()
    n = bvh.n_nodes
    out = {"mass": np.zeros(n), "com": np.zeros((n, 3)),
           "avg_tangent": np.zeros((n, 3)), "lo": np.zeros((n, 6)),
           "hi": np.zeros((n, 6))}
    ends_lo = np.minimum(net.vertices[net.edges[:, 0]],
                         net.vertices[net.edges[:, 1]])
    ends_hi = np.maximum(net.vertices[net.edges[:, 0]],
                         net.vertices[net.edges[:, 1]])
    mass, com, tbar, lo, hi = (out[k] for k in
                               ("mass", "com", "avg_tangent", "lo", "hi"))
    # children are numbered after their parents: reverse order is bottom-up
    for node in range(n - 1, -1, -1):
        if bvh.left[node] < 0:
            sel = bvh.order[bvh.start[node]:bvh.end[node]]
            w = geom.lengths[sel]
            mass[node] = w.sum()
            com[node] = (w[:, None] * geom.midpoints[sel]).sum(0) / mass[node]
            tbar[node] = (w[:, None] * geom.tangents[sel]).sum(0) / mass[node]
            lo[node, :3] = geom.tangents[sel].min(axis=0)
            hi[node, :3] = geom.tangents[sel].max(axis=0)
            lo[node, 3:] = ends_lo[sel].min(axis=0)
            hi[node, 3:] = ends_hi[sel].max(axis=0)
        else:
            l, r = bvh.left[node], bvh.right[node]
            mass[node] = mass[l] + mass[r]
            com[node] = (mass[l] * com[l] + mass[r] * com[r]) / mass[node]
            tbar[node] = (mass[l] * tbar[l] + mass[r] * tbar[r]) / mass[node]
            lo[node] = np.minimum(lo[l], lo[r])
            hi[node] = np.maximum(hi[l], hi[r])
    half = 0.5 * (hi - lo)
    out["r_T"] = np.linalg.norm(half[:, :3], axis=1)
    out["r_x"] = np.linalg.norm(half[:, 3:], axis=1)
    return out


def project_full_budget(correction, constraints, net, max_iters=10):
    """Constraint projection that always runs to its iteration budget.

    The same corrections as `project_onto_constraints` without its
    rate-based early stop: returns (network, iterations) on the first
    iterate with |Phi|_inf <= PROJECTION_TOL, and raises ProjectionFailure
    only after max_iters corrections.
    """
    current = net
    phi = constraints.evaluate(current)
    if phi.size == 0 or np.linalg.norm(phi, np.inf) <= PROJECTION_TOL:
        return current, 0
    for iteration in range(1, max_iters + 1):
        x = correction(phi)
        current = current.with_positions(
            current.vertices + unstack_fields(x))
        phi = constraints.evaluate(current)
        if np.linalg.norm(phi, np.inf) <= PROJECTION_TOL:
            return current, iteration
    residual = float(np.linalg.norm(phi, np.inf))
    raise ProjectionFailure(f"stalled at {residual:.3e}", residual=residual,
                            iterations=max_iters, predicted=residual)


def _barycenter_triplets(spec, net):
    # Phi_c = sum_I l_I ((x_I)_c - x0_c); both l_I and x_I move with the
    # endpoints: dPhi_c/dg_{v,d} = sum over edges at v of
    #   -+ T_{I,d} (x_I - x0)_c + (l_I / 2) delta_cd
    geom = net.geometry()
    E = net.n_edges
    rel = geom.midpoints - spec.target               # (E, 3)
    rows, cols, vals = [], [], []
    for c in range(3):
        for d in range(3):
            at_i2 = geom.tangents[:, d] * rel[:, c]
            at_i1 = -at_i2
            if c == d:
                at_i2 = at_i2 + 0.5 * geom.lengths
                at_i1 = at_i1 + 0.5 * geom.lengths
            rows.append(np.full(2 * E, c))
            cols.append(np.concatenate([net.edges[:, 0], net.edges[:, 1]])
                        + d * net.n_vertices)
            vals.append(np.concatenate([at_i1, at_i2]))
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(vals))


def _total_length_triplets(spec, net):
    geom = net.geometry()
    E = net.n_edges
    rows = np.zeros(2 * E * 3, dtype=int)
    cols = np.empty(2 * E * 3, dtype=int)
    vals = np.empty(2 * E * 3)
    for d in range(3):
        sl = slice(2 * E * d, 2 * E * (d + 1))
        cols[sl] = np.concatenate([net.edges[:, 0], net.edges[:, 1]]) \
            + d * net.n_vertices
        vals[sl] = np.concatenate([geom.tangents[:, d],
                                   -geom.tangents[:, d]])
    return rows, cols, vals


def _edge_lengths_triplets(spec, net):
    geom = net.geometry()
    E = net.n_edges
    rows, cols, vals = [], [], []
    for d in range(3):
        rows.append(np.tile(np.arange(E), 2))
        cols.append(np.concatenate([net.edges[:, 0], net.edges[:, 1]])
                    + d * net.n_vertices)
        vals.append(np.concatenate([geom.tangents[:, d],
                                    -geom.tangents[:, d]]))
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(vals))


def _tangent_triplets(spec, net):
    geom = net.geometry()
    T = geom.tangents[spec.edge]
    li = geom.lengths[spec.edge]
    P = (np.eye(3) - np.outer(T, T)) / li            # dT/dg_{i2}
    i1, i2 = net.edges[spec.edge]
    rows = np.repeat(np.arange(3), 6)
    cols = np.empty(18, dtype=int)
    vals = np.empty(18)
    idx = 0
    for r in range(3):
        for v, sign in ((i1, -1.0), (i2, 1.0)):
            for d in range(3):
                cols[idx] = v + d * net.n_vertices
                vals[idx] = sign * P[r, d]
                idx += 1
    return rows, cols, vals


_LOOP_TRIPLETS = {Barycenter: _barycenter_triplets,
                  TotalLength: _total_length_triplets,
                  EdgeLengths: _edge_lengths_triplets,
                  TangentConstraint: _tangent_triplets}


def loop_jacobian(constraints, net):
    """The stacked constraint Jacobian (k x 3V, CSR) with each edge-based
    constraint's chain rule written out by hand, per component and end: the
    reference for their `network.edge_chain` triplets.  Other constraints
    give their own triplets; the stacking is `ConstraintSet.jacobian`'s."""
    rows, cols, vals = [], [], []
    offset = 0
    for s in constraints.specs:
        r, c, v = _LOOP_TRIPLETS.get(type(s), type(s).jacobian_triplets)(
            s, net)
        rows.append(np.asarray(r) + offset)
        cols.append(np.asarray(c))
        vals.append(np.asarray(v, dtype=float))
        offset += s.size
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(offset, 3 * net.n_vertices)).tocsr()


def initial_guess_sweep(hier, b):
    """Coarsen the RHS to the bottom, solve, prolong up with smoothing: the
    start of a multigrid solve written as its own sweep, the reference for
    `MultigridHierarchy._vcycle` without pre-smoothing.  Each level but the
    last projects its RHS; the bottom solve takes its RHS unprojected."""
    rhs = [b]
    for fine, coarse in zip(hier.levels, hier.levels[1:]):
        rhs[-1] = fine.project(rhs[-1])
        rhs.append((coarse.JT @ rhs[-1].reshape(3, -1).T).T.ravel())
    x = hier._coarse_solve(rhs[-1])
    for i in range(len(hier.levels) - 2, -1, -1):
        J = hier.levels[i + 1].J
        x = hier.levels[i].project((J @ x.reshape(3, -1).T).T.ravel())
        x = hier._smooth(hier.levels[i], rhs[i], x)[0]
    return x


def coarsen_walk(net, keep=None):
    """Per-vertex chain walk: the reference for `multigrid.coarsen_network`.

    Walks every chain from its special vertices (degree != 2 or kept) in
    index order, then each leftover pure loop from the first end of its
    lowest edge, colors alternately along each walk, and flips whites whose
    contraction would make a self-loop or a duplicate edge back to black
    until the contraction is clean.  Returns what `coarsen_network` returns.
    """
    keep = set() if keep is None else set(keep)
    V = net.n_vertices
    degrees = net.degrees
    special = (degrees != 2)
    for v in keep:
        special[v] = True

    incident = [[] for _ in range(V)]
    for e, (i, j) in enumerate(net.edges):
        incident[i].append((j, e))
        incident[j].append((i, e))

    WHITE, BLACK, UNSET = 0, 1, 2
    color = np.full(V, UNSET, dtype=int)
    color[special] = BLACK
    visited_edge = np.zeros(net.n_edges, dtype=bool)
    walks = []

    def walk_from(v0, e0):
        """Follow the chain starting along edge e0 until a special vertex or
        the starting point closes a loop."""
        seq_v = [v0]
        seq_e = []
        prev, edge = v0, e0
        while True:
            seq_e.append(edge)
            visited_edge[edge] = True
            i, j = net.edges[edge]
            nxt = j if i == prev else i
            seq_v.append(nxt)
            if special[nxt] or nxt == v0:
                return seq_v, seq_e
            options = [e for (_, e) in incident[nxt] if not visited_edge[e]]
            if not options:
                return seq_v, seq_e
            prev = nxt
            edge = options[0]

    # chains anchored at special vertices first, then leftover pure loops
    for v0 in np.flatnonzero(special):
        for (_, e0) in incident[v0]:
            if not visited_edge[e0]:
                walks.append(walk_from(v0, e0))
    for e0 in range(net.n_edges):
        if not visited_edge[e0]:
            v0 = net.edges[e0][0]
            walks.append(walk_from(v0, e0))

    for seq_v, _ in walks:
        closed_loop = seq_v[0] == seq_v[-1] and not special[seq_v[0]]
        interior = seq_v[:-1] if closed_loop else seq_v
        if closed_loop:
            color[seq_v[0]] = BLACK
        # alternate along the walk; loops keep at least 3 black vertices
        whites_allowed = (len(interior) - 3 if closed_loop else len(interior))
        whites = 0
        for idx in range(len(interior)):
            v = interior[idx]
            if color[v] != UNSET:
                continue
            prev_v = interior[idx - 1] if idx > 0 else seq_v[0]
            if color[prev_v] == BLACK and (not closed_loop
                                           or whites < whites_allowed):
                color[v] = WHITE
                whites += 1
            else:
                color[v] = BLACK

    color[color == UNSET] = BLACK

    # contracting a white vertex must not create a self-loop (bigon through
    # one white) or a duplicate coarse edge (parallel contracted chains);
    # flip offending whites back to black until the contraction is clean
    while True:
        white_idx = np.flatnonzero(color == WHITE)
        if len(white_idx) == 0:
            return None
        offenders = []
        used = set()
        for e, (i, j) in enumerate(net.edges):
            if color[i] == BLACK and color[j] == BLACK:
                used.add((min(i, j), max(i, j)))
        for w in white_idx:
            (u, _), (v, _) = incident[w]
            key = (min(u, v), max(u, v))
            if u == v or key in used:
                offenders.append(w)
            else:
                used.add(key)
        if not offenders:
            break
        color[offenders] = BLACK

    vertex_map = np.full(V, -1, dtype=int)
    black_idx = np.flatnonzero(color == BLACK)
    vertex_map[black_idx] = np.arange(len(black_idx))

    # contract white vertices; each has exactly two (black) neighbors
    coarse_edges = []
    edge_map = np.full(net.n_edges, -1, dtype=int)
    handled = np.zeros(net.n_edges, dtype=bool)
    for w in white_idx:
        (u, e1), (v, e2) = incident[w]
        coarse_edges.append((vertex_map[u], vertex_map[v]))
        edge_map[e1] = len(coarse_edges) - 1
        edge_map[e2] = len(coarse_edges) - 1
        handled[e1] = handled[e2] = True
    for e in range(net.n_edges):
        if not handled[e]:
            i, j = net.edges[e]
            coarse_edges.append((vertex_map[i], vertex_map[j]))
            edge_map[e] = len(coarse_edges) - 1

    coarse_net = CurveNetwork(net.vertices[black_idx], np.array(coarse_edges))

    rows, cols, vals = [], [], []
    rows.append(black_idx)
    cols.append(vertex_map[black_idx])
    vals.append(np.ones(len(black_idx)))
    for w in white_idx:
        (u, _), (v, _) = incident[w]
        rows.append([w, w])
        cols.append([vertex_map[u], vertex_map[v]])
        vals.append([0.5, 0.5])
    J = csr_matrix((np.concatenate([np.atleast_1d(v) for v in vals]),
                    (np.concatenate([np.atleast_1d(r) for r in rows]),
                     np.concatenate([np.atleast_1d(c) for c in cols]))),
                   shape=(V, coarse_net.n_vertices))
    return coarse_net, J, vertex_map, edge_map


def length_difference_loop(net):
    """Per-vertex loop over the interior vertices: the reference for
    `potentials.LengthDifferencePotential`.  Returns (value, gradient)."""
    geom = net.geometry()
    incident = [[] for _ in range(net.n_vertices)]
    for e, (i, j) in enumerate(net.edges):
        incident[i].append(e)
        incident[j].append(e)
    value = 0.0
    grad = np.zeros_like(net.vertices)
    for v in net.interior_vertices:
        eI, eJ = incident[v]
        diff = geom.lengths[eI] - geom.lengths[eJ]
        value += diff * diff
        for e, sign in ((eI, 1.0), (eJ, -1.0)):
            i1, i2 = net.edges[e]
            t = geom.tangents[e]
            grad[i1] -= 2.0 * diff * sign * t
            grad[i2] += 2.0 * diff * sign * t
    return float(value), grad


def disjoint_pairs_upper(net):
    """The edge pairs I < J that share no vertex, all E^2 / 2 of them."""
    return exact_pairs(net, *np.triu_indices(net.n_edges, k=1))


def pair_kernel_matrices(net, sigma):
    """Dense (E x E) high- and low-order K from one trapezoid pass over the
    disjoint pairs I < J, each entry mirrored: the pair form that
    `metric.dense_kernel_matrices` replaces."""
    E = net.n_edges
    I, J = disjoint_pairs_upper(net)
    out = []
    for vals in trapezoid_kernels(net, sigma, I, J):
        K = np.zeros((E, E))
        K[I, J] = vals
        K[J, I] = vals
        out.append(K)
    return out[0], out[1]


def four_congruence_parts(net, K, K0):
    """(B, B0) of dense kernel matrices as four congruences: one per
    component D_c of the edgewise derivative, one with the averaging
    matrix; the reference for `metric.metric_parts`."""
    def congruence(op, M):
        op = op.toarray()
        return op.T @ M @ op

    D = derivative_matrix(net)
    M = np.diag(K.sum(axis=1)) - K
    B = sum(congruence(D[c::3], M) for c in range(3))
    return B, congruence(average_matrix(net), np.diag(K0.sum(axis=1)) - K0)


def diags_metric_parts(net, K, K0):
    """(B, B0) with diag(rows) - K formed as a scipy `diags_array` minus K,
    the kernels' own row sums on the diagonal: the form that
    `metric.metric_parts` replaces with an in-place negation of dense K."""
    geom = net.geometry()
    U = geom.tangents / geom.lengths[:, None]
    rows, rows0 = K.sum(axis=1), K0.sum(axis=1)
    scaled = diags_array(rows * np.einsum("ij,ij->i", U, U)) \
        - _tangent_scaled(K, U)
    return (_congruence(difference_matrix(net), scaled),
            _congruence(average_matrix(net), diags_array(rows0) - K0))


def saddle_product(C, inv):
    """C A_bar'^-1 as three column-block products side by side, from C
    (k x 3V) and the (V x V) inverse: the reference for the row blocks from
    which `SaddleFactor` forms its Gram C A_bar'^-1 C^T."""
    C, V = csr_matrix(C), len(inv)
    return np.hstack([C[:, c * V:(c + 1) * V] @ inv for c in range(3)])


def pinv_coarse_solve(level, b):
    """The bottom solve of a multigrid hierarchy as a dense pseudoinverse:
    pinv(P (I_3 kron scale A) P) b with the level's projector P."""
    V = level.net.n_vertices
    P = level.project(np.eye(3 * V))
    A = level.scale * level.metric.apply(np.eye(V))
    return np.linalg.pinv(P @ np.kron(np.eye(3), A) @ P, rcond=1e-10) @ b


def swept_boxes(net, base, velocity, cap):
    """Each edge's box over its endpoints at times 0 and cap, and the
    rounding pad of the box test: (lo, hi, pad), as `flow._collision_times`
    makes them."""
    p0, p1 = base[net.edges[:, 0]], base[net.edges[:, 1]]
    v0, v1 = velocity[net.edges[:, 0]], velocity[net.edges[:, 1]]
    lo = np.minimum(np.minimum(p0, p1),
                    np.minimum(p0 + cap * v0, p1 + cap * v1))
    hi = np.maximum(np.maximum(p0, p1),
                    np.maximum(p0 + cap * v0, p1 + cap * v1))
    return lo, hi, 1e-12 * max(1.0, np.abs(hi).max())


def swept_box_pairs(net, base, velocity, cap):
    """The non-adjacent pairs I < J whose boxes swept over [0, cap] overlap,
    tested over all E^2 / 2 pairs: the reference for the broad phase of
    `flow._collision_times`."""
    ii, jj = disjoint_pairs_upper(net)
    lo, hi, pad = swept_boxes(net, base, velocity, cap)
    overlap = np.all((lo[ii] <= hi[jj] + pad) & (lo[jj] <= hi[ii] + pad),
                     axis=1)
    return ii[overlap], jj[overlap]


def collision_times_all_pairs(net, base, velocity, cap):
    """`flow._collision_times` with the all-pairs broad phase."""
    from knotflow.flow import _contact_times

    return _contact_times(net, base, velocity, cap,
                          *swept_box_pairs(net, base, velocity, cap))


def crossings_all_pairs(net, start, end, bvh=None):
    """`flow.crossings_during_motion` with the all-pairs broad phase; `bvh`
    is accepted and ignored, so the oracle can stand in for it."""
    hits = collision_times_all_pairs(net, start, end - start, 1.0)
    return int(np.sum(hits > 1e-12))


def projected_crossings_all_pairs(net, view):
    """Proper crossings of the diagram projected along `view`, tested over
    every non-adjacent pair: the reference for
    `flow.projected_crossing_count`, in the same frame."""
    view = np.asarray(view, float)
    view = view / np.linalg.norm(view)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(view @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(view, helper)
    u /= np.linalg.norm(u)
    w = np.cross(view, u)
    pts = np.stack([net.vertices @ u, net.vertices @ w], axis=1)
    ii, jj = disjoint_pairs_upper(net)
    p1, p2 = pts[net.edges[ii, 0]], pts[net.edges[ii, 1]]
    q1, q2 = pts[net.edges[jj, 0]], pts[net.edges[jj, 1]]

    def orient(a, b, c):
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])

    return int(np.sum((orient(q1, q2, p1) * orient(q1, q2, p2) < 0)
                      & (orient(p1, p2, q1) * orient(p1, p2, q2) < 0)))


def min_pair_gap_all_pairs(net, min_index_gap=1, cutoff=None, bvh=None):
    """The minimum gap over every non-adjacent pair at least min_index_gap
    apart along a loop: the reference for `scenes._min_pair_gap`, which it
    can stand in for (cutoff and bvh are accepted and ignored)."""
    from knotflow.flow import _segment_gap

    E = net.n_edges
    ii, jj = disjoint_pairs_upper(net)
    if min_index_gap > 1:
        cyc = np.minimum(np.abs(ii - jj), E - np.abs(ii - jj))
        ii, jj = ii[cyc >= min_index_gap], jj[cyc >= min_index_gap]
    p = net.vertices
    gaps = _segment_gap(p[net.edges[ii, 0]], p[net.edges[ii, 1]],
                        p[net.edges[jj, 0]], p[net.edges[jj, 1]])
    return float(gaps.min()) if len(gaps) else np.inf


def _per_sample_kernels(d, r2, tangents, params, grad):
    """k(d, T) = |T x d|^alpha / r^beta at one sample for each (3, P) T of
    `tangents`, |T x d|^2 from |T|^2 r2 - (T.d)^2; with grad also dk/dd
    summed over the tangents and s = c (T.d) d for the first, c = alpha
    |T x d|^(alpha-2) / r^beta."""
    alpha, beta = params.alpha, params.beta
    rb = r2 ** (-beta / 2)
    ks, cd, g_t, s = [], 0.0, 0.0, None
    for t in tangents:
        t2 = np.einsum("ip,ip->p", t, t)
        td = np.einsum("ip,ip->p", t, d)
        cr2 = np.maximum(t2 * r2 - td * td, 0.0)
        cam = np.zeros_like(cr2)
        np.power(cr2, (alpha - 2) / 2, out=cam, where=cr2 > 0)
        k = cr2 * cam * rb
        ks.append(k)
        if grad:
            c = alpha * cam * rb
            cd = cd + c * t2 - beta * k / r2
            g_t = g_t + c * td * t
            if s is None:
                s = c * td * d
    return ks, (cd * d - g_t if grad else None), s


def _per_sample_pairs(net, I, J):
    """The four trapezoid samples of each pair (I, J), each from its own
    gathered difference: (a, b, d, r2) with d = x(I_a) - x(J_b)."""
    ends = [net.vertices[net.edges[:, a]].T for a in range(2)]
    for a in range(2):
        for b in range(2):
            d = ends[a][:, I] - ends[b][:, J]
            r2 = np.einsum("ip,ip->p", d, d)
            if np.any(r2 == 0.0):
                raise SelfContactError("coincident vertices on non-adjacent "
                                       "edges")
            yield a, b, d, r2


def pair_terms_per_sample(net, params, I, J, grad=None):
    """The pair-list energy e_I = sum (1/4) l_I l_J sum_ab k(d_ab, T_I) and,
    into the given (3, V) grad, the differential of e_I + e_J in the ends of
    I, with every sample's differences, dot products and powers formed on
    their own: the per-sample form that `energy._pair_terms` replaces."""
    geom = net.geometry()
    lengths, T = geom.lengths, geom.tangents.T
    ti, tj = T[:, I], T[:, J]
    li, lj = lengths[I], lengths[J]
    w = 0.25 * li * lj
    k_i, k_j, s_t = 0.0, 0.0, 0.0
    g_end = [0.0, 0.0]
    tangents = (ti,) if grad is None else (ti, tj)
    for a, _, d, r2 in _per_sample_pairs(net, I, J):
        ks, g, s = _per_sample_kernels(d, r2, tangents, params,
                                       grad is not None)
        k_i = k_i + ks[0]
        if grad is not None:
            k_j, s_t = k_j + ks[1], s_t + s
            g_end[a] = g_end[a] + g
    if grad is not None:
        _scatter_per_sample(grad, net, I, w, g_end, 0.25 * lj, k_i + k_j,
                            s_t, ti)
    return float(w @ k_i)


def _scatter_per_sample(grad, net, I, w, g_end, m, k, s, t):
    """Add w g_end[end] -+ m (k T + (s.T) T - s) at the ends of the edges
    I: the d-gradients, and the length variation dl/dx = -+T and tangent
    variation (Id - T T^t) / l of terms m l_I k."""
    v = m * (k * t + np.einsum("ip,ip->p", s, t) * t - s)
    for end, sign in enumerate((-1.0, 1.0)):
        vals = w * g_end[end] + sign * v
        for c in range(3):
            np.add.at(grad[c], net.edges[I, end], vals[c])


def far_terms_per_entry(net, bvh, params, plan, grad=None):
    """The Barnes-Hut far field l_I m_a k(x_I - xbar_a, T_I) over the plan's
    (edge, node) entries and, into the given (3, V) grad, its differential
    in both orders with the node aggregates held constant, each end of I
    taking half the d-gradient: the form that `bvh._far_terms` replaces."""
    geom = net.geometry()
    e, a = plan.far_edge, plan.far_node
    ti = geom.tangents[e].T
    d = (geom.midpoints[e] - bvh.com[a]).T
    m = bvh.mass[a]
    w = geom.lengths[e] * m
    tangents = (ti,) if grad is None else (ti, bvh.avg_tangent[a].T)
    ks, g, s = _per_sample_kernels(d, np.einsum("ip,ip->p", d, d), tangents,
                                   params, grad is not None)
    if grad is not None:
        _scatter_per_sample(grad, net, e, 0.5 * w, (g, g), m, ks[0] + ks[1],
                            s, ti)
    return float(w @ ks[0])


def trapezoid_kernels_per_sample(net, sigma, I, J):
    """(high, low) of `bct.trapezoid_kernels` with every sample's
    differences and dot products formed on their own."""
    geom = net.geometry()
    T = geom.tangents.T
    ti, tj = T[:, I], T[:, J]
    expo = 2 * sigma + 1
    high, low = 0.0, 0.0
    for _, _, d, r2 in _per_sample_pairs(net, I, J):
        term = r2 ** (-expo / 2)
        cr = [np.maximum(np.einsum("ip,ip->p", t, t) * r2
                         - np.einsum("ip,ip->p", t, d) ** 2, 0.0)
              for t in (ti, tj)]
        high = high + term
        low = low + term * (cr[0] + cr[1]) / r2 ** 2
    w = 0.25 * geom.lengths[I] * geom.lengths[J]
    return 2.0 * w * high, w * low
