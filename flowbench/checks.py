"""Output checks for the flow benchmark, computed apart from `knotflow`.

Everything here is plain numpy over the defining formulas: nothing is
imported from the package under test, so a fault there cannot hide itself.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import itertools

import numpy as np

# Constraint projection stops at |Phi|_inf <= 1e-8; the slack covers the
# rounding of recomputing lengths here in another order.
PROJECTION_TOL = 1e-8
ROUNDING_SLACK = 1e-12
# Two edges closer than this share of the curve length count as touching.
CONTACT_TOL = 1e-9


def axis_symmetry(points, index):
    """Apply the `index % 48`-th map that permutes and negates the axes.

    Every coordinate is copied, maybe negated, so the moved curve has exactly
    the same lengths, energy and crossing counts as the original.
    """
    perm = list(itertools.permutations(range(3)))[(index % 48) // 8]
    signs = list(itertools.product((1.0, -1.0), repeat=3))[index % 8]
    return np.asarray(points, float)[..., list(perm)] * np.array(signs)


def _view_directions():
    """Fixed view directions, closed under the 48 axis symmetries.

    A curve handed to the flow in any of those orientations is seen from the
    same set of directions, so its minimum crossing count is the same.
    """
    base = np.random.default_rng(20200614).normal(size=(4, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    views = np.concatenate([axis_symmetry(base, i) for i in range(48)])
    views *= np.sign(views[:, :1])          # v and -v give the same count
    return np.unique(views, axis=0)


VIEWS = _view_directions()


def _edge_data(vertices, edges):
    a = vertices[edges[:, 0]]
    b = vertices[edges[:, 1]]
    lengths = np.sqrt(np.sum((b - a) ** 2, axis=1))
    return a, b, lengths


def _disjoint_pairs(edges):
    """Unordered edge pairs (I < J) that share no vertex."""
    ii, jj = np.triu_indices(len(edges), k=1)
    e, f = edges[ii], edges[jj]
    shared = ((e[:, :1] == f[:, :1]) | (e[:, :1] == f[:, 1:])
              | (e[:, 1:] == f[:, :1]) | (e[:, 1:] == f[:, 1:]))[:, 0]
    return ii[~shared], jj[~shared]


def tangent_point_energy(vertices, edges, alpha, beta):
    """The defining double sum over ordered pairs of edges sharing no vertex.

    E = sum_I sum_J l_I l_J / 4 sum_{p in I, q in J} |T_I x (p - q)|^alpha
    / |p - q|^beta, one edge I at a time, as `tests/oracles.py` writes it.
    """
    vertices = np.asarray(vertices, float)
    a, b, lengths = _edge_data(vertices, edges)
    tangents = (b - a) / lengths[:, None]
    total = 0.0
    for I, (i1, i2) in enumerate(edges):
        J = np.flatnonzero((edges[:, 0] != i1) & (edges[:, 0] != i2)
                           & (edges[:, 1] != i1) & (edges[:, 1] != i2))
        khat = np.zeros(len(J))
        for p in (vertices[i1], vertices[i2]):
            for q in (a[J], b[J]):
                d = p - q
                cross = np.cross(tangents[I], d)
                khat += np.sqrt(np.sum(cross ** 2, axis=1)) ** alpha \
                    / np.sqrt(np.sum(d ** 2, axis=1)) ** beta
        total += 0.25 * lengths[I] * float(np.sum(khat * lengths[J]))
    return total


def barycenter(vertices, edges):
    """Length-weighted mean of the edge midpoints."""
    a, b, lengths = _edge_data(np.asarray(vertices, float), edges)
    return (lengths[:, None] * 0.5 * (a + b)).sum(axis=0) / lengths.sum()


def edge_lengths(vertices, edges):
    return _edge_data(np.asarray(vertices, float), edges)[2]


def crossing_count(vertices, edges, view, pairs=None):
    """Proper crossings of the diagram seen along `view`."""
    view = np.asarray(view, float) / np.linalg.norm(view)
    helper = np.eye(3)[int(np.argmin(np.abs(view)))]
    u = np.cross(view, helper)
    u /= np.linalg.norm(u)
    w = np.cross(view, u)
    pts = np.asarray(vertices, float) @ np.stack([u, w], axis=1)
    a, b = pts[edges[:, 0]], pts[edges[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    ii, jj = _disjoint_pairs(edges) if pairs is None else pairs
    # only pairs whose 2-D boxes overlap can cross
    near = np.all((lo[ii] <= hi[jj]) & (lo[jj] <= hi[ii]), axis=1)
    ii, jj = ii[near], jj[near]
    p1, p2, q1, q2 = a[ii], b[ii], a[jj], b[jj]

    def orient(o, s, t):
        return (s[:, 0] - o[:, 0]) * (t[:, 1] - o[:, 1]) \
            - (s[:, 1] - o[:, 1]) * (t[:, 0] - o[:, 0])

    return int(np.sum((orient(q1, q2, p1) * orient(q1, q2, p2) < 0)
                      & (orient(p1, p2, q1) * orient(p1, p2, q2) < 0)))


def min_crossings(vertices, edges):
    pairs = _disjoint_pairs(edges)
    return min(crossing_count(vertices, edges, v, pairs) for v in VIEWS)


def min_edge_gap(vertices, edges, pairs=None):
    """Smallest distance between two edges that share no vertex."""
    vertices = np.asarray(vertices, float)
    ii, jj = _disjoint_pairs(edges) if pairs is None else pairs
    p, d1 = vertices[edges[ii, 0]], vertices[edges[ii, 1]] - vertices[edges[ii, 0]]
    q, d2 = vertices[edges[jj, 0]], vertices[edges[jj, 1]] - vertices[edges[jj, 0]]
    r = p - q
    aa = np.sum(d1 * d1, axis=1)
    ee = np.sum(d2 * d2, axis=1)
    bb = np.sum(d1 * d2, axis=1)
    cc = np.sum(d1 * r, axis=1)
    ff = np.sum(d2 * r, axis=1)
    denom = aa * ee - bb * bb
    parallel = denom <= 1e-14 * aa * ee
    s = np.where(parallel, 0.0,
                 np.clip((bb * ff - cc * ee) / np.where(parallel, 1.0, denom),
                         0.0, 1.0))
    t = (bb * s + ff) / ee
    # clamping t moves the closest point; recompute s for the clamped t
    t_clamped = np.clip(t, 0.0, 1.0)
    s = np.where(t == t_clamped, s,
                 np.clip((bb * t_clamped - cc) / aa, 0.0, 1.0))
    gap = r + s[:, None] * d1 - t_clamped[:, None] * d2
    return float(np.sqrt(np.sum(gap * gap, axis=1)).min())


def check_energy(initial_vertices, final_vertices, edges, reported,
                 alpha, beta, rel_tol, monotone):
    """The independent final energy is below the initial one and matches
    the flow's last reported energy within `rel_tol`; with `monotone`, the
    reported energies never increase."""
    failures = []
    e0 = tangent_point_energy(initial_vertices, edges, alpha, beta)
    e1 = tangent_point_energy(final_vertices, edges, alpha, beta)
    if not e1 < e0:
        failures.append(f"final energy {e1:.9g} is not below initial {e0:.9g}")
    if len(reported) == 0:
        return failures + ["no reported energies"]
    gap = abs(reported[-1] - e1) / e1
    if not gap <= rel_tol:
        failures.append(f"reported final energy {reported[-1]:.12g} is "
                        f"{gap:.2e} from the double sum {e1:.12g} "
                        f"(allowed {rel_tol:.0e})")
    if monotone and np.any(np.diff(reported) > 0):
        step = int(np.flatnonzero(np.diff(reported) > 0)[0]) + 2
        failures.append(f"reported energy rises at step {step}")
    return failures


def check_constraints(initial_vertices, final_vertices, edges, kind):
    """Barycenter and every edge length (or the total length) are kept."""
    failures = []
    tol = PROJECTION_TOL + ROUNDING_SLACK
    shift = np.abs(barycenter(final_vertices, edges)
                   - barycenter(initial_vertices, edges)).max()
    if not shift <= tol:
        failures.append(f"barycenter moved by {shift:.2e}")
    l0 = edge_lengths(initial_vertices, edges)
    l1 = edge_lengths(final_vertices, edges)
    if kind == "edge-lengths":
        worst = np.abs(l1 - l0).max()
        if not worst <= tol:
            failures.append(f"an edge length changed by {worst:.2e}")
    elif kind == "total-length":
        change = abs(l1.sum() - l0.sum())
        if not change <= tol:
            failures.append(f"total length changed by {change:.2e}")
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return failures


def check_trefoil(frames, edges):
    """No frame has touching edges, and the final curve still needs three
    crossings in every view while some fixed view shows exactly three."""
    failures = []
    pairs = _disjoint_pairs(edges)
    for index, frame in enumerate(frames):
        scale = edge_lengths(frame, edges).sum()
        gap = min_edge_gap(frame, edges, pairs)
        if not gap > CONTACT_TOL * scale:
            failures.append(f"frame {index}: non-adjacent edges touch "
                            f"(gap {gap:.2e})")
    crossings = min_crossings(frames[-1], edges)
    if crossings != 3:
        failures.append(f"minimum projected crossings {crossings}, not 3")
    return failures
