"""Discrete tangent-point energy of a curve network and its exact differential.

The energy is a double sum over ordered pairs of edges that share no vertex;
each pair is weighted by a 4-point trapezoidal sample of the kernel

    k(p, q, T) = |T x (p - q)|^alpha / |p - q|^beta

using the first edge's unit tangent.  Two passes evaluate it.

The exact energy and differential sum over vertices, not edge pairs: the
inner sum over the endpoints x_w of the edges J disjoint from I folds into a
weight M[I, w], the total length of those edges at w.  `_vertex_blocks`
walks row blocks of edges against all vertices and takes the differences by
broadcasting, so `_vertex_terms` evaluates 2 E V kernels, where the pair
form takes 4 E^2.

The dense H^s metric reads the same samples.  Its kernel matrices sum
r^-(2 sigma + 1), and r^-(2 sigma + 1) |T_I x d|^2 / r^4, over the four
endpoint pairs of two edges, so they split into (E x V) sums over the ends
of I against each vertex w (`metric_kernel_sums`), which
`metric.dense_kernel_matrices` gathers at the ends of J.  On the dense
"hs" path the step's differential pass fills those sums alongside the
differential (`discrete_differential` with `sums`); elsewhere
`metric_kernel_sums` walks `_vertex_blocks` for them alone.

The Barnes-Hut leaf pairs are a pair list, which `_pair_terms` walks in
chunks of 4096: k is even in p - q, so one set of endpoint differences,
gathered as (3, E) columns with np.take, gives both orders k(d, T_I) and
k(d, T_J) that the differential needs.  One kernel code serves exact and
lumped terms: `_sample_kernels` evaluates a sample and `_scatter_ends`
scatters its differential, for the four samples of a pair here and the one
sample at the aggregates of a Barnes-Hut far entry; `bct.trapezoid_kernels`
shares the pair gather.  `_vertex_terms` keeps its own kernel: per-sample
(3, P) columns would triple the temporaries of its broadcast (rows x V)
blocks, whose differential comes from row sums, column sums and (rows x V)
@ (V x 3) products.

`_vertex_terms` and `_scatter_ends` keep their own edge chain rule, not
`network.edge_chain`: their d-gradients differ at the two ends of an edge,
and they are the hot path, whose results stay bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import CurveNetwork


class ParameterError(ValueError):
    """Raised for exponent pairs outside the finite-energy window."""


class SelfContactError(ValueError):
    """Raised when vertices of non-adjacent edges coincide (curve touches itself)."""


@dataclass(frozen=True)
class EnergyParams:
    """Kernel exponents (alpha, beta) with the derived fractional orders.

    s = (beta - 1) / alpha is the differentiability order of finite-energy
    curves, sigma = s - 1 parameterizes the nonlocal metric operators.
    """

    alpha: float
    beta: float
    s: float = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not a > 1:
            raise ParameterError(f"alpha must satisfy alpha > 1, got alpha = {a}")
        if not b >= a + 2:
            raise ParameterError(
                f"beta must satisfy beta >= alpha + 2 = {a + 2}, got beta = {b}")
        if not b < 2 * a + 1:
            raise ParameterError(
                f"beta must satisfy beta < 2*alpha + 1 = {2 * a + 1}, got beta = {b}")
        object.__setattr__(self, "s", (b - 1) / a)
        object.__setattr__(self, "sigma", (b - 1) / a - 1)


def validate_params(alpha: float, beta: float) -> EnergyParams:
    """Check (alpha, beta) against the finite-energy window and derive s, sigma."""
    return EnergyParams(float(alpha), float(beta))


def kernel(p, q, T, params: EnergyParams) -> float:
    """Tangent-point kernel |T x (p-q)|^alpha / |p-q|^beta for unit tangent T."""
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    T = np.asarray(T, dtype=float)
    if abs(np.linalg.norm(T) - 1.0) > 1e-9:
        raise ValueError("T must be a unit vector")
    r2 = np.array([d @ d])
    if r2[0] == 0.0:
        raise SelfContactError("kernel undefined at p == q")
    ks, _, _ = _sample_kernels(d[:, None], r2, (T[:, None],), (T @ T,),
                               params)
    return float(ks[0][0])


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise dot products of two (3, P) arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sample_kernels(d: np.ndarray, r2: np.ndarray, tangents, tt,
                    params: EnergyParams, grad: bool = False):
    """k(d, T) = |T x d|^alpha / r^beta at one sample, for each T of
    `tangents`; d and T are (3, P) columns, r2 = |d|^2 and tt the |T|^2.

    Returns (ks, dk_dd, s): the kernel per tangent and, with grad, dk/dd
    summed over the tangents and s = c (T.d) d for the first, c = alpha
    cr^(alpha-2) / r^beta (else None, None): the tangent variation of
    dk/dT = c (r2 T - (T.d) d) needs only s.
    """
    alpha, beta = params.alpha, params.beta
    rb = r2 ** (-beta / 2)
    ks, cd, g_t, s = [], 0.0, 0.0, None
    for t, t2 in zip(tangents, tt):
        td = _dot3(t, d)
        cr2 = np.maximum(t2 * r2 - td * td, 0.0)
        # cr^(alpha-2), zero where cr = 0: the factors it scales are O(cr),
        # so the limit is zero for alpha > 1
        cam = np.zeros_like(cr2)
        np.power(cr2, (alpha - 2) / 2, out=cam, where=cr2 > 0)
        k = cr2 * cam * rb
        ks.append(k)
        if not grad:
            continue
        # dk/dd = c (|T|^2 d - (T.d) T) - beta k d / r2
        c = alpha * cam * rb
        u = c * td
        cd = cd + c * t2 - beta * k / r2
        g_t = g_t + u * t
        if s is None:
            s = u * d
    return ks, cd * d - g_t if grad else None, s


# pairs per chunk: the temporaries of one chunk stay within a few MiB
PAIR_CHUNK = 4096


def _pair_chunks(n_pairs: int):
    for start in range(0, n_pairs, PAIR_CHUNK):
        yield slice(start, min(start + PAIR_CHUNK, n_pairs))


def _pair_samples(net: CurveNetwork, I: np.ndarray, J: np.ndarray):
    """The 4-point trapezoid samples of the edge pairs (I, J), chunk by chunk.

    Yields (sl, ti, tj, samples): the chunk's slice of the pair list, the
    tangents of its I and J edges, and an iterator over the endpoint pairs
    (a, b) giving (a, b, d, r2) with d = x(I_a) - x(J_b) and r2 = |d|^2, to
    be consumed before the next chunk.  Vectors are (3, P) columns: np.take
    gathers them and the dot products run over contiguous rows.  Raises
    SelfContactError where some r2 is zero.
    """
    ends = [np.ascontiguousarray(net.vertices[net.edges[:, a]].T)
            for a in range(2)]
    T = np.ascontiguousarray(net.geometry().tangents.T)

    def samples(Ic, Jc):
        pj = [e.take(Jc, axis=1) for e in ends]
        for a in range(2):
            pi = ends[a].take(Ic, axis=1)
            for b in range(2):
                d = pi - pj[b]
                r2 = _dot3(d, d)
                if np.any(r2 == 0.0):
                    raise SelfContactError("coincident vertices on "
                                           "non-adjacent edges; curve "
                                           "touches itself")
                yield a, b, d, r2

    for sl in _pair_chunks(len(I)):
        Ic, Jc = I[sl], J[sl]
        yield sl, T.take(Ic, axis=1), T.take(Jc, axis=1), samples(Ic, Jc)


def _scatter_ends(grad: np.ndarray, net: CurveNetwork, I: np.ndarray,
                  w: np.ndarray, g_end, m: np.ndarray, k: np.ndarray,
                  s: np.ndarray, t: np.ndarray):
    """Add the differential of pair terms at the ends of the edges I to the
    (3, V) grad: w g_end[end] from the d-gradients, and -+ m (k T + (s.T) T
    - s), the variation of the length (dl/dx = -+T) and of the tangent of
    terms m l_I k, k summed over both orders and s from `_sample_kernels`.
    """
    v = m * (k * t + _dot3(s, t) * t - s)
    P = len(I)
    idx = np.empty(2 * P, dtype=int)
    vals = np.empty((3, 2 * P))
    for end, sign in enumerate((-1.0, 1.0)):
        cols = slice(end * P, (end + 1) * P)
        net.edges[:, end].take(I, out=idx[cols])
        np.multiply(w, g_end[end], out=vals[:, cols])
        vals[:, cols] += sign * v
    for c in range(3):
        grad[c] += np.bincount(idx, weights=vals[c], minlength=grad.shape[1])


def _pair_terms(net: CurveNetwork, params: EnergyParams, I: np.ndarray,
                J: np.ndarray, grad: np.ndarray | None = None) -> float:
    """The pair terms of a pair list (I, J), such as the Barnes-Hut leaf
    pairs; the exact energy takes `_vertex_terms` instead.

    Returns e_I, the sum over the pairs of (1/4) l_I l_J sum_ab k(d_ab, T_I).
    When grad, a (3, V) array, is given, the differential of e_I + e_J in the
    endpoints of I is added to it, where e_J is the same sum with T_J: over
    an ordered list holding (J, I) with each (I, J), that is the whole
    differential.  k is even in d, so one set of endpoint differences serves
    both orders; without grad only the T_I order is evaluated.
    """
    lengths = net.geometry().lengths
    energy = 0.0
    # near-contact overflow is deliberate: an inf energy makes the line
    # search reject the trial, so the warning is suppressed, not guarded
    with np.errstate(over="ignore", divide="ignore"):
        for sl, ti, tj, samples in _pair_samples(net, I, J):
            Ic, lj = I[sl], lengths.take(J[sl])
            w = 0.25 * lengths.take(Ic) * lj
            tangents = (ti,) if grad is None else (ti, tj)
            tt = [_dot3(t, t) for t in tangents]
            k_i, k_j, s_t = 0.0, 0.0, 0.0
            g_end = [0.0, 0.0]      # d-gradients at the two ends of I
            for a, _, d, r2 in samples:
                ks, g, s = _sample_kernels(d, r2, tangents, tt, params,
                                           grad is not None)
                k_i = k_i + ks[0]
                if grad is not None:
                    k_j, s_t = k_j + ks[1], s_t + s
                    g_end[a] = g_end[a] + g
            energy += w @ k_i
            if grad is not None:
                # w / l_I = l_J / 4 scales the length and tangent variations
                _scatter_ends(grad, net, Ic, w, g_end, 0.25 * lj, k_i + k_j,
                              s_t, ti)
    return energy


# (edge, vertex) entries per row block of the vertex-form pass: the
# temporaries of one block stay within a few MiB
BLOCK_ENTRIES = 32768


def _row_blocks(n_edges: int, n_vertices: int):
    step = max(1, BLOCK_ENTRIES // n_vertices)
    for start in range(0, n_edges, step):
        yield start, min(start + step, n_edges)


def _vertex_blocks(net: CurveNetwork):
    """The row blocks of the vertex-form passes: edges r0:r1 against all
    vertices, differences broadcast, not gathered.

    Yields (r0, r1, u, pos, zero, X, samples): the block's slice u of
    `adjacent_vertex_triples`, the flat positions pos of its (I, w) pairs in
    the (rows x V) block and zero those of them where every edge at w is
    adjacent to I (w = I_a among them); the vertex positions X relative to
    the block's center; and an iterator over the ends a of the block's
    edges, to be consumed before the next block, giving (a, p, r2, td, cr2):
    the ends p = x(I_a) in the same frame, and r2 = |d|^2, td = T_I.d and
    cr2 = |T_I x d|^2 for d = p - x_w.  r2 reads 1 at the positions zero,
    whose kernels the passes zero; a zero distance at any other vertex with
    an edge raises SelfContactError.
    """
    tangents, edges = net.geometry().tangents, net.edges
    E, V = net.n_edges, net.n_vertices
    rows, cols, full, _, _ = net.adjacent_vertex_triples()
    isolated = net.degrees == 0

    def samples(r0, r1, zero, X):
        t = tangents[r0:r1]
        for a in range(2):
            p = X[edges[r0:r1, a]]
            dx, dy, dz = (p[:, c, None] - X[:, c] for c in range(3))
            r2 = dx * dx + dy * dy + dz * dz
            r2.flat[zero] = 1.0
            if r2.min() == 0.0:
                hit = r2 == 0.0
                if np.any(hit[:, ~isolated]):
                    raise SelfContactError("coincident vertices on "
                                           "non-adjacent edges; curve "
                                           "touches itself")
                r2[hit] = 1.0
            td = dx * t[:, 0, None]
            td += dy * t[:, 1, None]
            td += dz * t[:, 2, None]
            del dx, dy, dz
            yield a, p, r2, td, np.maximum(r2 - td * td, 0.0)

    for r0, r1 in _row_blocks(E, V):
        u = slice(*np.searchsorted(rows, (r0, r1)))
        pos = (rows[u] - r0) * V + cols[u]
        zero = pos[full[u]]
        # positions relative to the block's center: sum_w A (p - x_w) is
        # expanded as p sum_w A - A X, whose rounding grows with |p|
        X = net.vertices[edges[r0:r1]].reshape(-1, 3)
        X = net.vertices - X.mean(axis=0)
        yield r0, r1, u, pos, zero, X, samples(r0, r1, zero, X)


def _add_kernel_sums(sums: np.ndarray, r2: np.ndarray, cr2: np.ndarray,
                     zero: np.ndarray, expo: float):
    """Add one end's r^-expo and r^-expo |T_I x d|^2 / r^4 to a (2, rows, V)
    block of the metric kernel sums, zeroed at the flat positions `zero`."""
    h = r2 ** (-expo / 2)
    h.flat[zero] = 0.0
    sums[0] += h
    h *= cr2
    h /= r2 * r2
    sums[1] += h


def _vertex_terms(net: CurveNetwork, params: EnergyParams,
                  grad: np.ndarray | None = None,
                  sums: np.ndarray | None = None) -> float:
    """The energy as sum_I (1/4) l_I sum_a sum_w M[I, w] k(x(I_a) - x_w, T_I).

    M[I, w] sums l_J over the edges J at vertex w that share no vertex with
    I: the incident length S[w] less the adjacent edges of
    `adjacent_vertex_triples`, and exactly zero where every edge at w is
    adjacent to I.  The pass walks `_vertex_blocks`; kernels where M = 0 are
    zeroed, not evaluated.  When grad, a (V, 3) array, is given, the
    differential is added to it: row sums, column sums and (rows x V) @ (V
    x 3) products give the partials in the endpoints, the tangents and the
    lengths l_I, and column sums less the same adjacency correction give
    the dependence of M on l_J.  When sums, a (2, E, V) array, is given,
    the metric kernel sums of `metric_kernel_sums` are added to it from the
    same samples.
    """
    alpha, beta = params.alpha, params.beta
    geom = net.geometry()
    lengths, tangents, edges = geom.lengths, geom.tangents, net.edges
    E, V = net.n_edges, net.n_vertices
    rows, cols, full, group, J = net.adjacent_vertex_triples()
    S = 2.0 * net.dual_masses()         # incident length per vertex
    M = S[cols] - np.bincount(group, weights=lengths[J], minlength=len(rows))
    M[full] = 0.0
    lq = 0.25 * lengths
    energy = 0.0
    if grad is not None:
        g_end = np.zeros((2, E, 3))     # d-partials at the ends x(I_a)
        g_col = np.zeros((V, 3))        # minus the d-partials at the x_w
        s_t = np.zeros((E, 3))          # sum of W c (T.d) d per edge
        dl = np.zeros(E)                # partials in the lengths
        col_k = np.zeros(V)             # column sums of (1/4) l_I sum_a k
        k_adj = np.zeros(len(rows))     # the same at the (I, w) pairs
    # near-contact overflow is deliberate: an inf energy makes the line
    # search reject the trial, so the warning is suppressed, not guarded
    with np.errstate(over="ignore", divide="ignore"):
        for r0, r1, u, pos, zero, X, samples in _vertex_blocks(net):
            W = np.multiply.outer(lq[r0:r1], S)
            W.flat[pos] = lq[rows[u]] * M[u]
            t = tangents[r0:r1]
            ks = np.zeros_like(W)
            for a, p, r2, td, cr2 in samples:
                if sums is not None:
                    _add_kernel_sums(sums[:, r0:r1], r2, cr2, zero,
                                     2 * params.sigma + 1)
                rb = r2 ** (-beta / 2)
                if grad is None:
                    k = cr2 ** (alpha / 2)
                    k *= rb
                else:
                    # cr^(alpha-2), zero where cr = 0: the factors it scales
                    # are O(cr), so the limit is zero for alpha > 1
                    q = np.zeros_like(cr2)
                    np.power(cr2, (alpha - 2) / 2, out=q, where=cr2 > 0)
                    q *= rb
                    k = cr2 * q
                    # for unit T, dk/dd = c (d - (T.d) T) - beta k d / r2
                    # and dk/dT = c (r2 T - (T.d) d), with c = alpha
                    # cr^(alpha-2) / r^beta
                    q *= W
                    cr2 /= r2           # alpha - beta cr2 / r2, in place
                    cr2 *= -beta
                    cr2 += alpha
                    A = cr2 * q         # W (c - beta k / r2)
                    B = q * td          # W c (T.d) / alpha
                    a_rows, b_rows = A.sum(axis=1), B.sum(axis=1)
                    g_end[a, r0:r1] += (p * a_rows[:, None] - A @ X
                                        - alpha * b_rows[:, None] * t)
                    s_t[r0:r1] += alpha * (p * b_rows[:, None] - B @ X)
                    g_col += A.T @ p - X * A.sum(axis=0)[:, None] \
                        - alpha * (B.T @ t)
                k.flat[zero] = 0.0
                ks += k
            e_rows = np.einsum("ij,ij->i", W, ks)
            energy += float(e_rows.sum())
            if grad is not None:
                dl[r0:r1] += e_rows / lengths[r0:r1]
                col_k += lq[r0:r1] @ ks
                k_adj[u] = lq[rows[u]] * ks.flat[pos]
    if grad is None:
        return energy
    # each l_J enters M[I, w] at its ends w for the I it does not touch
    dl += col_k[edges[:, 0]] + col_k[edges[:, 1]] \
        - np.bincount(J, weights=k_adj[group], minlength=E)
    # dl/dx = -+T at the two ends; the tangent variation is (Id - T T^t)
    # dE/dT / l, where the r2 T part of dk/dT projects away
    s_dot_t = np.einsum("ij,ij->i", s_t, tangents)
    v = dl[:, None] * tangents \
        + (s_dot_t[:, None] * tangents - s_t) / lengths[:, None]
    grad -= g_col
    np.add.at(grad, edges[:, 1], g_end[1] + v)
    np.add.at(grad, edges[:, 0], g_end[0] - v)
    return energy


def metric_kernel_sums(net: CurveNetwork, sigma: float) -> np.ndarray:
    """The (2, E, V) vertex sums of the metric kernels over the ends of
    each edge I: r^-(2 sigma + 1) and r^-(2 sigma + 1) |T_I x d|^2 / r^4,
    with d = x(I_a) - x_w and r = |d|, summed over both ends a and zero
    where every edge at w is adjacent to I.

    `metric.dense_kernel_matrices` forms the dense kernel matrices from
    them.  `discrete_differential` fills the same sums in its own pass when
    asked; this runs `_vertex_blocks` for the sums alone.
    """
    sums = np.zeros((2, net.n_edges, net.n_vertices))
    for r0, r1, _, _, zero, _, samples in _vertex_blocks(net):
        for _, _, r2, _, cr2 in samples:
            _add_kernel_sums(sums[:, r0:r1], r2, cr2, zero, 2 * sigma + 1)
    return sums


def discrete_energy(net: CurveNetwork, params: EnergyParams) -> float:
    """Trapezoidal tangent-point energy over all ordered non-adjacent edge pairs."""
    return _vertex_terms(net, params)


def discrete_differential(net: CurveNetwork, params: EnergyParams,
                          sums: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the discrete energy w.r.t. vertex positions, (V, 3).

    When `sums`, a (2, E, V) array, is given, the same pass adds the metric
    kernel sums of `metric_kernel_sums` to it, for the dense H^s metric of
    the step.
    """
    grad = np.zeros((net.n_vertices, 3))
    _vertex_terms(net, params, grad=grad, sums=sums)
    return grad
