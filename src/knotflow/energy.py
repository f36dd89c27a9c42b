"""Discrete tangent-point energy of a curve network and its exact differential.

The energy is a double sum over ordered pairs of edges that share no vertex;
each pair is weighted by a 4-point trapezoidal sample of the kernel

    k(p, q, T) = |T x (p - q)|^alpha / |p - q|^beta

using the first edge's unit tangent.  Two passes evaluate it.

The exact energy and differential sum over vertices, not edge pairs: the
inner sum over the endpoints x_w of the edges J disjoint from I folds into a
weight M[I, w], the total length of those edges at w.  `_vertex_blocks`
walks row blocks of edges against all vertices and takes the differences by
broadcasting.  Both samples x(I_0), x(I_1) of edge I lie on its tangent
line, so c = |T_I x d|, the distance from x_w to that line, is one number
per (I, w), and T_I.d grows by l_I from the first end to the second: each
(I, w) takes one set of differences, one c and one power of c, which
serves the kernels c^alpha r^-beta of both ends.  The pass evaluates 2 E V
kernels from E V differences, where the pair form takes 4 E^2 of each.

The dense H^s metric reads the same samples.  Its kernel matrices sum
r^-(2 sigma + 1), and r^-(2 sigma + 1) |T_I x d|^2 / r^4, over the four
endpoint pairs of two edges, so they split into (E x V) sums over the ends
of I against each vertex w (`metric_kernel_sums`), which
`metric.dense_kernel_matrices` gathers at the ends of J.  On the dense
"hs" path the step's differential pass fills those sums alongside the
differential (`discrete_differential` with `sums`); elsewhere
`metric_kernel_sums` walks the same blocks for them alone.  Both call
`_add_kernel_sums`, so the energy, the differential and the sums read one
code.

The Barnes-Hut leaf pairs are a pair list, which `_pair_terms` walks in
chunks of 4096: k is even in p - q, so one set of endpoint differences,
gathered as (3, E) columns with np.take, gives both orders k(d, T_I) and
k(d, T_J) that the differential needs.  One kernel code serves exact and
lumped terms: `_sample_kernels` evaluates a sample and `_scatter_ends`
scatters its differential, for the four samples of a pair here and the one
sample at the aggregates of a Barnes-Hut far entry; `bct.trapezoid_kernels`
shares the pair gather.  `_vertex_terms` keeps its own kernel: per-sample
(3, P) columns would triple the temporaries of its broadcast (rows x V)
blocks, whose differential comes from two (4 rows x V) products, one for
the row terms and one for the column terms of both ends.

`_vertex_terms` and `_scatter_ends` keep their own edge chain rule, not
`network.edge_chain`: their d-gradients differ at the two ends of an edge,
and they are the hot path.
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


def _coincident_vertices(vertices: np.ndarray) -> bool:
    """True when two rows of the (V, 3) `vertices` are the same point."""
    ordered = vertices[np.lexsort(vertices.T)]
    return bool(np.any(np.all(ordered[1:] == ordered[:-1], axis=1)))


def _differences(p: np.ndarray, XT: np.ndarray, t: np.ndarray | None = None):
    """r2 = |d|^2 for the differences d = p_i - x_w of the (rows, 3) points
    p and the (3, V) vertex columns XT, and with the (rows, 3) tangents t
    also td = t_i.d, as (rows x V) arrays; None without t."""
    d = p.T[:, :, None] - XT[:, None, :]
    return (np.einsum("kij,kij->ij", d, d),
            None if t is None else np.einsum("kij,ik->ij", d, t))


def _vertex_blocks(net: CurveNetwork):
    """The row blocks of the vertex-form passes: edges r0:r1 against all
    vertices, differences broadcast, not gathered.

    Yields (r0, r1, u, pos, zero, X, ends, c2): the block's slice u of
    `adjacent_vertex_triples`, the flat positions pos of its (I, w) pairs in
    the (rows x V) block and zero those of them where every edge at w is
    adjacent to I (w = I_a among them); the vertex positions X relative to
    the block's center; for each end a of the block's edges, (p, r2, td):
    the ends p = x(I_a) in the same frame, r2 = |d|^2 and td = T_I.d for
    d = p - x_w; and c2 = |T_I x d|^2, the squared distance from x_w to the
    tangent line of I, which both ends share.

    Both ends lie on that line, so only the first end's differences are
    formed: c2 = r2 - td^2 there, and the second end has td + l_I and
    c2 + (td + l_I)^2.  r2 reads 1 at the positions zero, whose kernels the
    passes zero; a zero distance at any other vertex with an edge raises
    SelfContactError.  A derived r2 need not be 0 where x_w = x(I_1), so the
    second end's r2 is taken from its differences in every block of a
    network where two vertices coincide, and in a block where the derived
    r2 reads 0.
    """
    geom = net.geometry()
    tangents, lengths, edges = geom.tangents, geom.lengths, net.edges
    E, V = net.n_edges, net.n_vertices
    rows, cols, full, _, _ = net.adjacent_vertex_triples()
    isolated = net.degrees == 0
    coincident = _coincident_vertices(net.vertices)

    for r0, r1 in _row_blocks(E, V):
        u = slice(*np.searchsorted(rows, (r0, r1)))
        pos = (rows[u] - r0) * V + cols[u]
        zero = pos[full[u]]
        # positions relative to the block's center: sum_w A (p - x_w) is
        # expanded as p sum_w A - A X, whose rounding grows with |p|
        X = net.vertices[edges[r0:r1]].reshape(-1, 3)
        X = net.vertices - X.mean(axis=0)
        p0, p1 = X[edges[r0:r1, 0]], X[edges[r0:r1, 1]]
        t = tangents[r0:r1]
        XT = np.ascontiguousarray(X.T)
        r2_0, td0 = _differences(p0, XT, t)
        c2 = np.square(td0)
        np.subtract(r2_0, c2, out=c2)
        np.maximum(c2, 0.0, out=c2)
        td1 = td0 + lengths[r0:r1, None]
        r2_1 = np.square(td1)
        r2_1 += c2
        r2_0.flat[zero] = 1.0
        r2_1.flat[zero] = 1.0
        direct = [r2_0]
        if coincident or r2_1.min() == 0.0:
            r2_1 = _differences(p1, XT)[0]
            r2_1.flat[zero] = 1.0
            direct.append(r2_1)
        for r2 in direct:
            if r2.min() == 0.0:
                hit = r2 == 0.0
                if np.any(hit[:, ~isolated]):
                    raise SelfContactError("coincident vertices on "
                                           "non-adjacent edges; curve "
                                           "touches itself")
                r2[hit] = 1.0
        yield (r0, r1, u, pos, zero, X,
               ((p0, r2_0, td0), (p1, r2_1, td1)), c2)


def _add_kernel_sums(sums: np.ndarray, ends, c2: np.ndarray,
                     zero: np.ndarray, expo: float):
    """Add r^-expo and r^-expo c2 / r^4 over both ends of a block of
    `_vertex_blocks` to a (2, rows, V) block of the metric kernel sums,
    zeroed at the flat positions `zero`."""
    h = [r2 ** (-expo / 2) for _, r2, _ in ends]
    for h_a, (_, r2, _) in zip(h, ends):
        h_a.flat[zero] = 0.0
        sums[0] += h_a
        h_a /= r2
        h_a /= r2
    h[0] += h[1]
    h[0] *= c2
    sums[1] += h[0]


def _vertex_terms(net: CurveNetwork, params: EnergyParams,
                  grad: np.ndarray | None = None,
                  sums: np.ndarray | None = None) -> float:
    """The energy as sum_I (1/4) l_I sum_a sum_w M[I, w] k(x(I_a) - x_w, T_I).

    M[I, w] sums l_J over the edges J at vertex w that share no vertex with
    I: the incident length S[w] less the adjacent edges of
    `adjacent_vertex_triples`, and exactly zero where every edge at w is
    adjacent to I.  The pass walks `_vertex_blocks`; kernels where M = 0 are
    zeroed, not evaluated.  Each (I, w) takes one c^(alpha - 2) for the
    kernels c^alpha r^-beta of both ends, and the energy reads the weights
    W = (1/4) l_I M[I, w] as the outer product of (1/4) l_I and S,
    corrected at the adjacent pairs.  When grad, a (V, 3) array, is given,
    the differential is added to it: two (rows x V) products with the four
    partials A_a, B_a of both ends stacked give the partials in the
    endpoints, the tangents and the lengths l_I, and column sums less the
    same adjacency correction give the dependence of M on l_J.  When sums,
    a (2, E, V) array, is given, the metric kernel sums of
    `metric_kernel_sums` are added to it from the same samples.
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
    w_adj = lq[rows] * M                # W at the adjacent pairs
    w_fix = w_adj - lq[rows] * S[cols]  # less its outer-product value
    energy = 0.0
    if grad is not None:
        g_end = np.zeros((2, E, 3))     # d-partials at the ends x(I_a)
        g_col = np.zeros((V, 3))        # minus the d-partials at the x_w
        s_t = np.zeros((E, 3))          # sum of W c (T.d) d per edge
        dl = np.zeros(E)                # partials in the lengths
        col_k = np.zeros(V)             # column sums of (1/4) l_I sum_a k
        k_adj = np.zeros(len(rows))     # the same at the (I, w) pairs
        work = None                     # the A_a, B_a of the first block
    # near-contact overflow is deliberate: an inf energy makes the line
    # search reject the trial, so the warning is suppressed, not guarded
    with np.errstate(over="ignore", divide="ignore"):
        for r0, r1, u, pos, zero, X, ends, c2 in _vertex_blocks(net):
            if sums is not None:
                _add_kernel_sums(sums[:, r0:r1], ends, c2, zero,
                                 2 * params.sigma + 1)
            rb = [r2 ** (-beta / 2) for _, r2, _ in ends]
            q = c2 ** ((alpha - 2) / 2)
            if alpha < 2:
                # c^(alpha-2) is infinite at c = 0, but the factors it
                # scales are O(c), so the limit is zero for alpha > 1
                q[c2 == 0.0] = 0.0
            ks = rb[0] + rb[1]
            ks *= c2
            ks *= q                     # sum_a c^alpha r_a^-beta
            ks.flat[zero] = 0.0
            lq_rows, k_pos = lq[r0:r1], ks.flat[pos]
            e_rows = lq_rows * (ks @ S) + np.bincount(
                rows[u] - r0, weights=w_fix[u] * k_pos, minlength=r1 - r0)
            energy += float(e_rows.sum())
            if grad is None:
                continue
            dl[r0:r1] += e_rows / lengths[r0:r1]
            col_k += lq_rows @ ks
            k_adj[u] = lq[rows[u]] * k_pos
            # for unit T, dk/dd = c (d - (T.d) T) - beta k d / r2 and dk/dT
            # = c (r2 T - (T.d) d), with c = alpha c^(alpha-2) / r^beta
            W = np.multiply.outer(lq_rows, S)
            W.flat[pos] = w_adj[u]
            q *= W
            n = r1 - r0
            if work is None:            # the first block is the largest
                work = np.empty(4 * n * V)
            G = work[:4 * n * V].reshape(4, n, V)   # A_0, A_1, B_0, B_1
            cb = c2 * -beta
            for a, (_, r2, td) in enumerate(ends):
                A, B = G[a], G[2 + a]
                np.multiply(q, rb[a], out=B)    # W c / alpha
                np.divide(cb, r2, out=A)
                A += alpha
                A *= B                  # W (c - beta k / r2)
                B *= td                 # W c (T.d) / alpha
            G = G.reshape(4 * n, V)
            # one product gives every A_a X and B_a X with its row sums ...
            R = (G @ np.hstack([X, np.ones((V, 1))])).reshape(4, n, 4)
            t = tangents[r0:r1]
            (p0, _, _), (p1, _, _) = ends
            for a, p in enumerate((p0, p1)):
                g_end[a, r0:r1] += p * R[a, :, 3:] - R[a, :, :3] \
                    - alpha * R[2 + a, :, 3:] * t
            s_t[r0:r1] += alpha * (p0 * R[2, :, 3:] + p1 * R[3, :, 3:]
                                   - R[2, :, :3] - R[3, :, :3])
            # ... and one the column terms sum_I A_a (p_a - x_w) - alpha B_a
            # T of both ends, its last column the column sums of the A_a
            ones = np.ones((n, 1))
            bt = np.hstack([-alpha * t, np.zeros((n, 1))])
            C = G.T @ np.vstack([np.hstack([p0, ones]),
                                 np.hstack([p1, ones]), bt, bt])
            g_col += C[:, :3] - X * C[:, 3:]
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
    where every edge at w is adjacent to I.  |T_I x d| is the distance from
    x_w to the tangent line of I, one number for both ends.

    `metric.dense_kernel_matrices` forms the dense kernel matrices from
    them.  `discrete_differential` fills the same sums in its own pass when
    asked; this walks `_vertex_blocks` and `_add_kernel_sums`, the same
    code, for the sums alone.
    """
    sums = np.zeros((2, net.n_edges, net.n_vertices))
    for r0, r1, _, _, zero, _, ends, c2 in _vertex_blocks(net):
        _add_kernel_sums(sums[:, r0:r1], ends, c2, zero, 2 * sigma + 1)
    return sums


def discrete_energy(net: CurveNetwork, params: EnergyParams) -> float:
    """Trapezoidal tangent-point energy over all ordered non-adjacent edge pairs."""
    return _vertex_terms(net, params)


def discrete_differential(net: CurveNetwork, params: EnergyParams,
                          sums: np.ndarray | None = None
                          ) -> tuple[float, np.ndarray]:
    """The discrete energy and its exact gradient w.r.t. vertex positions,
    (V, 3), from one pass, as `bvh.bh_differential` returns them.

    When `sums`, a (2, E, V) array, is given, the same pass adds the metric
    kernel sums of `metric_kernel_sums` to it, for the dense H^s metric of
    the step.
    """
    grad = np.zeros((net.n_vertices, 3))
    return _vertex_terms(net, params, grad=grad, sums=sums), grad
