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
chunks of PAIR_CHUNK pairs, on the same tangent lines.  `_pair_sampler`
gathers only d_b = x(I_0) - x(J_b) for the two ends of J: the second end
of I lies on T_I's line, so |T_I x d|^2 is one number per end of J and the
samples of x(I_1) follow by scalar updates, and |T_J x d|^2 is likewise one
number per end of I.  k is even in p - q, so those samples give both
orders k(d, T_I) and k(d, T_J) that the differential needs, which
`_pair_coefficients` builds as scalar coefficients on d_0, d_1, T_I and
T_J per end of I, combined once before the scatter.  Four kernels take 4 +
2 powers of r and c (8 with both orders), where four independent samples
take 8 (12).  One kernel code serves exact and lumped terms:
`_sample_kernels` evaluates samples from per-sample scalars (r^2, and T.d,
|T x d|^2 and |T|^2 per tangent) and `_scatter_ends` scatters coefficient
terms, for the four samples of a pair here and the one sample at the
aggregates of a Barnes-Hut far entry; `bct.trapezoid_kernels` reads the
same samples.  Like the vertex pass, both take |T x d|^2 as max(r^2 -
(T.d)^2, 0).  `_vertex_terms` keeps its own kernel: its broadcast (rows x
V) blocks take their differential from two (4 rows x V) products, one for
the row terms and one for the column terms of both ends.

`_vertex_terms` and the pair kernel keep their own edge chain rule, not
`network.edge_chain`: their d-gradients differ at the two ends of an edge,
and they are the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    d = d[:, None]
    r2 = _dot3(d, d)
    if r2[0] == 0.0:
        raise SelfContactError("kernel undefined at p == q")
    ks, _, _ = _sample_kernels(r2, [_tangent_line(T[:, None], d, r2)],
                               params)
    return float(ks[0][0])


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the first axis of two (3, ...) arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _tangent_line(t: np.ndarray, d: np.ndarray, r2: np.ndarray):
    """The line (T.d, c2, |T|^2) of `_sample_kernels` for the (3, P) tangents
    t at the differences d, r2 = |d|^2: c2 = |T x d|^2 is max(|T|^2 r2 -
    (T.d)^2, 0), as in the vertex pass."""
    td, tt = _dot3(t, d), _dot3(t, t)
    return td, np.maximum(tt * r2 - td * td, 0.0), tt


def _sample_kernels(r2: np.ndarray, lines, params: EnergyParams,
                    grad: bool = False):
    """k = c^alpha / r^beta at samples with r2 = r^2, for each tangent line
    (td, c2, tt) of `lines`: td = T.d, c2 = c^2 = |T x d|^2, the squared
    distance from the sample to the line, and tt = |T|^2, None for a unit T.

    Each line's arrays broadcast against r2, so a c2 that several samples
    share takes its power c^(alpha - 2) once.  Returns (ks, A, us): the
    kernel per line and, with grad, the scalars of dk/dd = A d - sum_T u_T
    T, summed over the lines, with A = sum_T c_T |T|^2 - beta sum_T k_T / r2,
    u_T = c_T (T.d) and c_T = alpha c^(alpha - 2) / r^beta (else None,
    None).  The tangent variation dk/dT = c_T (r2 T - (T.d) d) needs only
    u_T.
    """
    alpha, beta = params.alpha, params.beta
    rb = r2 ** (-beta / 2)
    ks, A, us = [], None, []
    for td, c2, tt in lines:
        q = c2 ** ((alpha - 2) / 2)
        if alpha < 2:
            # c^(alpha-2) is infinite at c = 0, but the factors it scales
            # are O(c), so the limit is zero for alpha > 1
            q[c2 == 0.0] = 0.0
        if grad:
            # the first line's c_T starts A; a later one becomes its u_T
            c = alpha * q * rb
            if A is None:
                A = c if tt is None else c * tt
                us.append(c * td)
            else:
                A += c if tt is None else c * tt
                c *= td
                us.append(c)
        q *= c2                 # c^alpha
        ks.append(q * rb)
    if not grad:
        return ks, None, None
    k = rb                      # spent: it takes beta sum_T k_T / r2
    np.copyto(k, ks[0])
    for k_t in ks[1:]:
        k += k_t
    k *= beta
    k /= r2
    A -= k
    return ks, A, us


# Pairs per chunk of the pair kernel and the Barnes-Hut far field.  Per-call
# medians (nproc 2) of `bh_differential` on perturbed-circle n = 256 and
# 4096 (seed 5), and peak allocation of `bh_energy` / `bh_differential` on
# random-trefoil n = 384 (seed 8, plan cached), which the per-sample kernel
# this one replaced held to 0.97 / 2.01 MiB at 4096:
#     chunk   n = 256   n = 4096   peak, energy / differential
#     2048    3.09 ms   47.1 ms    0.40 / 1.00 MiB
#     4096    2.79 ms   41.5 ms    0.79 / 1.95 MiB
#     8192    2.60 ms   37.8 ms    1.51 / 3.73 MiB
PAIR_CHUNK = 4096


def _pair_chunks(n_pairs: int):
    for start in range(0, n_pairs, PAIR_CHUNK):
        yield slice(start, min(start + PAIR_CHUNK, n_pairs))


def _sum4(x: np.ndarray) -> np.ndarray:
    """The sum over the four samples [a, b] of a (2, 2, P) array."""
    return x.reshape(4, -1).sum(axis=0)


class PairChunk(NamedTuple):
    """P edge pairs (I, J) and their four trapezoid samples d_ab = x(I_a) -
    x(J_b), indexed [a, b], from `_pair_sampler`."""

    I: np.ndarray           # (P,) the edges I
    li: np.ndarray          # (P,) l_I
    lj: np.ndarray          # (P,) l_J
    ti: np.ndarray | None   # (3, P) T_I, with both orders
    tj: np.ndarray | None   # (3, P) T_J, with both orders
    d: np.ndarray | None    # (2, 3, P) d_0b = x(I_0) - x(J_b), with both
    r2: np.ndarray          # (2, 2, P) |d_ab|^2
    lines: tuple            # the tangent lines of T_I (and T_J)


def _pair_sampler(net: CurveNetwork, both: bool = False):
    """sample(I, J), the 4-point trapezoid samples of a chunk of edge pairs
    (I, J) of `net` as a `PairChunk`.  Callers pass each chunk straight to
    the code that consumes it, so one chunk's temporaries are freed before
    the next is gathered.

    Both samples x(I_0), x(I_1) of edge I lie on its tangent line, and
    x(I_1) = x(I_0) + l_I T_I.  So only d_b = x(I_0) - x(J_b), b = 0, 1,
    are gathered, with np.take from the (6, E) end positions of the edges:
    c2 = |T_I x d_ab|^2 is one number per b, T_I.d_1b = T_I.d_0b + l_I and
    r2_1b = c2 + (T_I.d_1b)^2.  The tangent lines of `_sample_kernels` are
    those of T_I, (T_I.d, c2) broadcast over a, and with both those of T_J:
    d_a1 = d_a0 - l_J T_J, so |T_J x d_ab|^2 is one number per a, from r2_a0
    and T_J.d_a0 = T_J.d_00 + a l_I T_I.T_J, broadcast over b.  The
    tangents are unit, so their tt is None.  Without both, the chunk keeps
    only what the energy reads: r2 and c2 (its T_I line has no T_I.d).

    A derived r2 need not be 0 where x(I_1) = x(J_b), so r2_1b is taken from
    gathered differences in every chunk of a network where two vertices
    coincide (one `_coincident_vertices` test per pass), and in a chunk
    where a derived r2 reads 0.  sample raises SelfContactError where some
    r2 is zero.
    """
    geom = net.geometry()
    X = np.ascontiguousarray(
        net.vertices[net.edges].transpose(1, 2, 0).reshape(6, -1))
    T = np.ascontiguousarray(geom.tangents.T)
    lengths = geom.lengths
    coincident = _coincident_vertices(net.vertices)

    def sample(I: np.ndarray, J: np.ndarray) -> PairChunk:
        P = len(I)
        d = X.take(J, axis=1).reshape(2, 3, P)
        np.subtract(X[:3].take(I, axis=1), d, out=d)
        ti, li = T.take(I, axis=1), lengths.take(I)
        r2 = np.empty((2, 2, P))
        td = np.empty_like(r2)
        np.einsum("bkp,bkp->bp", d, d, out=r2[0])
        np.einsum("kp,bkp->bp", ti, d, out=td[0])
        np.add(td[0], li, out=td[1])
        c2 = np.square(td[0])
        np.subtract(r2[0], c2, out=c2)
        np.maximum(c2, 0.0, out=c2)
        np.square(td[1], out=r2[1])
        r2[1] += c2
        if coincident or r2[1].min() == 0.0:
            e = X[3:].take(I, axis=1) - X.take(J, axis=1).reshape(2, 3, P)
            np.einsum("bkp,bkp->bp", e, e, out=r2[1])
        if not r2.all():
            raise SelfContactError("coincident vertices on non-adjacent "
                                   "edges; curve touches itself")
        lj = lengths.take(J)
        if not both:
            return PairChunk(I, li, lj, None, None, None, r2,
                             ((None, c2[None], None),))
        tj = T.take(J, axis=1)
        sd = np.empty_like(r2)
        np.einsum("kp,bkp->bp", tj, d, out=sd[0])
        np.add(sd[0], li * _dot3(ti, tj), out=sd[1])
        c2j = np.square(sd[:, 0])
        np.subtract(r2[:, 0], c2j, out=c2j)
        np.maximum(c2j, 0.0, out=c2j)
        return PairChunk(I, li, lj, ti, tj, d, r2,
                         ((td, c2[None], None), (sd, c2j[:, None], None)))

    return sample


def _scatter_ends(grad: np.ndarray, ends: np.ndarray, m: np.ndarray,
                  terms):
    """Add m sum_n c_n v_n at the ends of P edges to the (3, V) grad, for
    the (2, P) vertex indices `ends` of their two ends, the terms (c_n, v_n)
    of (2, P) coefficients, one row per end (or (P,), the same at both),
    and (3, P) vectors: each coordinate's end values are combined once,
    then scattered by np.bincount."""
    idx = ends.reshape(-1)
    row = np.empty(ends.shape)
    for k in range(3):
        (c, v), *rest = terms
        np.multiply(c, v[k], out=row)
        for c, v in rest:
            row += c * v[k]
        row *= m
        grad[k] += np.bincount(idx, weights=row.reshape(-1),
                               minlength=grad.shape[1])


def _pair_terms(net: CurveNetwork, params: EnergyParams, I: np.ndarray,
                J: np.ndarray, grad: np.ndarray | None = None) -> float:
    """The pair terms of a pair list (I, J), such as the Barnes-Hut leaf
    pairs; the exact energy takes `_vertex_terms` instead.

    Returns e_I, the sum over the pairs of (1/4) l_I l_J sum_ab k(d_ab, T_I).
    When grad, a (3, V) array, is given, the differential of e_I + e_J in the
    endpoints of I is added to it, where e_J is the same sum with T_J: over
    an ordered list holding (J, I) with each (I, J), that is the whole
    differential.  k is even in d, so the samples of `_pair_sampler` serve
    both orders; without grad only the T_I order is evaluated.  The pairs go
    in chunks of PAIR_CHUNK to `_chunk_terms`.
    """
    sample = _pair_sampler(net, both=grad is not None)
    ends = np.ascontiguousarray(net.edges.T)
    energy = 0.0
    # near-contact overflow is deliberate: an inf energy makes the line
    # search reject the trial, so the warning is suppressed, not guarded
    with np.errstate(over="ignore", divide="ignore"):
        for sl in _pair_chunks(len(I)):
            energy += _chunk_terms(sample(I[sl], J[sl]), params, ends, grad)
    return energy


def _chunk_terms(ch: PairChunk, params: EnergyParams, ends: np.ndarray,
                 grad: np.ndarray | None) -> float:
    """The energy of one `PairChunk` and, into grad, its differential at
    the ends of I, given by `ends`, the (2, E) end vertices of the edges."""
    m = 0.25 * ch.lj            # the pair weight is l_I m
    if grad is None:
        ks, _, _ = _sample_kernels(ch.r2, ch.lines, params)
        return float((ch.li * m) @ _sum4(ks[0]))
    # the kernel values die with `_pair_coefficients`, before the scatter
    k, terms = _pair_coefficients(
        ch, *_sample_kernels(ch.r2, ch.lines, params, grad=True))
    _scatter_ends(grad, ends.take(ch.I, axis=1), m, terms)
    return float((ch.li * m) @ k)


def _pair_coefficients(ch: PairChunk, ks, A: np.ndarray, us):
    """sum_ab k(d_ab, T_I) per pair of a chunk, and the differential's
    terms of `_scatter_ends`: scalar coefficients on d_0, d_1, T_I and T_J
    per end of I, to be scaled by l_J / 4.

    With d_1b = d_0b + l_I T_I, they fold the d-gradients A_ab d_ab - u_I
    T_I - u_J T_J of `_sample_kernels` at end a, the length variation (dl/dx
    = -+T) of the pair weight l_I l_J / 4, and the tangent variation (Id - T
    T^t) / l_I of the sum s = sum_ab u_I,ab d_ab.  Buffers of `ks`, A and
    `us` are reused.
    """
    li, (u_i, u_j), td = ch.li, us, ch.lines[0][0]
    k = _sum4(ks[0])
    ua = u_i.sum(axis=1)        # over b
    a1 = A[1, 0] + A[1, 1]
    cd = A                      # on d_b at end a: l_I A_ab -+ sum_a u_I,ab
    cd *= li
    for u in u_i:
        cd[0] += u
        cd[1] -= u
    # K + sum_ab u_I,ab T_I.d_ab: the length and tangent variations, less
    # the l_I T_I part of s
    z = ks[0]
    z += ks[1]
    u_i *= td
    z += u_i
    z = _sum4(z)
    z -= li * ua[1]
    # on T_I: -l_I U_0 - z at end 0 and l_I (l_I sum_b A_1b - U_1) + z at
    # end 1, with U_a = sum_b u_I,ab
    ct = ua
    ct[1] -= li * a1
    ct[1] *= -li
    ct[1] += z
    ct[0] *= -li
    ct[0] -= z
    cj = u_j.sum(axis=1)        # on T_J
    cj *= -li
    return k, ((cd[:, 0], ch.d[0]), (cd[:, 1], ch.d[1]), (ct, ch.ti),
               (cj, ch.tj))


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
