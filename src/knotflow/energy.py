"""Discrete tangent-point energy of a curve network and its exact differential.

The energy is a double sum over ordered pairs of edges that share no vertex;
each pair is weighted by a 4-point trapezoidal sample of the kernel

    k(p, q, T) = |T x (p - q)|^alpha / |p - q|^beta

using the first edge's unit tangent.  k is even in p - q, so one pass over
the unordered pairs I < J gives both orders, k(d, T_I) and k(d, T_J), from the
same four endpoint differences d.  The pass walks the pair list in chunks of
4096 and gathers endpoints and tangents as (3, E) columns with np.take, so its
memory is O(chunk).  The differential comes from the same pass: closed-form
partials of each pair term, including the dependence of edge length and
tangent on the endpoint positions, scattered with one bincount per coordinate.
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
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    T = np.asarray(T, dtype=float)
    if abs(np.linalg.norm(T) - 1.0) > 1e-9:
        raise ValueError("T must be a unit vector")
    d = p - q
    r = np.linalg.norm(d)
    if r == 0.0:
        raise SelfContactError("kernel undefined at p == q")
    cr = np.linalg.norm(np.cross(T, d))
    return float(cr ** params.alpha / r ** params.beta)


def _kernel_raw(d: np.ndarray, T: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Vectorized kernel over difference vectors d (..., 3), tangents T (..., 3).

    Near-contact overflow is deliberate: an inf energy makes the line search
    reject the trial, so the warning is suppressed rather than guarded.
    """
    r2 = np.einsum("...i,...i->...", d, d)
    cr2 = np.einsum("...i,...i->...", T, T) * r2 - np.einsum("...i,...i->...", T, d) ** 2
    cr2 = np.maximum(cr2, 0.0)
    with np.errstate(over="ignore", divide="ignore"):
        return cr2 ** (alpha / 2) / r2 ** (beta / 2)


def _kernel_grads(d, T, alpha, beta):
    """Kernel value plus gradients w.r.t. d and T.

    Returns (k, dk_dd, dk_dT) with shapes (...,), (..., 3), (..., 3).  The
    cross-product magnitude enters as cr^(alpha-2) times an O(cr) vector, so
    the cr -> 0 limit is zero for alpha > 1; guarded explicitly.
    """
    r2 = np.einsum("...i,...i->...", d, d)
    td = np.einsum("...i,...i->...", T, d)
    t2 = np.einsum("...i,...i->...", T, T)
    cr2 = np.maximum(t2 * r2 - td ** 2, 0.0)

    k = cr2 ** (alpha / 2) / r2 ** (beta / 2)

    # cr^(alpha-2) with a safe value where cr == 0 (the factors below are O(cr))
    safe = cr2 > 0
    cr_am2 = np.where(safe, cr2, 1.0) ** ((alpha - 2) / 2)
    cr_am2 = np.where(safe, cr_am2, 0.0)

    w_d = t2[..., None] * d - td[..., None] * T          # grad of cr^2 / 2 in d
    w_T = r2[..., None] * T - td[..., None] * d          # grad of cr^2 / 2 in T
    rb = r2 ** (beta / 2)
    dk_dd = (alpha * cr_am2 / rb)[..., None] * w_d \
        - (beta * cr2 ** (alpha / 2) / (rb * r2))[..., None] * d
    dk_dT = (alpha * cr_am2 / rb)[..., None] * w_T
    return k, dk_dd, dk_dT


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise dot products of two (3, P) arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


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


def _scatter(grad: np.ndarray, idx: np.ndarray, vals: np.ndarray):
    """grad[:, idx] += vals for a (3, V) grad and (3, m) vals, repeats summed."""
    for c in range(3):
        grad[c] += np.bincount(idx, weights=vals[c], minlength=grad.shape[1])


def _pair_terms(net: CurveNetwork, params: EnergyParams, I: np.ndarray,
                J: np.ndarray, grad: np.ndarray | None = None,
                j_ends: bool = True) -> np.ndarray:
    """Both orders of the pair terms of the edge pairs (I, J).

    Returns (e_I, e_J): the sums over the pairs of (1/4) l_I l_J sum_ab
    k(d_ab, T_I) and of the same with T_J.  k is even in d, so one set of
    endpoint differences serves both orders.  When grad, a (3, V) array, is
    given, the differential of e_I + e_J is added to it on the endpoints of
    I and, if j_ends, of J.
    """
    alpha, beta = params.alpha, params.beta
    lengths = net.geometry().lengths
    ends = (net.edges[:, 0], net.edges[:, 1])
    energy = np.zeros(2)
    # near-contact overflow is deliberate: an inf energy makes the line
    # search reject the trial, so the warning is suppressed, not guarded
    with np.errstate(over="ignore", divide="ignore"):
        for sl, ti, tj, samples in _pair_samples(net, I, J):
            li, lj = lengths.take(I[sl]), lengths.take(J[sl])
            tangents = (ti, tj)
            tt = (_dot3(ti, ti), _dot3(tj, tj))
            ksum = [0.0, 0.0]
            g_end = [[0.0, 0.0], [0.0, 0.0]]   # d-gradients per (edge, end)
            s_t = [0.0, 0.0]                   # sum of c (T.d) d per edge
            for a, b, d, r2 in samples:
                rb = r2 ** (-beta / 2)
                cd, g_t = 0.0, 0.0
                for side, t in enumerate(tangents):
                    td = _dot3(t, d)
                    cr2 = np.maximum(tt[side] * r2 - td * td, 0.0)
                    # cr^(alpha-2), zero where cr = 0: the factors it
                    # scales are O(cr), so the limit is zero for alpha > 1
                    cam = np.zeros_like(cr2)
                    np.power(cr2, (alpha - 2) / 2, out=cam, where=cr2 > 0)
                    k = cr2 * cam * rb
                    ksum[side] += k
                    if grad is None:
                        continue
                    # dk/dd = c (|T|^2 d - (T.d) T) - beta k d / r2 and
                    # dk/dT = c (r2 T - (T.d) d), with c = alpha cr^(alpha-2)
                    # / r^beta
                    c = alpha * cam * rb
                    u = c * td
                    cd = cd + c * tt[side] - beta * k / r2
                    g_t = g_t + u * t
                    s_t[side] = s_t[side] + u * d
                if grad is not None:
                    g_d = cd * d - g_t
                    g_end[0][a] = g_end[0][a] + g_d
                    g_end[1][b] = g_end[1][b] - g_d
            w = 0.25 * li * lj
            energy += (w @ ksum[0], w @ ksum[1])
            if grad is None:
                continue
            ks = ksum[0] + ksum[1]
            sides = 2 if j_ends else 1
            P = len(w)
            idx = np.empty(2 * sides * P, dtype=int)
            vals = np.empty((3, 2 * sides * P))
            for side in range(sides):
                t, s, edge = tangents[side], s_t[side], (I, J)[side][sl]
                # w / l_I = l_J / 4 scales both the length variation, dl/dx
                # = -+T at the two ends, and the tangent variation (Id - T
                # T^t) dk/dT, where the r2 T part of dk/dT projects away
                v = 0.25 * (lj, li)[side] * (ks * t + _dot3(s, t) * t - s)
                for end, sign in enumerate((-1.0, 1.0)):
                    cols = slice((2 * side + end) * P, (2 * side + end + 1) * P)
                    ends[end].take(edge, out=idx[cols])
                    np.multiply(w, g_end[side][end], out=vals[:, cols])
                    vals[:, cols] += sign * v
            _scatter(grad, idx, vals)
    return energy


def discrete_energy(net: CurveNetwork, params: EnergyParams) -> float:
    """Trapezoidal tangent-point energy over all ordered non-adjacent edge pairs."""
    return float(_pair_terms(net, params,
                             *net.disjoint_edge_pairs_upper()).sum())


def discrete_differential(net: CurveNetwork, params: EnergyParams) -> np.ndarray:
    """Exact gradient of the discrete energy w.r.t. vertex positions, (V, 3)."""
    grad = np.zeros((3, net.n_vertices))
    _pair_terms(net, params, *net.disjoint_edge_pairs_upper(), grad=grad)
    return grad.T.copy()
