"""Discrete fractional Sobolev inner product A = B + B0 and the dense saddle
factorization.

Both parts follow from one formula, which `metric_parts` assembles for the
dense and the hierarchical metric alike; only the storage of the kernel
matrices differs:

    A = sum_c D_c^T (diag(K 1) - K) D_c + E^T (diag(K0 1) - K0) E

D_c is component c of the edgewise derivative (`derivative_matrix`), E the
vertex-to-edge average (`average_matrix`), and K, K0 the (E x E) high- and
low-order kernel matrices.  Each part is one congruence: D_c = diag(T_c /
l) G with G the signed incidence (`difference_matrix`), so

    sum_c D_c^T M D_c = G^T (M o T T^T / l l^T) G

for any M, the Hadamard factor summing the three components.
`MetricOperator` passes the dense K, K0 of `dense_kernel_matrices` and
their own row sums.  Those matrices gather the (E x V) vertex sums of the
kernels, which the step's differential pass fills from its own samples
(`energy.discrete_differential`) or `energy.metric_kernel_sums` computes,
so no E^2 pair list is read.  `bct.HierMetric` passes the sparse exact
near fields of its kernel matrices with the row sums of the whole
hierarchical K = K_near + K_far.  It subtracts the far field's D_c^T K_far
D_c and E^T K0_far E on its own, so what it applies is the formula for
that K, and the diagonal of its row sums kills constants whatever the
block approximation error.  Both parts kill globally constant functions,
so A is singular and gradient solves go through a saddle system [[A_bar,
C^T], [C, 0]] with A_bar = blockdiag(A, A, A) and at least one
translation-fixing constraint row in C.

`SaddleFactor` solves that system exactly without forming it.  With m the
(scaled) dual masses and U = blockdiag(m, m, m), A' = A + m m^T is SPD; it
is Cholesky-factored and inverted once per step.  Writing A_bar = A_bar' -
U U^T turns the saddle system into one bordered by B = [C; U^T], whose
Schur complement S = B A_bar'^-1 B^T - diag(0_k, I_3) is solved through a
Cholesky factor of its SPD (k x k) block C A_bar'^-1 C^T and a dense 3 x 3
remainder.  That Gram is formed a column block at a time from row blocks
of C A_bar'^-1, each one sparse product with C reindexed as (3k x V), and
the solves apply A_bar'^-1 to C^T lambda, so the factor holds O(V^2 + k^2)
numbers and no (k x 3V) array.  One factorization serves the direction
solve and every projection iteration of a step.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix, diags_array, issparse

from .energy import EnergyParams, metric_kernel_sums
from .network import CurveNetwork

# Relative Cholesky pivot (pivot^2 over its diagonal entry) below which the
# constraint block is suspected to be rank deficient; rounding puts the pivot
# of an exactly dependent row near 1e-16.
RANK_PIVOT_TOL = 1e-10

# Rows per block of the dense row-block loops: the kernel matrices' gather,
# scaling and symmetrization, and the saddle factor's Gram.  Best of 40
# calls (nproc 2, one BLAS thread) and tracemalloc peak on random-trefoil
# n = 384 (seed 8), best of 12 on perturbed-circle n = 1024 (seed 5), both
# with barycenter + edge lengths:
#     rows   dense_kernel_matrices        SaddleFactor
#            n = 384          n = 1024    n = 384          n = 1024
#     16     1.45 ms 2.48 MiB 18.5 ms     11.6 ms 3.61 MiB 83.7 ms
#     32     1.35    2.65     16.6        10.5    3.61     76.9
#     64     1.27    2.91     19.3        10.6    3.74     74.9
#     128    1.45    3.38     19.3        11.6    5.06     81.7
#     256    1.53    3.75     21.7        12.4    7.68     87.5
ROW_BLOCK = 64


def derivative_matrix(net: CurveNetwork) -> csr_matrix:
    """Sparse (3E x V) edgewise derivative: (Du)_I = (u_{i2} - u_{i1}) T_I / l_I.

    Row 3*I + c holds component c of the derivative on edge I.
    """
    geom = net.geometry()
    E = net.n_edges
    coeff = geom.tangents / geom.lengths[:, None]     # (E, 3)
    rows = np.repeat(3 * np.arange(E), 2 * 3).reshape(E, 2, 3) \
        + np.arange(3)[None, None, :]
    cols = np.broadcast_to(net.edges[:, :, None], (E, 2, 3))
    vals = np.stack([-coeff, coeff], axis=1)          # (E, 2, 3)
    return csr_matrix((vals.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
                      shape=(3 * E, net.n_vertices))


def average_matrix(net: CurveNetwork) -> csr_matrix:
    """Sparse (E x V) vertex-to-edge averaging operator."""
    E = net.n_edges
    rows = np.repeat(np.arange(E), 2)
    cols = net.edges.reshape(-1)
    vals = np.full(2 * E, 0.5)
    return csr_matrix((vals, (rows, cols)), shape=(E, net.n_vertices))


def difference_matrix(net: CurveNetwork) -> csr_matrix:
    """Sparse (E x V) signed incidence: (G u)_I = u_{i2} - u_{i1}."""
    E = net.n_edges
    vals = np.tile([-1.0, 1.0], E)
    return csr_matrix((vals, net.edges.reshape(-1), 2 * np.arange(E + 1)),
                      shape=(E, net.n_vertices))


def dense_kernel_matrices(net: CurveNetwork, sigma: float,
                          sums: np.ndarray | None = None):
    """Exact dense (E x E) high- and low-order K, excluded pairs zeroed.

    From the vertex sums Hs, Ls of `energy.metric_kernel_sums` (given, as
    `discrete_differential` fills them, or computed here): K[I, J] = 1/2
    l_I l_J (Hs[I, J_0] + Hs[I, J_1]) sums r^-(2 sigma + 1) over the four
    endpoint pairs, and K0 = L + L^T with L[I, J] = 1/4 l_I l_J (Ls[I, J_0]
    + Ls[I, J_1]) symmetrizes the low-order term over the argument order.
    The identical and adjacent pairs of `adjacent_vertex_triples` are zeroed.
    """
    if sums is None:
        sums = metric_kernel_sums(net, sigma)
    lengths = net.geometry().lengths
    ends = net.edges.T
    K, L = (s.take(ends[0], axis=1) for s in sums)
    for r in _row_blocks(len(lengths)):
        ll = np.multiply.outer(lengths[r], lengths)
        for M, s, weight in ((K, sums[0], 0.5), (L, sums[1], 0.25)):
            block = M[r]
            block += s[r].take(ends[1], axis=1)
            block *= ll
            block *= weight
    K0 = _add_transpose(L)
    rows, _, _, group, J = net.adjacent_vertex_triples()
    K[rows[group], J] = 0.0
    K0[rows[group], J] = 0.0
    return K, K0


def _row_blocks(n: int):
    """Slices of ROW_BLOCK consecutive rows covering range(n)."""
    return (slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK))


def _add_transpose(M: np.ndarray) -> np.ndarray:
    """M + M^T formed in M, a row block and its mirrored column block at a
    time, so no second (n x n) array is made.  Block r reads only entries
    that earlier blocks have not written."""
    for r in _row_blocks(len(M)):
        sym = M[r, r.start:] + M[r.start:, r].T
        M[r, r.start:] = sym
        M[r.start:, r] = sym.T
    return M


def _congruence(op: csr_matrix, M):
    """op^T M op for a sparse (E x V) op and a symmetric M, in M's storage:
    an array for a dense M, CSR for a sparse one."""
    opT = op.T.tocsr()
    return opT @ (opT @ M).T


def _tangent_scaled(K, U: np.ndarray):
    """K o U U^T, the entries K[I, J] scaled by U_I . U_J, in K's storage."""
    if not issparse(K):
        scaled = U @ U.T
        scaled *= K
        return scaled
    K = csr_matrix(K)
    I = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    scale = np.einsum("ij,ij->i", U[I], U[K.indices])
    return csr_matrix((K.data * scale, K.indices, K.indptr), shape=K.shape)


def _diag_minus(rows: np.ndarray, M, overwrite: bool = False):
    """diag(rows) - M in M's storage.  A dense M is negated, in place with
    `overwrite`, and gets the rows added to its diagonal."""
    if issparse(M):
        return diags_array(rows) - M
    M = np.negative(M, out=M if overwrite else None)
    M.flat[::len(rows) + 1] += rows
    return M


def metric_parts(net: CurveNetwork, K, K0, rows=None, rows0=None):
    """(V x V) high- and low-order parts (B, B0) of the metric.

    B = sum_c D_c^T (diag(rows) - K) D_c and B0 = E^T (diag(rows0) - K0) E
    (module docstring) for (E x E) kernel matrices K, K0, both dense arrays
    or both scipy sparse; the parts come back dense or CSR alike.  `rows`
    and `rows0` default to the row sums of K and K0.  Each part is one
    congruence (module docstring): B's with the signed incidence of
    `difference_matrix`, B0's with the averaging matrix.
    """
    if rows is None:
        rows = np.asarray(K.sum(axis=1)).ravel()
    if rows0 is None:
        rows0 = np.asarray(K0.sum(axis=1)).ravel()
    geom = net.geometry()
    U = geom.tangents / geom.lengths[:, None]
    B = _congruence(difference_matrix(net),
                    _diag_minus(rows * np.einsum("ij,ij->i", U, U),
                                _tangent_scaled(K, U), overwrite=True))
    return B, _congruence(average_matrix(net), _diag_minus(rows0, K0))


class MetricOperator:
    """Assembled dense metric A = B + B0 with the `HierMetric` apply.

    `sums` are the metric kernel sums of `net`, as `discrete_differential`
    fills them; without them `dense_kernel_matrices` computes its own.
    """

    def __init__(self, net: CurveNetwork, params: EnergyParams,
                 sums: np.ndarray | None = None):
        A, B0 = metric_parts(net, *dense_kernel_matrices(net, params.sigma,
                                                         sums))
        A += B0
        self.A = A

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u for a (V,) field or the columns of a (V, m) array."""
        return self.A @ u


def checked_cholesky(M: np.ndarray):
    """Lower Cholesky factor of SPD M as `scipy.linalg.cho_factor` returns it,
    plus whether some relative pivot fell below RANK_PIVOT_TOL.

    Raises `numpy.linalg.LinAlgError` when M is not numerically positive
    definite.
    """
    factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    pivots = np.diag(factor[0]) ** 2
    weak = bool(np.any(pivots < RANK_PIVOT_TOL * np.diag(M)))
    return factor, weak


def cholesky_inverse(factor) -> np.ndarray:
    """Inverse of SPD M from its lower Cholesky factor, as
    `scipy.linalg.cho_factor(M, lower=True)` returns it; the inverse
    overwrites the factor.

    LAPACK's dpotri fills the lower triangle of M^-1 in place, which is then
    mirrored 64 rows at a time, so no second (V x V) array is made;
    cheaper than `cho_solve` on the identity.
    """
    inv, info = scipy.linalg.lapack.dpotri(factor[0], lower=1, overwrite_c=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotri failed with info = {info}")
    n, strip = len(inv), 64
    for s in range(0, n, strip):
        e = min(s + strip, n)
        inv[s:e, e:] = inv[e:, s:e].T
        block = inv[s:e, s:e]
        block[...] = np.tril(block) + np.tril(block, -1).T
    return inv.T                # symmetric; the C-ordered view


class SaddleFactor:
    """Exact solves of [[A_bar, C^T], [C, 0]] [x; lam] = [top; bottom] from
    the (V x V) metric A, the (k x 3V) Jacobian C and the dual masses.

    See the module docstring for the bordered Schur complement.  The factor
    keeps A'^-1, the Cholesky factor of the Gram C A_bar'^-1 C^T (formed
    from row blocks of C A_bar'^-1) and O(V + k) vectors; its solves apply
    A_bar'^-1 to C^T lam.  The same factorization serves the gradient
    projection and every iteration of constraint projection within one time
    step.  `rank_suspect` is True when a pivot of the (k x k) constraint
    block was tiny, which is how rank loss of C shows; numpy's LinAlgError
    is raised when that block is not positive definite at all.

    `solve_gradient` and `solve_projection_step` are the calls
    `MultigridHierarchy` answers too; an exact solve leaves its V-cycle
    tallies `solves`, `cycles`, `unconverged` and `residual` and its count of
    hierarchical metric levels `hier_levels` at zero, and it has no multigrid
    `levels`.
    """

    solves = cycles = unconverged = hier_levels = 0
    residual = 0.0
    levels = ()

    def __init__(self, A: np.ndarray, C, masses: np.ndarray):
        if C is None or C.shape[0] == 0:
            raise ValueError(
                "saddle system is singular: supply at least one "
                "translation-fixing constraint")
        C = csr_matrix(C)
        V, k = A.shape[0], C.shape[0]
        # C reindexed as (3k x V): row 3i + c holds C[i, cV:(c+1)V]
        C3 = C.tocoo()
        comp, col = np.divmod(C3.col, V)
        C3 = csr_matrix((C3.data, (3 * C3.row + comp, col)), shape=(3 * k, V))
        m = np.asarray(masses, dtype=float)
        # scale m so that m m^T adds an eigenvalue of the size of A's diagonal
        m = m * np.sqrt(np.trace(A) / (V * (m @ m)))
        chol = scipy.linalg.cho_factor(A + np.outer(m, m), lower=True,
                                       check_finite=False)
        # the explicit inverse A'^-1 (O(V^3) once) turns the rows of
        # C A_bar'^-1 into sparse products, cheaper than 3k triangular solves
        # for k ~ V; it is the factor's only (V x V) array
        inv = cholesky_inverse(chol)
        self._q = inv @ m                           # A'^-1 m
        Q = np.zeros((3 * V, 3))
        for c in range(3):
            Q[c * V:(c + 1) * V, c] = self._q
        s_cu = np.asarray(C @ Q)                    # C A_bar'^-1 U, (k x 3)
        # S's U block (m . q - 1) I from (m . q)(1 - m . q) = q . A q, which
        # A' q = m gives; taken as that difference, it would cancel to
        # rounding noise where A kills constants and the block is 0
        s_uu = -(self._q @ (A @ self._q)) / (m @ self._q) * np.eye(3)
        # C A_bar'^-1 C^T column block by column block from row blocks of
        # C A_bar'^-1, so no (k x 3V) array is held
        gram = np.empty((k, k))
        for r in _row_blocks(k):
            block = C3[3 * r.start:3 * r.stop] @ inv
            gram[:, r] = C @ block.reshape(-1, 3 * V).T
        self._cc, self.rank_suspect = checked_cholesky(gram)
        self._x = scipy.linalg.cho_solve(self._cc, s_cu, check_finite=False)
        self._s_cu = s_cu
        # dense 3 x 3 remainder, symmetric, with eigenvalues of order 1 or
        # below; on the hs metric one is 0 for each translation C leaves free,
        # where the saddle system is singular.  Eigenvalues at rounding level
        # are dropped, so consistent systems (projections) still get a solve.
        # A length-weighted barycenter couples to the smooth modes, which
        # shrinks the remainder to 1e-4 on a near-planar curve, so noise of
        # 1e-13 in the U block would put errors of 1e-9 into every solve.
        self._r3_pinv = scipy.linalg.pinvh(s_uu - s_cu.T @ self._x,
                                           atol=1e-12, rtol=0.0)
        # C^T in CSR: C.T of a CSR matrix is a CSC view whose product with
        # lam costs three times as much at k = 4, V = 256
        self._inv, self._C, self._Ct, self._m = inv, C, C.T.tocsr(), m
        self.n, self.k = 3 * V, k

    def solve(self, top: np.ndarray | None, bottom: np.ndarray | None):
        """Solve for primal (3V,) and multipliers (k,) given RHS blocks.

        Without `top` (a projection) y = A_bar'^-1 top is zero, so neither
        y nor C y and y . m is formed."""
        if top is None:
            y, r_c, y_m = 0.0, -bottom, 0.0
        else:
            y = self._apply_inv(top)
            r_c = self._C @ y.reshape(-1)
            if bottom is not None:
                r_c = r_c - bottom
            y_m = y @ self._m
        w = scipy.linalg.cho_solve(self._cc, r_c, check_finite=False)
        nu_u = self._r3_pinv @ (y_m - self._s_cu.T @ w)
        lam = w - self._x @ nu_u
        x = y - np.outer(nu_u, self._q) - self._apply_inv(self._Ct @ lam)
        return x.reshape(-1), lam

    def _apply_inv(self, vec: np.ndarray) -> np.ndarray:
        """A_bar'^-1 vec as a (3, V) array, for a stacked (3V,) vec."""
        return (self._inv @ np.reshape(vec, (3, -1)).T).T

    def solve_gradient(self, b: np.ndarray) -> np.ndarray:
        """Projected gradient x (3V,) of the stacked differential b."""
        return self.solve(b, None)[0]

    def solve_projection_step(self, phi: np.ndarray) -> np.ndarray:
        """Metric-nearest x (3V,) with C x = -phi."""
        return self.solve(None, -phi)[0]
