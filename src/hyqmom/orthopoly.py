"""Monic orthogonal polynomials, Jacobi matrices and Gauss quadrature.

Root finding goes exclusively through symmetric-tridiagonal eigenvalue
problems (Golub & Welsch, Math. Comp. 23, 1969): the Jacobi matrix with
diagonal a_k and off-diagonals sqrt(b_k) has the polynomial roots as
eigenvalues, guaranteed real and distinct.  The quadrature weights are the
Christoffel numbers b_0 / sum_k p_k(x)^2 over the orthonormal polynomials
at each node (Gautschi, Orthogonal Polynomials, 2004), equal to b_0 times
the squared first eigenvector components and positive as a sum of squares.
Every such eigensolve, single or batched, runs through ``_jacobi_batch``
and computes no eigenvectors; single-matrix calls are its J = 1 case.  It
picks the solver from the order m: a closed form on length-J rows for
m <= 3 (Smith's trigonometric roots with one Newton step at m = 3), and
stacked ``numpy.linalg.eigvalsh`` for m >= 4 and for m = 3 lanes with two
nearly equal eigenvalues.  Polynomial deflation and companion matrices are
never used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .moments import _as_moment_array, moments_to_recurrence

# Two roots closer than this fraction of the spectral radius are flagged as
# near-degenerate (boundary-of-realizability inputs); not an error.
NEAR_DEGENERACY_RTOL = 1e-8


@dataclass
class Quadrature:
    """Node/weight pairs; nodes strictly increasing, weights positive."""

    nodes: np.ndarray
    weights: np.ndarray

    def power_sum(self, k):
        """Reconstructed moment sum_i w_i u_i^k."""
        return float(np.sum(self.weights * self.nodes**k))

    def to_json(self):
        return json.dumps(
            {
                "nodes": [float(x) for x in self.nodes],
                "weights": [float(w) for w in self.weights],
            }
        )


def poly_eval(coeffs, x):
    """Evaluate a low-to-high coefficient array at x (Horner)."""
    coeffs = np.asarray(coeffs)
    acc = np.zeros_like(np.asarray(x, dtype=float)) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def poly_mul(p, q):
    return np.convolve(p, q)


def _monic_pair_batch(a, b, deg):
    """Batched monic (Q_deg, Q_{deg-1}) coefficient rows (low-to-high) from
    the recursion Q_{k+1} = (X - a_k) Q_k - b_k Q_{k-1}, which reads
    a_0..a_{deg-1} and b_1..b_{deg-1}; dtype follows a."""
    J = a.shape[0]
    dtype = np.result_type(a.dtype, b.dtype)
    qm = np.zeros((J, deg + 1), dtype=dtype)
    q = np.zeros((J, deg + 1), dtype=dtype)
    q[:, 0] = 1.0
    for k in range(deg):
        qn = np.zeros_like(q)
        qn[:, 1 : k + 2] = q[:, : k + 1]
        qn[:, : k + 1] -= a[:, k : k + 1] * q[:, : k + 1]
        if k >= 1:
            qn[:, :k] -= b[:, k : k + 1] * qm[:, :k]
        qm, q = q, qn
    return q, qm[:, :deg] if deg else np.zeros((J, 0), dtype=dtype)


def jacobi_roots(diag, offdiag_b):
    """Roots of the monic polynomial with recursion diagonal ``diag`` and
    weights ``offdiag_b`` (the b_k, of which square roots are taken).

    These are the eigenvalues of the symmetric tridiagonal Jacobi matrix;
    sorted ascending and guaranteed distinct for positive b.  Non-finite
    entries are refused (a NaN would pass the positivity check).
    """
    diag = np.asarray(diag, dtype=float)
    offdiag_b = np.asarray(offdiag_b, dtype=float)
    if diag.ndim != 1 or len(offdiag_b) != len(diag) - 1:
        raise ValueError("need len(offdiag_b) == len(diag) - 1")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag_b))):
        raise ValueError("recursion coefficients must be finite")
    if np.any(offdiag_b <= 0):
        raise ValueError("off-diagonal weights must be positive (cannot symmetrize)")
    return _jacobi_batch(diag[None, :], np.sqrt(offdiag_b)[None, :])[0]


def _small_jacobi_eigenvalues(d, off):
    """Ascending eigenvalues, as an (m, J) array, of the Jacobi matrices of
    order m <= 3 with order-major diagonal rows d (m, J) and coupling rows
    off (m-1, J), in closed form on length-J rows.  m = 2 is h +- hypot of
    the half difference and the coupling.  m = 3 is Smith's trigonometric
    form (CACM 4(4), 1961) on T - qI with q = trace/3: p^2 = ||T - qI||_F^2/6,
    r = det(T - qI)/(2p^3) clipped to [-1, 1], phi = arccos(r)/3, outer roots
    q + 2p cos(phi) and q + 2p cos(phi + 2pi/3), middle root from the trace;
    then one Newton step on the characteristic polynomial, evaluated by the
    three-term recurrence, where its derivative is nonzero.  The trigonometric
    pair is off by about eps p^2 / gap; one Newton step repaired that at a
    gap of 1e-5 p but not at 1e-6 p (60-digit reference), so lanes whose
    closest pair is within 1e-4 p are solved again by
    ``_dense_eigenvalues``."""
    m, J = d.shape
    x = np.empty((m, J))
    if m == 1:
        x[0] = d[0]
        return x
    if m == 2:
        np.add(d[0], d[1], out=x[1])
        x[1] *= 0.5
        r = np.subtract(d[0], d[1])
        r *= 0.5
        np.hypot(r, off[0], out=r)
        np.subtract(x[1], r, out=x[0])
        x[1] += r
        return x
    q, r, p, t, s1, s2 = np.empty((6, J))
    np.add(d[0], d[1], out=q)
    q += d[2]
    q /= 3.0
    for k in range(3):
        np.subtract(d[k], q, out=x[k])
    np.multiply(off[0], off[0], out=s1)
    np.multiply(off[1], off[1], out=s2)
    np.multiply(x[1], x[2], out=r)  # det(T - qI), then r
    r -= s2
    r *= x[0]
    np.multiply(s1, x[2], out=t)
    r -= t
    np.add(s1, s2, out=p)  # 6 p^2, then p
    p *= 2.0
    for k in range(3):
        np.multiply(x[k], x[k], out=t)
        p += t
    p /= 6.0
    np.sqrt(p, out=p)
    # p = 0 only for T = qI, where det = 0 as well and the floor gives r = 0
    np.maximum(p, np.finfo(float).tiny, out=t)
    for _ in range(3):
        r /= t
    r *= 0.5
    np.clip(r, -1.0, 1.0, out=r)
    phi = np.arccos(r, out=r)
    phi /= 3.0
    for k, shift in ((2, 0.0), (0, 2.0 * np.pi / 3.0)):
        phi += shift
        np.cos(phi, out=x[k])
        x[k] *= p
        x[k] *= 2.0
    np.add(x[0], x[2], out=x[1])
    np.negative(x[1], out=x[1])
    # the closest pair of each lane, against 1e-4 p
    np.subtract(x[1], x[0], out=r)
    np.subtract(x[2], x[1], out=t)
    np.minimum(r, t, out=r)
    p *= 1e-4
    close = np.flatnonzero(r <= p)
    x += q
    p1, dp, p3 = q, r, p
    for xk in x:
        # P1 = x - d0, P2 = (x - d1) P1 - b1, P3 = (x - d2) P2 - b2 P1
        np.subtract(xk, d[0], out=p1)
        np.subtract(xk, d[1], out=t)
        np.add(p1, t, out=dp)  # P2'
        t *= p1
        t -= s1  # P2
        np.subtract(xk, d[2], out=p3)
        dp *= p3
        dp += t
        dp -= s2  # P3'
        p3 *= t
        p1 *= s2
        p3 -= p1  # P3
        dp[dp == 0] = np.inf  # no step where the derivative vanishes
        p3 /= dp
        xk -= p3
    if close.size:
        x[:, close] = _dense_eigenvalues(d[:, close].T, off[:, close].T).T
    return x


def _dense_eigenvalues(diag, offdiag):
    """``numpy.linalg.eigvalsh`` of the dense (J, m, m) Jacobi matrices,
    filled through strided views of their diagonals; (J, m) ascending."""
    J, m = diag.shape
    A = np.zeros((J, m, m))
    flat = A.reshape(J, m * m)
    flat[:, :: m + 1] = diag
    flat[:, 1 :: m + 1] = offdiag
    flat[:, m :: m + 1] = offdiag
    return np.linalg.eigvalsh(A)


def _jacobi_batch(diag, offdiag, mass=None):
    """Stacked symmetric-tridiagonal eigenvalues; offdiag entries are the
    already-square-rooted couplings beta_1..beta_{m-1}.  Orders m <= 3 are
    solved in closed form (``_small_jacobi_eigenvalues``), larger ones by
    ``numpy.linalg.eigvalsh`` on dense (J, m, m) matrices filled through
    strided views of their diagonals.  Given ``mass`` (shape (J, 1)) it
    also returns the Gauss weights as Christoffel numbers
    mass / sum_{k<m} p_k(x)^2 at every eigenvalue x, where the orthonormal
    polynomials follow beta_{k+1} p_{k+1} = (x - a_k) p_k - beta_k p_{k-1}
    with p_0 = 1.  These equal mass * (first eigenvector components)^2, the
    Golub-Welsch weights, without computing eigenvectors.  The closed form
    and the recurrence run order-major, on contiguous length-J rows of the
    transposed inputs; nodes and weights come back as (J, m) transposed
    views.  With a zero coupling (a decoupled matrix) the eigenvalues are
    those of the diagonal blocks, exactly from LAPACK and within about
    eps ||T||_F in closed form, and the weights are undefined (0 or nan)."""
    J, m = diag.shape
    d, off = diag.T, offdiag.T
    if m <= 3:
        x = _small_jacobi_eigenvalues(d, off)
        if mass is None:
            return x.T
    else:
        nodes = _dense_eigenvalues(diag, offdiag)
        if mass is None:
            return nodes
        x = np.array(nodes.T, order="C")
        del nodes
    p_prev, p = 0.0, 1.0
    christoffel = np.ones_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m - 1):
            p_next = (x - d[k]) * p
            if k:
                p_next -= off[k - 1] * p_prev
            p_next /= off[k]
            christoffel += p_next * p_next
            p_prev, p = p, p_next
    return x.T, (mass.T / christoffel).T


def gauss_quadrature(m, tol=None):
    """n-point Gauss rule of an even-length (2n) strictly realizable vector.

    The nodes are the zeros of Q_n and the rule reproduces M_0..M_{2n-1}.
    Raises NotRealizableError on realizability failure.
    """
    m = _as_moment_array(m)
    if len(m) % 2:
        raise ValueError("gauss_quadrature expects an even-length moment vector")
    kwargs = {} if tol is None else {"tol": tol}
    a, b = moments_to_recurrence(m, **kwargs)
    n = len(m) // 2
    nodes, weights = _jacobi_batch(a[None, :n], np.sqrt(b[None, 1:n]), b[None, :1])
    return Quadrature(nodes=nodes[0], weights=weights[0])


def check_interlacing(inner, outer):
    """Strict interlacing outer_0 < inner_0 < outer_1 < ... < outer_k."""
    inner = np.asarray(inner, dtype=float)
    outer = np.asarray(outer, dtype=float)
    if len(outer) != len(inner) + 1:
        raise ValueError("need len(outer) == len(inner) + 1")
    merged = np.empty(len(inner) + len(outer))
    merged[0::2] = outer
    merged[1::2] = inner
    return bool(np.all(np.diff(merged) > 0))

