"""Monic orthogonal polynomials, Jacobi matrices and Gauss quadrature.

Root finding goes exclusively through symmetric-tridiagonal eigenvalue
problems (Golub & Welsch, Math. Comp. 23, 1969): the Jacobi matrix with
diagonal a_k and off-diagonals sqrt(b_k) has the polynomial roots as
eigenvalues, guaranteed real and distinct.  The quadrature weights are the
Christoffel numbers b_0 / sum_k p_k(x)^2 over the orthonormal polynomials
at each node (Gautschi, Orthogonal Polynomials, 2004), equal to b_0 times
the squared first eigenvector components and positive as a sum of squares.
Every such eigensolve, single or batched, runs through ``_jacobi_batch``
(stacked ``numpy.linalg.eigvalsh``, no eigenvectors); single-matrix calls
are its J = 1 case.  Polynomial deflation and companion matrices are never
used.
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
    sorted ascending and guaranteed distinct for positive b.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag_b = np.asarray(offdiag_b, dtype=float)
    if diag.ndim != 1 or len(offdiag_b) != len(diag) - 1:
        raise ValueError("need len(offdiag_b) == len(diag) - 1")
    if np.any(offdiag_b <= 0):
        raise ValueError("off-diagonal weights must be positive (cannot symmetrize)")
    return _jacobi_batch(diag[None, :], np.sqrt(offdiag_b)[None, :])[0]


def _jacobi_batch(diag, offdiag, mass=None):
    """Stacked symmetric-tridiagonal eigenvalues; offdiag entries are the
    already-square-rooted couplings beta_1..beta_{m-1}.  Given ``mass``
    (shape (J, 1)) it also returns the Gauss weights as Christoffel numbers
    mass / sum_{k<m} p_k(x)^2 at every eigenvalue x, where the orthonormal
    polynomials follow beta_{k+1} p_{k+1} = (x - a_k) p_k - beta_k p_{k-1}
    with p_0 = 1.  These equal mass * (first eigenvector components)^2, the
    Golub-Welsch weights, without computing eigenvectors.  The matrices are
    filled through strided views of their diagonals and the recurrence runs
    order-major, on contiguous length-J rows of the transposed nodes; nodes
    and weights then come back as (J, m) transposed views.  A zero coupling
    (a decoupled matrix) leaves the eigenvalues exact and the weights
    undefined (0 or nan)."""
    J, m = diag.shape
    A = np.zeros((J, m, m))
    flat = A.reshape(J, m * m)
    flat[:, :: m + 1] = diag
    if m > 1:
        flat[:, 1 :: m + 1] = offdiag
        flat[:, m :: m + 1] = offdiag
    nodes = np.linalg.eigvalsh(A)
    if mass is None:
        return nodes
    del A, flat  # the recurrence needs only the rows; free the dense matrices
    x = np.array(nodes.T, order="C")
    del nodes
    d, off = diag.T, offdiag.T
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

