"""Exact certification of the structural stability condition.

For the affine-invariant (gamma = 1) closure at an equilibrium state the
certificate checks:

  (I)   the source Jacobian S is similar to diag(0_3, -I_{N-2}) through the
        explicit block matrix P^{-1} whose first three columns are
        (Delta_j, rho dU Delta_j, rho/2 dU^2 Delta_j);
  (II)  A_0 A = A^T A_0 for the symmetrizer A_0 = L^T D L, which is positive
        definite; L collects the Horner tails F_k of the characteristic
        polynomial c evaluated at the eigenvalues, D fixed positive weights;
  (III) K = P^{-T} A_0 P^{-1} is block diagonal (the off-diagonal blocks
        encode the coupling sums over the h_j polynomials).

The certificate is built once per n, at the standard state (1, 0, 1), and
carried to every equilibrium (rho, U, theta) as the paper carries the
theorem.  The gamma = 1 closure is affine invariant: xi -> U + sqrt(theta) xi
maps the moments by a triangular T, the Jacobian to T (sqrt(theta) A + U I)
T^{-1} and the symmetrizer to the congruence T^{-T} A_0 T^{-1}, so each
condition holds at the state iff it holds at the standard state.  The
density drops out exactly: P^{-1}(rho) = P^{-1}(1) diag(1, rho, rho, 1, ...),
a factor that commutes with diag(0_3, -I), and c is rho-free.

At the standard state every ingredient is an integer: c = He_n R_{n+1} with
R_{n+1} = X He_n - (2n+1) He_{n-1}, the F_k, P^{-1}, S, the companion
matrix A of c, and ell_k = sum_i D_i lam_i^k.  The ell_k are the
standard-normal moments with (n-1)! added at k = 2n (the system that
defines D), continued past 2n by the recurrence of c, whose roots the
eigenvalues lam_i are.  So A_0 = F Hankel(ell) F^T and the coupling sums
are h_j Hankel(ell), in Python integers and without eigenvalues.  (I),
(III) and the commutator of (II) are tests for exact zeros, and A_0 is
positive definite iff its leading principal minors, from fraction-free
(Bareiss) elimination, are positive: the verdict takes no tolerance.  The
weights D reported with it are ``symmetrizer_weights``, in double precision.

``source_jacobian``, ``tail_polynomials`` and ``coupling_residuals`` build
the same pieces in the lab frame, in double precision, for tests and
cross-checks; they are only as accurate as raw moments allow, losing
roughly (1 + |U|/sqrt(theta))^{2n}.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .closures import _characteristic_rows, _companion, _refusal, _row_products, _spectral_batch
from .moments import EquilibriumState, _gaussian_u_derivatives, _maxwellian_recurrence
from .orthopoly import _monic_pair_batch, poly_eval


@dataclass
class SourceDecomposition:
    """Relaxation-source Jacobian with its block diagonalizer.

    The relaxation rate is normalized to one; the solver reintroduces tau.
    """

    S: np.ndarray
    P_inv: np.ndarray
    similarity_residual: float


@dataclass
class TailPolynomials:
    """Horner tails F_k of the equilibrium characteristic polynomial and the
    coupling polynomials h_j (j = 0, 1, 2), all as low-to-high coefficients."""

    tails: list
    h: list
    char_coeffs: np.ndarray


@dataclass
class StabilityCertificate:
    n: int
    state: EquilibriumState
    D: np.ndarray
    residuals: dict
    conditions: dict
    passed: bool

    def as_dict(self):
        return {
            "n": self.n,
            "state": self.state.as_dict(),
            "D": np.asarray(self.D, dtype=float).tolist(),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "conditions": dict(self.conditions),
            "passed": bool(self.passed),
        }


def _equilibrium_spectrum(n, U, theta, gamma=1.0):
    """Eigenvalues (merged R/Q ordering) and characteristic coefficients of
    the closed system at an equilibrium state; both rho-free."""
    a, b = _maxwellian_recurrence(1.0, U, theta, n)
    c, _ = _characteristic_rows(a, b, "hyqmom", gamma)
    return _spectral_batch(a, b, gamma)[0][0], c[0]


def _source_blocks(delta, d1, half, rho, U, theta):
    """S, P^{-1} and S P^{-1} - P^{-1} diag(0_3, -I) from the rows Delta_k,
    dU Delta_k and dU^2 Delta_k / 2 at a state; dtype follows the rows."""
    S = -np.eye(len(delta), dtype=delta.dtype)
    S[:3] = 0
    S[3:, 0] = delta[3:] - U * d1[3:] + (U**2 - theta) * half[3:]
    S[3:, 1] = d1[3:] - 2 * U * half[3:]
    S[3:, 2] = half[3:]
    P_inv = np.eye(len(delta), dtype=delta.dtype)
    P_inv[:, 0] = delta
    P_inv[:, 1] = rho * d1
    P_inv[:, 2] = rho * half
    return S, P_inv, S @ P_inv - P_inv * np.diag(S)  # diag(S) = (0_3, -1, ...)


def source_jacobian(state, n):
    """Source Jacobian S and block diagonalizer P^{-1} at an equilibrium.

    S has zero first three rows (collision invariants); the lower rows carry
    the derivative of rho*Delta_k with respect to (M_0, M_1, M_2) next to
    -I.  The similarity S P^{-1} = P^{-1} diag(0_3, -I) is verified and the
    residual returned.  Requires n >= 2 so the relaxing block is nonempty.
    """
    if n < 2:
        raise ValueError(
            "n >= 2 required: for n < 2 there are no relaxing moments and "
            "conditions (I)/(III) hold trivially"
        )
    delta, d1, d2 = _gaussian_u_derivatives(2 * n, state.U, state.theta, 2)
    S, P_inv, R = _source_blocks(delta, d1, 0.5 * d2, state.rho, state.U, state.theta)
    resid = np.linalg.norm(R) / np.linalg.norm(P_inv)
    return SourceDecomposition(S=S, P_inv=P_inv, similarity_residual=float(resid))


def _tail_polynomials(derivs, c):
    """Tails F_k = sum_m c_{k+1+m} X^m of the characteristic coefficients c,
    as the rows of F (N+1, N+1), and the coupling polynomials
    h_j = sum_k dU^j Delta_k F_k as the rows of derivs @ F, from the rows
    ``derivs`` (3, N+1) of dU^j Delta_k, j = 0, 1, 2; dtype follows c."""
    N = len(c) - 2
    F = np.zeros((N + 1, N + 1), dtype=c.dtype)
    for k in range(N + 1):
        F[k, : N + 1 - k] = c[k + 1 :]
    return F, derivs @ F


def tail_polynomials(state, n):
    """Tails F_k of the equilibrium characteristic polynomial (gamma = 1)
    and the coupling polynomials h_j = sum_k F_k dU^j Delta_k.

    F_N = 1 and F_{k-1} = X F_k + c_k; h_j truncates at degree N - j.
    """
    N = 2 * n
    _, c = _equilibrium_spectrum(n, state.U, state.theta)
    F, H = _tail_polynomials(_gaussian_u_derivatives(N, state.U, state.theta, 2), c)
    return TailPolynomials(
        tails=[F[k, : N + 1 - k] for k in range(N + 1)],
        h=[H[j, : N + 1 - j] for j in range(3)],
        char_coeffs=c,
    )


@functools.cache
def symmetrizer_weights(n):
    """Positive diagonal of the symmetrizer, defined at the standard state
    as the solution of the Vandermonde system sum_i w_i lam_i^k = p_k,
    k = 0..2n, on the standard eigenvalues, where p_k are the standard-normal
    moments except p_2n = Delta_2n + (n-1)!.  The same weights certify every
    equilibrium state thanks to the affine scaling of the gamma = 1 closure.

    By 1/P'(lam) and the Christoffel identities the solution is
    n/(2n+1) w' on the Q_n roots and (n+1)/(2n+1) w'' on the R_{n+1} roots,
    the Gauss weights of the two rules; the spectral weights are the
    same rules with the two factors swapped, which is how w is computed.

    The weights depend on n alone, so each n is computed once; the array
    returned is shared between calls and read-only.
    """
    if reason := _refusal(n, 1.0):
        raise ValueError(reason)
    w = _spectral_batch(*_maxwellian_recurrence(1.0, 0.0, 1.0, n), 1.0)[1][0]
    w[1::2] *= n / (n + 1)
    w[0::2] *= (n + 1) / n
    if np.min(w) <= 0:
        raise RuntimeError(
            "symmetrizer weights came out non-positive; internal error"
        )
    w.flags.writeable = False
    return w


def coupling_residuals(state, n):
    """Max scaled residual of the coupling sums sum_i w_i h_j(lam_i) lam_i^beta,
    j = 0, 1, 2 and beta = 0..N-3, assembled in the lab frame at the state:
    each sum is divided by the sum of its terms' magnitudes."""
    lam = _equilibrium_spectrum(n, state.U, state.theta)[0]
    rows = []
    for h in tail_polynomials(state, n).h:
        wh = symmetrizer_weights(n) * poly_eval(h, lam)
        rows += [wh * lam**beta for beta in range(len(lam) - 3)]
    terms = np.array(rows).reshape(-1, len(lam))
    scale = np.sum(np.abs(terms), axis=1) + 1e-300
    return float(np.max(np.abs(np.sum(terms, axis=1)) / scale, initial=0.0))


def _leading_minors(A):
    """Leading principal minors of the integer matrix A (object dtype) by
    fraction-free (Bareiss) elimination, whose divisions are exact; stops
    after the first minor that is not positive."""
    M, prev, minors = A.copy(), 1, []
    for k in range(len(M)):
        minors.append(M[k, k])
        if M[k, k] <= 0:
            break
        M[k + 1 :, k + 1 :] = (
            M[k, k] * M[k + 1 :, k + 1 :] - np.outer(M[k + 1 :, k], M[k, k + 1 :])
        ) // prev
        prev = M[k, k]
    return minors


@functools.cache
def _standard_certificate(n, gamma=1):
    """The exact A_0 at the standard state (1, 0, 1), with the residuals and
    conditions read from it, in Python integers (module docstring); shared
    between calls and read-only.  The residuals are the largest magnitudes
    of S P^{-1} - P^{-1} diag(0_3, -I), A_0 A - A^T A_0, the off-diagonal
    block of K and the coupling sums, and the smallest LDL^T pivot of A_0
    scaled to unit diagonal.  An integer ``gamma`` other than 1 takes c from
    that closure, as a negative control.  Requires n >= 2."""
    if n < 2:
        raise ValueError("n >= 2 required: for n < 2 there are no relaxing moments")
    N = 2 * n
    a, b = np.zeros((1, n), dtype=object), np.arange(n + 1, dtype=object)[None, :]
    q, qm = (p[0] for p in _monic_pair_batch(a, b, n))  # He_n, He_{n-1}
    r = np.concatenate(([0], q))
    r[:n] -= (2 * n + gamma) * qm  # R_{n+1}; a_n = 0 and b_n = n
    c = _row_products(q[None, :], r[None, :])[0]

    ell = [1, 0]  # Delta_0..Delta_N, from Delta_{k+1} = k Delta_{k-1}
    for k in range(1, N):
        ell.append(k * ell[-2])
    derivs = np.array([[math.perm(k, j) * ell[k - j] if k >= j else 0 for k in range(N + 1)]
                       for j in range(3)], dtype=object)  # dU^j Delta_k
    _, P, R = _source_blocks(derivs[0], derivs[1], derivs[2] // 2, 1, 0, 1)

    ell[N] += math.factorial(n - 1)  # now the moments of D, which define it
    for k in range(N + 1, 2 * N + 1):
        ell.append(-sum(ci * x for ci, x in zip(c, ell[k - N - 1 :])))
    hankel = np.array([ell[i : i + N + 1] for i in range(N + 1)], dtype=object)
    F, H = _tail_polynomials(derivs, c)
    A0, A = F @ hankel @ F.T, _companion(c)
    K = P.T @ A0 @ P  # symmetric, as A_0 is
    minors = _leading_minors(A0)
    residuals = {
        "conditionI_residual": np.max(np.abs(R)),
        "commutator_residual": np.max(np.abs(A0 @ A - A.T @ A0)),
        "K_offblock_norm": np.max(np.abs(K[:3, 3:])),
        "coupling_residual": np.max(np.abs((H @ hankel)[:, : N - 2])),
        "spd_min_pivot": min(
            m / (p * a if m > 0 else p)
            for m, p, a in zip(minors, [1] + minors, np.diag(A0))
        ),
    }
    conditions = {
        "I": residuals["conditionI_residual"] == 0,
        "II": residuals["commutator_residual"] == 0 and all(m > 0 for m in minors),
        "III": residuals["K_offblock_norm"] == 0 and residuals["coupling_residual"] == 0,
    }
    A0.flags.writeable = False
    return A0, types.MappingProxyType(residuals), types.MappingProxyType(conditions)


def certify(state, n):
    """Stability certificate for the gamma = 1 closure at an equilibrium.

    The residuals and conditions are copies of the standard state's, built
    once per n in exact arithmetic; ``state`` is the affine map (shift U,
    scale sqrt(theta), density rho) that carries the standard certificate
    to it (module docstring).  D is symmetrizer_weights(n).  n >= 2 required.
    """
    _, residuals, conditions = _standard_certificate(n)
    return StabilityCertificate(n, state, symmetrizer_weights(n), dict(residuals),
                                dict(conditions), all(conditions.values()))
