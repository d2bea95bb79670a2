"""Numerical certification of the structural stability condition.

For the affine-invariant (gamma = 1) closure at an equilibrium state the
certificate checks, at the stated tolerances:

  (I)   the source Jacobian is similar to diag(0_3, -I_{N-2}) through the
        explicit block matrix P^{-1} whose first three columns are
        (Delta_j, rho dU Delta_j, rho/2 dU^2 Delta_j);
  (II)  A_0 A = A^T A_0 for the symmetrizer A_0 = L^T D L, where L collects
        the Horner tails of the characteristic polynomial evaluated at the
        eigenvalues and D carries fixed positive weights;
  (III) K = P^{-T} A_0 P^{-1} is block diagonal (the off-diagonal blocks
        encode the coupling sums over the h_j polynomials).

The residuals are assembled once per n, at the standard state (1, 0, 1),
and carried to every equilibrium (rho, U, theta) as the paper carries the
theorem.  The gamma = 1 closure is affine invariant: xi -> U + sqrt(theta) xi
maps the moments by a triangular T, the Jacobian to T (sqrt(theta) A + U I)
T^{-1} and the symmetrizer to the congruence T^{-T} A_0 T^{-1}, so each
condition holds at the state iff it holds at the standard state.  The
density drops out exactly: P^{-1}(rho) = P^{-1}(1) diag(1, rho, rho, 1, ...),
a factor that commutes with diag(0_3, -I), and the characteristic
polynomial is rho-free.  The weights of D are the Gauss-rule closed form of
``symmetrizer_weights``.

Positive definiteness of A_0 is certified structurally: A_0 = L^T D L is a
congruence with D positive (explicit weights) and L invertible (distinct
eigenvalues), which is exact-arithmetic sound.  The smallest eigenvalue of
the floating-point A_0 is also reported, but at higher orders A_0 is so
ill-conditioned that this raw number underflows the roundoff floor even
though the matrix is genuinely definite; the certificate therefore gates on
the structural factors plus a non-refutation bound on the Jacobi-equilibrated
spectrum rather than on a raw eigenvalue threshold.

``source_jacobian``, ``tail_polynomials`` and ``coupling_residuals`` build
the same pieces in the lab frame for tests and cross-checks; they are only
as accurate as raw moments allow, losing roughly (1 + |U|/sqrt(theta))^{2n}.
"""

from __future__ import annotations

import functools
import json
import types
from dataclasses import dataclass

import numpy as np

from .closures import _characteristic_rows, _companion, _spectral_from_recurrence
from .moments import EquilibriumState, _gaussian_u_derivatives, _maxwellian_recurrence
from .orthopoly import poly_eval

DEFAULT_TOLERANCES = {
    "condition_I": 1e-9,
    "symmetrizer_asymmetry": 1e-8,
    "commutator": 1e-8,
    "K_offblock": 1e-8,
    "coupling": 1e-8,
    "eigenvalue_gap": 1e-9,
}


@dataclass
class SourceDecomposition:
    """Relaxation-source Jacobian with its block diagonalizer.

    The relaxation rate is normalized to one; the solver reintroduces tau.
    ``u_derivatives`` holds the rows dU^j Delta_k, j = 0, 1, 2, at the state.
    """

    S: np.ndarray
    P_inv: np.ndarray
    similarity_residual: float
    u_derivatives: np.ndarray


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

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True)

    def as_dict(self):
        return {
            "n": self.n,
            "state": self.state.as_dict(),
            "D": [float(w) for w in self.D],
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "conditions": dict(self.conditions),
            "passed": bool(self.passed),
        }


def _equilibrium_spectrum(n, U, theta, gamma=1.0):
    """Eigenvalues (merged R/Q ordering) and characteristic coefficients of
    the closed system at an equilibrium state; both rho-free."""
    a, b = _maxwellian_recurrence(1.0, U, theta, n)
    c, _ = _characteristic_rows(a, b, "hyqmom", gamma)
    return _spectral_from_recurrence(a, b, gamma)[0][0], c[0]


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
    N = 2 * n
    rho, U, theta = state.rho, state.U, state.theta
    derivs = _gaussian_u_derivatives(N, U, theta, 2)
    delta, d1, d2 = derivs
    S = np.zeros((N + 1, N + 1))
    S[3:, 0] = delta[3:] - U * d1[3:] + 0.5 * (U**2 - theta) * d2[3:]
    S[3:, 1] = d1[3:] - U * d2[3:]
    S[3:, 2] = 0.5 * d2[3:]
    S[3:, 3:] = -np.eye(N - 2)

    P_inv = np.eye(N + 1)
    P_inv[:, 0] = delta
    P_inv[:, 1] = rho * d1
    P_inv[:, 2] = 0.5 * rho * d2
    block = np.zeros(N + 1)
    block[3:] = -1.0
    resid = np.linalg.norm(S @ P_inv - P_inv * block[None, :]) / np.linalg.norm(P_inv)
    return SourceDecomposition(
        S=S, P_inv=P_inv, similarity_residual=float(resid), u_derivatives=derivs
    )


def _tail_polynomials(derivs, c):
    """Tails F_k = sum_m c_{k+1+m} X^m of the characteristic coefficients c,
    as rows of one matrix, and the coupling polynomials
    h_j = sum_k dU^j Delta_k F_k from the rows ``derivs`` (3, N+1) of
    dU^j Delta_k at the state, j = 0, 1, 2."""
    N = len(c) - 2
    F = np.zeros((N + 1, N + 1))
    for k in range(N + 1):
        F[k, : N + 1 - k] = c[k + 1 :]
    H = derivs @ F
    return TailPolynomials(
        tails=[F[k, : N + 1 - k] for k in range(N + 1)],
        h=[H[j, : N + 1 - j] for j in range(3)],
        char_coeffs=c,
    )


def tail_polynomials(state, n):
    """Tails F_k of the equilibrium characteristic polynomial (gamma = 1)
    and the coupling polynomials h_j = sum_k F_k dU^j Delta_k.

    F_N = 1 and F_{k-1} = X F_k + c_k; h_j truncates at degree N - j.
    """
    _, c = _equilibrium_spectrum(n, state.U, state.theta)
    return _tail_polynomials(_gaussian_u_derivatives(2 * n, state.U, state.theta, 2), c)


def standard_eigenvalues(n, gamma=1.0):
    """Eigenvalues of the closed system at the standard state (U=0, theta=1)."""
    return _equilibrium_spectrum(n, 0.0, 1.0, gamma)[0]


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
    if n < 1:
        raise ValueError("n >= 1 required")
    w = _spectral_from_recurrence(*_maxwellian_recurrence(1.0, 0.0, 1.0, n), 1.0)[1][0]
    w[1::2] *= n / (n + 1)
    w[0::2] *= (n + 1) / n
    if np.min(w) <= 0:
        raise RuntimeError(
            "symmetrizer weights came out non-positive; internal error"
        )
    w.flags.writeable = False
    return w


def _coupling_residual(lam, hpolys, w):
    """Max over the rows (j, beta), j = 0, 1, 2 and beta = 0..N-3, of the
    sum of the terms w_i h_j(lam_i) lam_i^beta scaled by their magnitude."""
    rows = []
    for h in hpolys:
        wh = w * poly_eval(h, lam)
        rows += [wh * lam**beta for beta in range(len(lam) - 3)]
    terms = np.array(rows).reshape(-1, len(lam))
    scale = np.sum(np.abs(terms), axis=1) + 1e-300
    return float(np.max(np.abs(np.sum(terms, axis=1)) / scale, initial=0.0))


def coupling_residuals(state, n):
    """Max scaled residual of the coupling sums sum_i w_i h_j(lam_i) lam_i^beta,
    j = 0, 1, 2 and beta = 0..N-3, assembled in the lab frame at the state."""
    lam, c = _equilibrium_spectrum(n, state.U, state.theta)
    derivs = _gaussian_u_derivatives(2 * n, state.U, state.theta, 2)
    return _coupling_residual(lam, _tail_polynomials(derivs, c).h, symmetrizer_weights(n))


@functools.cache
def _standard_residuals(n):
    """Every residual of the certificate, assembled once per n at the
    standard state (1, 0, 1); the mapping returned is shared between calls
    and read-only.  Requires n >= 2."""
    src = source_jacobian(EquilibriumState(1.0, 0.0, 1.0), n)  # validates n >= 2
    lam, c = _equilibrium_spectrum(n, 0.0, 1.0)
    tp = _tail_polynomials(src.u_derivatives, c)
    L = np.array([poly_eval(F, lam) for F in tp.tails]).T
    omega = symmetrizer_weights(n)
    A0 = L.T @ (omega[:, None] * L)
    asym = np.linalg.norm(A0 - A0.T) / np.linalg.norm(A0)
    A0 = 0.5 * (A0 + A0.T)

    A = _companion(c)
    commutator = np.linalg.norm(A0 @ A - A.T @ A0) / np.linalg.norm(A0)

    K = src.P_inv.T @ A0 @ src.P_inv
    off = max(np.linalg.norm(K[:3, 3:]), np.linalg.norm(K[3:, :3])) / np.linalg.norm(K)

    evals = np.linalg.eigvalsh(A0)
    dscale = 1.0 / np.sqrt(np.diag(A0))
    evals_eq = np.linalg.eigvalsh(A0 * dscale[:, None] * dscale[None, :])
    return types.MappingProxyType({
        "conditionI_residual": src.similarity_residual,
        "symmetrizer_asymmetry": float(asym),
        "commutator_residual": float(commutator),
        "K_offblock_norm": float(off),
        "coupling_residual": _coupling_residual(lam, tp.h, omega),
        "spd_min_eigenvalue": float(evals[0]),
        "spd_min_eigenvalue_scaled": float(evals_eq[0] / np.abs(evals_eq).max()),
        "eigenvalue_gap": float(np.min(np.diff(lam)) / np.max(np.abs(lam))),
        "min_weight": float(np.min(omega)),
    })


def certify(state, n, tolerances=None):
    """Stability certificate for the gamma = 1 closure at an equilibrium.

    The residuals are a copy of the standard state's, assembled once per n;
    ``state`` is the affine map (shift U, scale sqrt(theta), density rho)
    that carries the standard certificate to it (module docstring).
    Conditions (I)-(III) are read from them at the module tolerances updated
    by ``tolerances``; D is symmetrizer_weights(n).  n >= 2 required.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    r = dict(_standard_residuals(n))
    conditions = {
        "I": bool(r["conditionI_residual"] < tol["condition_I"]),
        "II": bool(
            r["commutator_residual"] < tol["commutator"]
            and r["symmetrizer_asymmetry"] < tol["symmetrizer_asymmetry"]
        ),
        "III": bool(
            r["K_offblock_norm"] < tol["K_offblock"]
            and r["coupling_residual"] < tol["coupling"]
            # structural SPD: positive D, invertible L, plus the scaled
            # spectrum must not refute definiteness beyond roundoff
            and r["min_weight"] > 0
            and r["eigenvalue_gap"] > tol["eigenvalue_gap"]
            and r["spd_min_eigenvalue_scaled"] > -64 * np.finfo(float).eps
        ),
    }
    return StabilityCertificate(
        n=n,
        state=state,
        D=symmetrizer_weights(n),
        residuals=r,
        conditions=conditions,
        passed=all(conditions.values()),
    )
