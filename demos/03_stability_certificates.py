"""Structural-stability certification of the relaxation system.

Hyperbolicity alone does not guarantee that the closed moment system
inherits the dissipative character of the underlying kinetic relaxation.
The certificate checks the full coupling between the flux symmetrizer and
the source Jacobian at equilibrium states:

  (I)   the source Jacobian block-diagonalizes to diag(0_3, -I);
  (II)  A_0 A = A^T A_0 for a symmetric positive definite A_0;
  (III) the congruence-transformed symmetrizer K = P^{-T} A_0 P^{-1}
        is block diagonal.

The positive diagonal inside A_0 is fixed once, at the standard state, by
a small Vandermonde system, and read off the two Gauss rules behind the
spectrum; scaling covariance of the gamma = 1 closure makes the same
weights work at every (rho, U, theta).
"""

import numpy as np

import hyqmom as hq

# --- the fixed symmetrizer weights -------------------------------------------
for n in (1, 2, 3):
    w = hq.symmetrizer_weights(n)
    lam = hq.standard_eigenvalues(n)
    print(f"n={n}: standard eigenvalues {np.round(lam, 6)}")
    print(f"      symmetrizer weights  {np.round(w, 6)} (sum = {w.sum():.3f})")

# --- a certificate in full detail --------------------------------------------
state = hq.EquilibriumState(rho=2.0, U=-1.5, theta=3.0)
cert = hq.certify(state, n=2)
print(f"\nCertificate at rho={state.rho}, U={state.U}, theta={state.theta}:")
print(f"  passed: {cert.passed}, conditions: {cert.conditions}")
for key, val in cert.residuals.items():
    print(f"  {key:28s} {val:.3e}")

# --- random-state sweep -------------------------------------------------------
rng = np.random.default_rng(3)
worst = 0.0
for _ in range(50):
    st = hq.EquilibriumState(
        rho=float(rng.uniform(0.1, 10)),
        U=float(rng.uniform(-5, 5)),
        theta=float(rng.uniform(0.1, 10)),
    )
    c = hq.certify(st, 3)
    worst = max(worst, c.residuals["K_offblock_norm"])
    assert c.passed
print(f"\n50 random states at n=3: all certificates pass "
      f"(worst off-block residual {worst:.2e})")
