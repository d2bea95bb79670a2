"""Structural-stability certification of the relaxation system.

Hyperbolicity alone does not guarantee that the closed moment system
inherits the dissipative character of the underlying kinetic relaxation.
The certificate checks the full coupling between the flux symmetrizer and
the source Jacobian at equilibrium states:

  (I)   the source Jacobian block-diagonalizes to diag(0_3, -I);
  (II)  A_0 A = A^T A_0 for a symmetric positive definite A_0;
  (III) the congruence-transformed symmetrizer K = P^{-T} A_0 P^{-1}
        is block diagonal.

As in the paper, everything is certified once per order at the standard
state (rho, U, theta) = (1, 0, 1).  The affine invariance of the gamma = 1
closure carries the certificate to every (U, theta), and the density only
rescales columns of P^{-1} by a factor that commutes with diag(0_3, -I).
A certificate at a state is the standard one together with that affine
map.  The positive diagonal inside A_0 is read off the two Gauss rules
behind the standard spectrum.

At the standard state every ingredient is an integer, so the certificate
is computed in Python integers: the residuals of (I)-(III) are exact
zeros, and A_0 is positive definite because its leading principal minors
are positive.  The smallest pivot of A_0 scaled to unit diagonal shows how
close it comes to singular.

The same pieces assembled in the lab frame from raw moments are kept as a
cross-check; they lose accuracy like (1 + |U|/sqrt(theta))^(2n), which the
last section shows.
"""

import numpy as np

import hyqmom as hq

# --- the fixed symmetrizer weights -------------------------------------------
for n in (1, 2, 3):
    w = hq.symmetrizer_weights(n)
    standard = hq.gaussian_moments(2 * n, 0.0, 1.0)
    lam = hq.spectral_decomposition(standard, hq.ClosureSpec("hyqmom", gamma=1.0)).eigenvalues
    print(f"n={n}: standard eigenvalues {np.round(lam, 6)}")
    print(f"      symmetrizer weights  {np.round(w, 6)} (sum = {w.sum():.3f})")

# --- a certificate in full detail --------------------------------------------
state = hq.EquilibriumState(rho=2.0, U=-1.5, theta=3.0)
cert = hq.certify(state, n=2)
print(f"\nCertificate at rho={state.rho}, U={state.U}, theta={state.theta}:")
print(f"  passed: {cert.passed}, conditions: {cert.conditions}")
for key, val in cert.residuals.items():
    print(f"  {key:28s} {val!r}")

# --- random-state sweep: one standard certificate per order -------------------
rng = np.random.default_rng(3)
for n in range(2, 11):
    certs = [
        hq.certify(
            hq.EquilibriumState(
                rho=float(rng.uniform(0.1, 10)),
                U=float(rng.uniform(-5, 5)),
                theta=float(rng.uniform(0.1, 10)),
            ),
            n,
        )
        for _ in range(50)
    ]
    assert all(c.passed for c in certs)
    print(f"n={n}: 50 random states pass, smallest unit-diagonal pivot of A_0 "
          f"{certs[0].residuals['spd_min_pivot']:.1e}")

# --- the lab-frame cross-check and its roundoff --------------------------------
print("\nlab-frame coupling residual at theta = 1 (roundoff; the exact value is 0):")
for n in (4, 6):
    row = [hq.coupling_residuals(hq.EquilibriumState(1.0, U, 1.0), n) for U in (0.0, 2.0, 6.0)]
    print(f"  n={n}: U = 0, 2, 6 -> " + ", ".join(f"{r:.1e}" for r in row))
