"""Moment closures and the spectra of the closed systems.

Truncating the moment hierarchy at order N leaves M_{N+1} unclosed.  The
closures here differ sharply in the character of the resulting first-order
system:

* the delta-reconstruction (qmom) closure puts the system exactly on the
  degenerate edge: every characteristic root is a double root;
* the hyqmom closure keeps 2n+1 distinct real eigenvalues on the whole
  realizable cone, with positive reconstruction weights for gamma > -n;
* gamma = 1 is the unique member that commutes with shifting and rescaling
  the underlying velocity variable.
"""

import numpy as np

import hyqmom as hq

m = np.array([1.0, 0.0, 1.0, 0.0, 3.0])

# --- closures of the same data ----------------------------------------------
hyqmom = hq.ClosureSpec("hyqmom", gamma=1.0)
print(f"Input moments: {m}")
print(f"  hyqmom closure (gamma=1): M_5 = {hq.close(m, hyqmom):+.6f}")
print(f"  hyqmom closure (gamma=5): M_5 = {hq.close(m, hq.ClosureSpec('hyqmom', gamma=5.0)):+.6f}")
print(f"  qmom closure of (1,0,1,0): M_4 = {hq.close([1, 0, 1, 0], hq.ClosureSpec('qmom')):+.6f}")
print(f"  squared-difference closure:  M_4 = {hq.close([1, 0, 1, 0], hq.ClosureSpec('new')):+.6f}")

# --- characteristic polynomial factorizes -----------------------------------
cp = hq.characteristic_polynomial(m, hyqmom)
print(f"\nCharacteristic coefficients (low to high): {cp.c}")
print(f"  factor Q_n  : {cp.factors['Qn']}")
print(f"  factor R_n+1: {cp.factors['Rn1']}")

sd = hq.spectral_decomposition(m, hyqmom)
print(f"eigenvalues: {sd.eigenvalues}")
print(f"weights    : {sd.weights}")
print(f"interlacing of the factor roots: "
      f"{hq.check_interlacing(sd.eigenvalues[1::2], sd.eigenvalues[0::2])}")

# --- the qmom system is degenerate ------------------------------------------
A = hq.jacobian_matrix([1, 0, 1, 0], hq.ClosureSpec("qmom"))
ev = np.sort(np.linalg.eigvals(A).real)
print(f"\nqmom system eigenvalues of (1,0,1,0): {np.round(ev, 9)}")
print("  (two double roots: the system is not strictly hyperbolic)")

# --- affine invariance singles out gamma = 1 ---------------------------------
rng = np.random.default_rng(7)
a = rng.uniform(-1, 1, 2)
b = rng.uniform(0.5, 2, 3)
m_rand = hq.recurrence_to_moments((a, b), 5)
u, s = 1.3, 0.8
print(f"\nCommutation defect with shift u={u}, scale sigma={s}:")
for gamma in (0.0, 0.5, 1.0, 2.0):
    res = hq.verify_affine_invariance(m_rand, hq.ClosureSpec("hyqmom", gamma=gamma), u, s)
    print(f"  gamma = {gamma:3.1f}: residual = {res:.3e}")

# --- hyperbolicity across the admissible gamma range ------------------------
print("\nEigenvalue separation across gamma (same random moments):")
for gamma in (-3.9, -1.9, 0.0, 1.0, 5.0):
    sd = hq.spectral_decomposition(m_rand, hq.ClosureSpec("hyqmom", gamma=gamma))
    gaps = np.diff(sd.eigenvalues)
    print(
        f"  gamma = {gamma:+4.1f}: min gap {gaps.min():.3e}, "
        f"weights positive: {sd.weights_positive}"
    )
