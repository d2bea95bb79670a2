"""Shared random-corpus generators for the test suite.

Strictly realizable moment vectors are generated through the recurrence
bijection: any coefficient draw with positive b gives a realizable vector
by construction, so the generators never need rejection sampling.
"""

import numpy as np

from hyqmom.moments import _moments_from_recurrence_batch


def random_coefficients(rng, n, count=1, a_range=(-5.0, 5.0), b_range=(0.1, 10.0)):
    a = rng.uniform(a_range[0], a_range[1], (count, n))
    b = rng.uniform(b_range[0], b_range[1], (count, n + 1))
    return a, b


def random_odd_moments(rng, n, count=1, a_range=(-5.0, 5.0), b_range=(0.1, 10.0)):
    """Batch of strictly realizable vectors (M_0..M_2n)."""
    a, b = random_coefficients(rng, n, count, a_range, b_range)
    return _moments_from_recurrence_batch(a, b, 2 * n + 1)


def random_even_moments(rng, n, count=1, a_range=(-5.0, 5.0), b_range=(0.1, 10.0)):
    """Batch of strictly realizable vectors (M_0..M_{2n-1})."""
    a = rng.uniform(a_range[0], a_range[1], (count, n))
    b = rng.uniform(b_range[0], b_range[1], (count, n))
    return _moments_from_recurrence_batch(a, b, 2 * n)


def random_state(rng, rho_range=(0.1, 10.0), u_range=(-5.0, 5.0), theta_range=(0.1, 10.0)):
    from hyqmom import EquilibriumState

    return EquilibriumState(
        rho=float(rng.uniform(*rho_range)),
        U=float(rng.uniform(*u_range)),
        theta=float(rng.uniform(*theta_range)),
    )


def smooth_random_config(rng, n, tau, cells=400, steps=60, variant="eigen"):
    """A solver config whose every cell is its own segment: density,
    velocity and temperature follow smooth random profiles (three Fourier
    modes each, rescaled to rho in [0.3, 1.2], U in [-0.5, 0.5] and theta
    in [0.5, 1.2]), and each cell's recurrence carries a small random
    non-Maxwellian perturbation (|da_k| <= 0.05 sqrt(theta),
    |db_k| <= 0.1 theta).  dt_max = 0.1 dx binds every step, so the run
    takes exactly ``steps`` steps."""
    x = (np.arange(cells) + 0.5) / cells

    def profile(lo, hi):
        k = np.arange(1, 4)[:, None]
        f = np.sum(rng.normal(size=(3, 1)) / k * np.sin(2 * np.pi * k * x
                                                      + rng.uniform(0, 2 * np.pi, (3, 1))), axis=0)
        return lo + (hi - lo) * (f - f.min()) / (f.max() - f.min())

    rho, U, theta = profile(0.3, 1.2), profile(-0.5, 0.5), profile(0.5, 1.2)
    da = rng.uniform(-0.05, 0.05, (cells, n)) * np.sqrt(theta)[:, None]
    db = rng.uniform(-0.1, 0.1, (cells, n)) * theta[:, None]
    initial = [
        {"rho": float(rho[j]), "U": float(U[j]), "theta": float(theta[j]),
         "da": da[j].tolist(), "db": [0.0, *db[j].tolist()], "x_until": (j + 1) / cells}
        for j in range(cells)
    ]
    del initial[-1]["x_until"]
    dt = 0.1 / cells
    return {
        "n": n, "gamma": 1.0, "flux_variant": variant, "cfl": 0.9, "tau": tau,
        "domain": [0.0, 1.0], "cells": cells, "t_final": steps * dt, "snapshot_every": None,
        "dt_max": dt, "boundary": "zero-gradient", "initial": initial,
    }
