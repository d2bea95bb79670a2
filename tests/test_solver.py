import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hyqmom as hq
from hyqmom.moments import _realizable_pivots_batch
from hyqmom.solver import (
    _blocks,
    _flux_differences,
    _interface_fluxes,
    _reconstruct_batch,
    build_initial_grid,
)
from corpus import random_odd_moments, smooth_random_config
from reference import clipped_power_sums, kinetic_flux

SPEC1 = hq.ClosureSpec("hyqmom", gamma=1.0)


def hankel_positive_definite(m):
    """Realizability oracle independent of the Wheeler pivots the solver
    gates on: LAPACK's Cholesky factorization of the Hankel matrix."""
    try:
        np.linalg.cholesky(hq.hankel_matrix(m))
    except np.linalg.LinAlgError:
        return False
    return True


def accepted_lanes(monkeypatch):
    """A list that receives, per call of the warm path's Newton steps, the
    number of lanes they accept."""
    accepted = []
    newton = hq.orthopoly._newton_from_standard

    def spy(*args):
        y, ok = newton(*args)
        accepted.append(int(ok.sum()))  # over the lanes of every factor
        return y, ok

    monkeypatch.setattr(hq.orthopoly, "_newton_from_standard", spy)
    return accepted


def newton_lanes(monkeypatch):
    """A list that receives, per call of the warm path's Newton steps, the
    number of lanes that take them: those Kato-Temple does not certify."""
    lanes = []
    steps = hq.orthopoly._newton_steps

    def spy(y, *args):
        lanes.append(y.shape[1])
        return steps(y, *args)

    monkeypatch.setattr(hq.orthopoly, "_newton_steps", spy)
    return lanes


def lapack_lanes(monkeypatch):
    """A list that receives the number of matrices of each eigvalsh call."""
    lanes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(A):
        lanes.append(A.shape[0])
        return eigvalsh(A)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return lanes


def uniform_grid(m, cells=8, tau=1.0, boundary="periodic", width=1.0):
    return hq.GridState(
        cells=np.tile(np.asarray(m, float), (cells, 1)),
        dx=np.full(cells, width / cells),
        tau=tau,
        boundary=boundary,
    )


class TestReconstructNodes:
    def test_gauss_nodes_n1(self):
        q = hq.reconstruct_nodes([1, 0, 1], SPEC1, "gauss")
        assert np.allclose(q.nodes, [-1, 1])
        assert np.allclose(q.weights, [0.5, 0.5])
        # reproduces every known moment of the augmented vector
        for k, mk in enumerate([1, 0, 1, 0]):
            assert q.power_sum(k) == pytest.approx(mk, abs=1e-14)

    def test_eigen_nodes_n1(self):
        q = hq.reconstruct_nodes([1, 0, 1], SPEC1, "eigen")
        assert np.allclose(q.nodes, [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)
        assert np.allclose(q.weights, [1 / 6, 2 / 3, 1 / 6])

    def test_both_variants_reproduce_input_moments(self, rng):
        for n in (1, 2, 3):
            m = random_odd_moments(rng, n)[0]
            for variant in ("gauss", "eigen"):
                q = hq.reconstruct_nodes(m, SPEC1, variant)
                assert np.min(q.weights) > 0
                for k in range(2 * n + 1):
                    scale = np.sum(q.weights * np.abs(q.nodes) ** k) + abs(m[k])
                    assert abs(q.power_sum(k) - m[k]) < 1e-9 * scale

    def test_gauss_node_count(self, rng):
        for n in (1, 2, 3):
            m = random_odd_moments(rng, n)[0]
            assert len(hq.reconstruct_nodes(m, SPEC1, "gauss").nodes) == n + 1
            assert len(hq.reconstruct_nodes(m, SPEC1, "eigen").nodes) == 2 * n + 1

    def test_affine_covariance(self):
        rho, U, th = 2.0, 1.1, 2.6
        std = hq.reconstruct_nodes([1, 0, 1], SPEC1, "gauss")
        shifted = hq.reconstruct_nodes(
            hq.maxwellian_moments(rho, U, th, 2), SPEC1, "gauss"
        )
        assert np.allclose(shifted.nodes, U + np.sqrt(th) * std.nodes)

    def test_eigen_gamma_restriction(self):
        with pytest.raises(ValueError, match="gamma"):
            hq.reconstruct_nodes([1, 0, 1], hq.ClosureSpec("hyqmom", gamma=-1.5), "eigen")

    def test_batch_matches_scalar(self, rng):
        # independent references: the Gauss rule of the vector augmented by
        # the materialized closure, and the single-vector spectral path
        for variant in ("gauss", "eigen"):
            cells = random_odd_moments(rng, 2, count=10)
            ok, a, b, _ = _realizable_pivots_batch(cells)
            assert np.all(ok)
            nodes, weights = _reconstruct_batch(a, b, 1.0, variant)
            for j in range(10):
                if variant == "gauss":
                    q = hq.gauss_quadrature(np.append(cells[j], hq.close(cells[j], SPEC1)))
                else:
                    sd = hq.spectral_decomposition(cells[j], SPEC1)
                    q = hq.Quadrature(nodes=sd.eigenvalues, weights=sd.weights)
                assert np.allclose(nodes[j], q.nodes, rtol=1e-9, atol=1e-12)
                assert np.allclose(weights[j], q.weights, rtol=1e-8, atol=1e-12)

    def test_loss_reported_with_cell_index(self):
        cells = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
        grid = hq.GridState(cells=cells, dx=np.full(2, 0.5), tau=1.0)
        with pytest.raises(hq.RealizabilityLossError) as exc:
            hq.step(grid, SPEC1, "gauss")
        assert exc.value.cell == 1
        assert exc.value.time == 0.0


class TestKineticFlux:
    @pytest.mark.parametrize("boundary", hq.solver.BOUNDARIES)
    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_interface_fluxes_match_scalar(self, rng, variant, boundary, monkeypatch):
        # the first pass's flux difference of every cell, the two boundary
        # cells and the cells on either side of the two block edges
        # included, against the difference of the single-interface reference
        monkeypatch.setattr(hq.solver, "BLOCK_VALUES", 2 * 5)
        cells = random_odd_moments(rng, 2, count=6)
        grid = hq.GridState(cells=cells, dx=np.full(6, 1 / 6), tau=1.0, boundary=boundary)
        _, a, b = grid._gate()
        blocks = _blocks(6, 5)
        assert len(blocks) == 3
        smax, diff = _flux_differences(grid, a, b, 1.0, variant, blocks)
        assert diff.shape == (5, 6)
        nodes, weights = _reconstruct_batch(a, b, 1.0, variant)
        assert np.array_equal(smax, np.max(np.abs(nodes), axis=1))
        # the same rules C- and F-ordered give the same halves
        halves = []
        for order in ("C", "F"):
            out = np.empty((2, 5, 6))
            _interface_fluxes(np.array(nodes, order=order), np.array(weights, order=order), *out)
            halves.append(out)
        assert np.array_equal(halves[0], halves[1])
        rules = [hq.Quadrature(nodes=x, weights=w) for x, w in zip(nodes, weights)]
        if boundary == "periodic":
            pairs = [(rules[i - 1], rules[i % 6]) for i in range(7)]
        else:
            pairs = [(rules[max(i - 1, 0)], rules[min(i, 5)]) for i in range(7)]
        flux = np.array([[kinetic_flux(*pair, k) for k in range(5)] for pair in pairs])
        for j in range(6):
            for k in range(5):
                # each reference flux is within 1e-13 of the computed one,
                # relative to max(1, |flux|), so their difference is too
                bound = 1e-13 * (max(1.0, abs(flux[j, k])) + max(1.0, abs(flux[j + 1, k])))
                assert abs(diff[k, j] - (flux[j, k] - flux[j + 1, k])) <= bound

    @pytest.mark.parametrize("boundary", hq.solver.BOUNDARIES)
    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_one_cell_blocks_at_the_global_ends(self, rng, J, variant, boundary, monkeypatch):
        # one-cell blocks put a block edge next to both global ends: the end
        # blocks take their ghost cells by the boundary rule, the others
        # slice them from the gate's rows, and a single cell is its own
        # ghost on both sides
        cells = random_odd_moments(rng, 2, count=J, a_range=(-1, 1), b_range=(0.5, 2))
        grid = hq.GridState(cells=cells, dx=np.full(J, 1 / J), tau=0.3, boundary=boundary)
        _, a, b = grid._gate()
        one_block = _flux_differences(grid, a, b, 1.0, variant, _blocks(J, 5))
        stepped = hq.step(grid, SPEC1, variant)
        monkeypatch.setattr(hq.solver, "BLOCK_VALUES", 5)
        assert len(_blocks(J, 5)) == J
        blocked = _flux_differences(grid, a, b, 1.0, variant, _blocks(J, 5))
        for mine, theirs in zip(blocked, one_block):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(hq.step(grid, SPEC1, variant).cells, stepped.cells)
        if J == 1:
            # both ends are the same face: nothing flows in or out
            assert np.array_equal(blocked[1], np.zeros((5, 1)))

    def test_peak_memory(self, rng):
        # one running power and one buffer of weighted terms, each the size
        # of the nodes, and two sign masks an eighth of it each, are all a
        # block's split sums allocate: 2.25 * nodes.nbytes + 1944 B measured
        cells = random_odd_moments(rng, 2, count=10_000)
        _, a, b, _ = _realizable_pivots_batch(cells)
        nodes, weights = _reconstruct_batch(a, b, 1.0, "gauss")
        right, left = np.empty((2, 5, 10_000))
        tracemalloc.start()
        try:
            _interface_fluxes(nodes, weights, right, left)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * nodes.nbytes + 4096

    @staticmethod
    def split_sums(nodes, weights, orders):
        """The kernel's halves, (2, orders, B), after checking that the rules
        C- and F-ordered give the clipped reference's bits and zero signs."""
        for order in ("C", "F"):
            x, w = np.array(nodes, order=order), np.array(weights, order=order)
            mine, clipped = np.empty((2, 2, orders, len(x)))
            _interface_fluxes(x, w, *mine)
            clipped_power_sums(x, w, *clipped)
            assert np.array_equal(mine, clipped)
            assert np.array_equal(np.signbit(mine), np.signbit(clipped))
        return mine

    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_halves_are_the_clipped_sums(self, rng, n, variant):
        # up to 21 nodes and 21 orders, nodes of both signs in most cells
        cells = random_odd_moments(rng, n, count=64, a_range=(-1, 1), b_range=(0.5, 2))
        ok, a, b, _ = _realizable_pivots_batch(cells)
        assert np.all(ok)
        nodes, weights = _reconstruct_batch(a, b, 1.0, variant)
        assert nodes.shape == (64, n + 1 if variant == "gauss" else 2 * n + 1)
        mixed = np.any(nodes > 0, axis=1) & np.any(nodes <= 0, axis=1)
        assert mixed.sum() >= 32
        self.split_sums(nodes, weights, 2 * n + 1)

    def test_zero_nodes_and_one_signed_cells(self):
        # exact zeros of either sign are nonpositive: their terms go to the
        # left half and vanish there; a half with no node of its sign is
        # +0.0, as the clipped sums give it
        nodes = np.array([
            [1.0, 2.0, 3.0],
            [-3.0, -2.0, -1.0],
            [-0.0, 0.0, 1.0],
            [-0.0, -0.0, -0.0],
            [0.0, 0.0, 0.0],
            [-1.0, -0.0, 2.0],
        ])
        weights = np.tile([0.5, 0.25, 2.0], (6, 1))
        right, left = self.split_sums(nodes, weights, 5)
        p = np.arange(1, 6)
        # every term and partial sum is exact in doubles
        expect_right = [
            0.5 + 0.25 * 2.0**p + 2.0 * 3.0**p,
            np.zeros(5),
            np.full(5, 2.0),
            np.zeros(5),
            np.zeros(5),
            2.0 * 2.0**p,
        ]
        expect_left = [
            np.zeros(5),
            0.5 * (-3.0) ** p + 0.25 * (-2.0) ** p + 2.0 * (-1.0) ** p,
            np.zeros(5),
            np.zeros(5),
            np.zeros(5),
            0.5 * (-1.0) ** p,
        ]
        assert np.array_equal(right, np.transpose(expect_right))
        assert np.array_equal(left, np.transpose(expect_left))
        assert not np.any(np.signbit(right[right == 0]))
        assert not np.any(np.signbit(left[left == 0]))

    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_nan_node_fails_the_step(self, rng, variant, monkeypatch):
        # a NaN node of cell 4 lands in its left half, so the face between
        # cells 3 and 4 and both their differences are NaN; the post-step
        # check names the first of them
        cells = random_odd_moments(rng, 2, count=8, a_range=(-1, 1), b_range=(0.5, 2))
        grid = hq.GridState(cells=cells, dx=np.full(8, 1 / 8), tau=1.0, boundary="zero-gradient")
        reconstruct = hq.solver._reconstruct_batch

        def nan_node(*args):
            nodes, weights = reconstruct(*args)
            nodes = nodes.copy()
            # one block: row 0 is the ghost cell before cell 0
            nodes[5, 1] = np.nan
            return nodes, weights

        monkeypatch.setattr(hq.solver, "_reconstruct_batch", nan_node)
        with pytest.raises(hq.RealizabilityLossError, match="lost strict realizability") as exc:
            hq.step(grid, SPEC1, variant)
        assert exc.value.cell == 3

    def test_full_upwind_from_left(self):
        left = hq.Quadrature(nodes=np.array([0.5, 2.0]), weights=np.array([1.0, 0.5]))
        right = hq.Quadrature(nodes=np.array([1.0, 3.0]), weights=np.array([2.0, 2.0]))
        # all left nodes positive, all right nodes positive: only left side counts
        for k in range(4):
            expect = 1.0 * 0.5 ** (k + 1) + 0.5 * 2.0 ** (k + 1)
            assert kinetic_flux(left, right, k) == pytest.approx(expect)

    def test_full_upwind_from_right(self):
        left = hq.Quadrature(nodes=np.array([-2.0, -0.5]), weights=np.array([1.0, 1.0]))
        right = hq.Quadrature(nodes=np.array([-1.0, -3.0]), weights=np.array([0.5, 2.0]))
        for k in range(3):
            expect = 0.5 * (-1.0) ** (k + 1) + 2.0 * (-3.0) ** (k + 1)
            assert kinetic_flux(left, right, k) == pytest.approx(expect)

    def test_symmetric_state_zero_mass_flux(self):
        q = hq.reconstruct_nodes([1, 0, 1], SPEC1, "eigen")
        assert kinetic_flux(q, q, 0) == pytest.approx(0.0, abs=1e-15)

    def test_single_node_advection(self):
        rho, u = 1.7, 0.9
        q = hq.Quadrature(nodes=np.array([u]), weights=np.array([rho]))
        anything = hq.Quadrature(nodes=np.array([-1.0, 2.0]), weights=np.array([0.3, 0.4]))
        # positive single node: flux_k = rho * u^(k+1) plus the right inflow part
        pure = hq.Quadrature(nodes=np.array([u]), weights=np.array([rho]))
        for k in range(4):
            assert kinetic_flux(pure, hq.Quadrature(np.array([1.0]), np.array([0.1])), k) == pytest.approx(
                rho * u ** (k + 1)
            )
        assert kinetic_flux(q, anything, 0) == pytest.approx(
            rho * u + 0.3 * (-1.0)
        )


class TestStep:
    def test_uniform_equilibrium_fixed_point(self):
        m = hq.maxwellian_moments(1.0, 0.3, 1.2, 4)
        grid = uniform_grid(m, cells=12, tau=0.2)
        for _ in range(5):
            grid = hq.step(grid, SPEC1, "gauss", cfl=0.9)
        assert np.max(np.abs(grid.cells - m)) < 1e-13 * np.max(np.abs(m))

    def test_semi_implicit_relaxation_recurrence(self):
        # homogeneous non-equilibrium: residuals of every component contract
        # by exactly 1/(1 + dt/tau) per step
        m = hq.recurrence_to_moments(([0.2, -0.1], [1.0, 1.3, 1.7]), 5)
        tau = 0.07
        grid = uniform_grid(m, cells=4, tau=tau)
        st = hq.EquilibriumState.from_moments(m)
        maxw = st.moments(4)
        current = np.array(m, dtype=float)
        for _ in range(30):
            new = hq.step(grid, SPEC1, "gauss", cfl=0.9)
            dt = new.time - grid.time
            predicted = maxw + (current - maxw) / (1 + dt / tau)
            assert np.max(np.abs(new.cells[0] - predicted)) < 1e-13 * max(
                1.0, np.max(np.abs(predicted))
            )
            grid = new
            current = grid.cells[0].copy()

    def test_conservation_per_step(self, rng):
        m_left = hq.maxwellian_moments(1.0, 0.2, 1.0, 4)
        m_right = hq.maxwellian_moments(0.4, -0.1, 0.7, 4)
        cells = np.tile(m_left, (30, 1))
        cells[15:] = m_right
        grid = hq.GridState(cells=cells, dx=np.full(30, 1 / 30), tau=0.5)
        for _ in range(20):
            new = hq.step(grid, SPEC1, "eigen", cfl=0.9)
            t0, t1 = hq.total_moments(grid), hq.total_moments(new)
            for k in range(3):
                assert abs(t1[k] - t0[k]) <= 1e-12 * abs(t0[k])
            grid = new

    def test_riemann_stays_realizable(self):
        cells = np.tile(hq.maxwellian_moments(1.0, 0.0, 1.0, 4), (200, 1))
        cells[100:] = hq.maxwellian_moments(0.125, 0.0, 0.8, 4)
        grid = hq.GridState(cells=cells, dx=np.full(200, 1 / 200), tau=1.0)
        for _ in range(40):
            grid = hq.step(grid, SPEC1, "gauss", cfl=0.9)
            ok = [hankel_positive_definite(c) for c in grid.cells[::40]]
            assert all(ok)

    def test_infinite_tau_is_pure_transport(self):
        cells = np.tile(hq.maxwellian_moments(1.0, 0.5, 1.0, 4), (16, 1))
        cells[8:] = hq.maxwellian_moments(0.5, -0.2, 0.6, 4)
        g_inf = hq.GridState(cells=cells.copy(), dx=np.full(16, 1 / 16), tau=math.inf)
        g_big = hq.GridState(cells=cells.copy(), dx=np.full(16, 1 / 16), tau=1e30)
        for _ in range(10):
            g_inf = hq.step(g_inf, SPEC1, "gauss", cfl=0.8)
            g_big = hq.step(g_big, SPEC1, "gauss", cfl=0.8)
        assert np.max(np.abs(g_inf.cells - g_big.cells)) <= 1e-12 * np.max(
            np.abs(g_inf.cells)
        )

    def test_cfl_guard(self):
        grid = uniform_grid(hq.maxwellian_moments(1, 0.4, 1, 4), cells=8)
        with pytest.raises(RuntimeError, match="CFL"):
            hq.step(grid, SPEC1, "gauss", cfl=1.0, dt=10.0)

    def test_explicit_dt_respected(self):
        grid = uniform_grid(hq.maxwellian_moments(1, 0.4, 1, 4), cells=8)
        new = hq.step(grid, SPEC1, "gauss", dt=1e-4)
        assert new.time == pytest.approx(1e-4)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
    def test_bad_explicit_dt_refused(self, dt):
        grid = uniform_grid(hq.maxwellian_moments(1.0, 0.0, 1.0, 4))
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            hq.step(grid, SPEC1, "gauss", dt=dt)

    def test_nan_dt_max_refused(self):
        # min(dt, nan) is dt, so a NaN cap was ignored
        grid = uniform_grid(hq.maxwellian_moments(1.0, 0.0, 1.0, 4))
        with pytest.raises(ValueError, match="dt_max"):
            hq.step(grid, SPEC1, "gauss", dt_max=np.nan)

    def test_zero_gradient_boundary(self):
        cells = np.tile(hq.maxwellian_moments(1.0, 0.5, 1.0, 4), (16, 1))
        cells[8:] = hq.maxwellian_moments(0.5, 0.5, 0.6, 4)
        grid = hq.GridState(
            cells=cells, dx=np.full(16, 1 / 16), tau=1.0, boundary="zero-gradient"
        )
        for _ in range(10):
            grid = hq.step(grid, SPEC1, "gauss", cfl=0.9)
        assert hankel_positive_definite(grid.cells[0])


class TestGridState:
    def test_cells_are_a_read_only_copy(self):
        m = hq.maxwellian_moments(1.0, 0.0, 1.0, 4)
        cells = np.tile(m, (4, 1))
        grid = hq.GridState(cells=cells, dx=np.full(4, 0.25), tau=1.0)
        assert not np.shares_memory(grid.cells, cells)
        cells[0, 0] = -1.0
        assert grid.cells[0, 0] == 1.0
        with pytest.raises(ValueError):
            grid.cells[0, 0] = -1.0

    def test_cells_are_order_major(self, rng):
        cells = random_odd_moments(rng, 2, count=6)
        for given in (np.ascontiguousarray(cells), np.asfortranarray(cells)):
            grid = hq.GridState(cells=given, dx=np.full(6, 1 / 6), tau=1.0)
            assert grid.cells.shape == (6, 5)
            assert grid.cells.flags.f_contiguous
            assert np.array_equal(grid.cells, cells)

    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_step_layout_independent(self, rng, variant):
        cells = random_odd_moments(rng, 2, count=9, a_range=(-1, 1), b_range=(0.5, 2))
        grids = [
            hq.GridState(cells=np.array(cells, order=o), dx=np.full(9, 1 / 9), tau=0.3)
            for o in ("C", "F")
        ]
        first, second = (hq.step(g, SPEC1, variant, cfl=0.9) for g in grids)
        assert first.cells.shape == second.cells.shape == (9, 5)
        assert first.cells.flags.f_contiguous
        assert np.array_equal(first.cells, second.cells)

    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_stepped_cells_are_read_only_and_new(self, rng, variant):
        cells = random_odd_moments(rng, 2, count=9, a_range=(-1, 1), b_range=(0.5, 2))
        grid = hq.GridState(cells=cells, dx=np.full(9, 1 / 9), tau=0.3)
        new = hq.step(grid, SPEC1, variant)
        assert new.cells.flags.f_contiguous
        assert not new.cells.flags.writeable
        with pytest.raises(ValueError):
            new.cells[0, 0] = 0.0
        assert not np.shares_memory(new.cells, grid.cells)
        assert not np.shares_memory(new.cells, cells)

    @pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf, 0.0, -0.25])
    def test_bad_cell_widths_refused(self, width):
        # a NaN width passed the old positivity check, and the step's CFL
        # fallback dt = 1.0 then ended the run in a realizability loss
        dx = np.full(4, 0.25)
        dx[2] = width
        with pytest.raises(ValueError, match="cell widths must be finite and positive"):
            hq.GridState(cells=np.tile(hq.maxwellian_moments(1.0, 0.0, 1.0, 4), (4, 1)),
                         dx=dx, tau=1.0)

    def test_nan_tau_refused(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            uniform_grid(hq.maxwellian_moments(1.0, 0.0, 1.0, 4), tau=np.nan)

    def test_new_cells_drop_the_memoized_gate(self):
        m = hq.maxwellian_moments(1.0, 0.0, 1.0, 2)
        grid = uniform_grid(m, cells=2)
        hq.step(grid, SPEC1, "gauss")  # memoizes the gate of the good cells
        grid.cells = np.array([m, [1.0, 0.0, -1.0]])
        with pytest.raises(hq.RealizabilityLossError) as exc:
            hq.step(grid, SPEC1, "gauss")
        assert exc.value.cell == 1


class TestBlocks:
    """The step runs in blocks of BLOCK_VALUES // (2n+1) cells; its results
    must not depend on where the blocks end."""

    @staticmethod
    def riemann(n, variant, boundary, cells=50):
        left = {"rho": 1.0, "U": 0.3, "theta": 1.0, "x_until": 0.4,
                "da": [0.05] * n, "db": [0.0] + [0.1] * n}
        right = {"rho": 0.2, "U": -0.4, "theta": 0.6, "db": [0.0, -0.05]}
        return {
            "n": n, "gamma": 1.0, "flux_variant": variant, "cfl": 0.9, "tau": 0.05,
            "domain": [0.0, 1.0], "cells": cells, "t_final": 0.03,
            "snapshot_every": 0.01, "boundary": boundary, "initial": [left, right],
        }

    @pytest.mark.parametrize("block_cells", [1, 7])
    @pytest.mark.parametrize("boundary", hq.solver.BOUNDARIES)
    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    @pytest.mark.parametrize("n, tau", [
        *(pytest.param(n, None, id=str(n)) for n in [1, 2, 3, 4, 5, 6, 8]),
        pytest.param(6, 1e-2, id="6-tau=1e-2"),
    ])
    def test_block_length_does_not_change_results(
        self, n, tau, variant, boundary, block_cells, monkeypatch
    ):
        cfg = self.riemann(n, variant, boundary)
        if n in (5, 8):
            # stiff relaxation puts the cells near equilibrium from the
            # second step on, so the m >= 5 eigensolves warm-start there
            cfg["tau"] = 1e-6
        if tau:
            # half relaxed: the right state is a Maxwellian, whose lanes
            # stand as their first-order guess, the left one relaxes
            # through the filter's window, and the wave stays outside it
            cfg["tau"] = tau
            cfg["initial"][1]["db"] = [0.0]
            lapack = lapack_lanes(monkeypatch)
        if n in (5, 8) or tau:
            accepted = accepted_lanes(monkeypatch)
            newton = newton_lanes(monkeypatch)
        grid = build_initial_grid(hq.validate_config(cfg))
        one_block = hq.step(grid, SPEC1, variant)
        whole = hq.run(cfg)
        monkeypatch.setattr(hq.solver, "BLOCK_VALUES", block_cells * (2 * n + 1))
        assert len(_blocks(50, 2 * n + 1)) == -(-50 // block_cells)
        grid = build_initial_grid(hq.validate_config(cfg))
        blocked = hq.step(grid, SPEC1, variant)
        assert blocked.time == one_block.time
        assert np.array_equal(blocked.cells, one_block.cells)
        for mine, theirs in zip(blocked._gate(), one_block._gate()):
            assert np.array_equal(mine, theirs)
        result = hq.run(cfg)
        assert result.manifest["steps"] == whole.manifest["steps"] >= 3
        assert [s.time for s in result.snapshots] == [s.time for s in whole.snapshots]
        for mine, theirs in zip(result.snapshots, whole.snapshots):
            assert np.array_equal(mine.cells, theirs.cells)
            assert mine.flagged_cells == theirs.flagged_cells
        if n in (5, 8) or tau:
            # both certificates ran: Kato-Temple on the lanes accepted
            # without a Newton step, and the steps on some others
            assert sum(accepted) > sum(newton) > 0
        if tau:
            # and LAPACK on the lanes outside the filter
            assert sum(lapack) > 0

    @pytest.mark.parametrize("block_cells", [7, None])
    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_stepped_gate_is_the_gate_of_the_new_cells(
        self, n, variant, block_cells, monkeypatch
    ):
        # the second pass writes each block's gate rows in place; 50 cells
        # in blocks of 6 or 7 give the same rows as one sweep of the cells
        if block_cells:
            monkeypatch.setattr(hq.solver, "BLOCK_VALUES", block_cells * (2 * n + 1))
            assert {blk.stop - blk.start for blk in _blocks(50, 2 * n + 1)} == {6, 7}
        cfg = self.riemann(n, variant, "zero-gradient")
        stepped = hq.step(build_initial_grid(hq.validate_config(cfg)), SPEC1, variant)
        memo = stepped._gate_memo
        ok, a, b, _ = _realizable_pivots_batch(stepped.cells)
        assert ok.all()
        for mine, theirs in zip(memo, (ok, a, b)):
            assert mine.shape == theirs.shape
            assert np.array_equal(mine, theirs)
        assert stepped._gate() is memo

    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_step_peak_memory(self, variant, monkeypatch):
        # one step at J = 5e4, n = 2, in 50 blocks of 1000 cells, allocates
        # per pass only the grid-sized arrays it keeps and the temporaries of
        # one block; an (L, J+1) flux table or a second (L, J) copy of the
        # new cells is 2 MB and breaks either bound
        J, L, B = 50_000, 5, 1000
        monkeypatch.setattr(hq.solver, "BLOCK_VALUES", B * L)
        assert len(_blocks(J, L)) == 50
        cells = np.tile(hq.maxwellian_moments(1.0, 0.2, 1.0, 4), (J, 1))
        cells[J // 2 :] = hq.maxwellian_moments(0.3, -0.1, 0.7, 4)
        grid = hq.GridState(cells=cells, dx=np.full(J, 1 / J), tau=0.5)
        grid._gate()
        hq.step(grid, SPEC1, variant)  # warm numpy's caches
        speeds = 8 * J
        new_cells = 8 * L * J
        gate = J + 8 * L * J  # ok, a (n, J) and b (n+1, J)
        block = 8 * L * B  # one (L, B) array of a block
        peaks = []
        time_step = hq.solver._time_step

        def barrier(*args, **kwargs):
            # the end of the first pass: record its peak, start the second
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return time_step(*args, **kwargs)

        monkeypatch.setattr(hq.solver, "_time_step", barrier)
        tracemalloc.start()
        try:
            hq.step(grid, SPEC1, variant)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        first, second = peaks
        # measured: 9.5 (gauss) and 11.1 (eigen) blocks over the kept
        # arrays in the first pass, whose end blocks copy their gate rows
        # with the ghost cells, and 6.8 in the second, after the speeds are
        # freed: the gate's three tables of mixed moments and its pivots
        # (3.6), and numpy's iterator buffers for the strided rows of a
        # block (3.3, two of np.getbufsize() values); the second bound
        # leaves 0.7 block of margin
        assert first <= speeds + new_cells + 12 * block
        assert second <= new_cells + gate + 7.5 * block

    def test_blocks_cover_the_cells_in_near_equal_lengths(self, monkeypatch):
        monkeypatch.setattr(hq.solver, "BLOCK_VALUES", 7 * 5)
        for J in (1, 7, 8, 15, 50, 701):
            lengths = [blk.stop - blk.start for blk in _blocks(J, 5)]
            assert sum(lengths) == J and len(lengths) == -(-J // 7)
            assert max(lengths) <= 7 and max(lengths) - min(lengths) <= 1

    @pytest.mark.parametrize("block_cells", [7, None])
    def test_loss_names_the_first_bad_cell_in_a_later_block(self, block_cells, monkeypatch):
        if block_cells:
            monkeypatch.setattr(hq.solver, "BLOCK_VALUES", block_cells * 3)
        cells = np.tile([1.0, 0.0, 1.0], (50, 1))
        cells[[37, 45]] = [1.0, 0.0, -1.0]
        grid = hq.GridState(cells=cells, dx=np.full(50, 0.02), tau=1.0)
        with pytest.raises(hq.RealizabilityLossError) as exc:
            hq.step(grid, SPEC1, "gauss")
        assert exc.value.cell == 37

    @pytest.mark.parametrize("block_cells", [7, None])
    def test_loss_after_the_step_names_the_first_bad_cell(self, block_cells, monkeypatch):
        # a relaxation target with M_2 < 0 at cells 37 and 45 and a stiff
        # relaxation leave those stepped cells unrealizable; the gate the
        # step builds block by block must name cell 37.  The blocks relax in
        # order, so a cell is found by its column in its block plus the
        # cells relaxed before it, whichever state the target is taken from
        if block_cells:
            monkeypatch.setattr(hq.solver, "BLOCK_VALUES", block_cells * 5)
        cells = np.tile(hq.maxwellian_moments(1.0, 0.0, 1.0, 4), (50, 1))
        grid = hq.GridState(cells=cells, dx=np.full(50, 0.02), tau=1e-9)
        target = hq.solver.gaussian_moments
        relaxed = [0]

        def broken(order, U, theta):
            out = np.array(target(order, U, theta))
            cell = relaxed[0] + np.arange(len(out))
            relaxed[0] += len(out)
            out[np.isin(cell, [37, 45]), 2] = -1.0
            return out

        monkeypatch.setattr(hq.solver, "gaussian_moments", broken)
        with pytest.raises(hq.RealizabilityLossError, match="lost strict") as exc:
            hq.step(grid, SPEC1, "gauss")
        assert relaxed == [50]
        assert exc.value.cell == 37

    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_no_sweep_sees_more_than_one_block(self, variant, monkeypatch):
        # every Wheeler sweep and eigensolve of an n = 2 step runs on one
        # block, the eigensolve with its two ghost cells, and the new grid's
        # gate is the one the step built
        size = hq.solver.BLOCK_VALUES // 5
        cells = 2 * size + 10
        cfg = dict(self.riemann(2, variant, "periodic", cells=cells), snapshot_every=None)
        grid = build_initial_grid(hq.validate_config(cfg))
        rows = {"wheeler": [], "jacobi": []}

        def spy(module, name, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                rows[key].append(args[0].shape[0])
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(hq.moments, "_wheeler_batch", "wheeler")
        spy(hq.solver, "_jacobi_batch", "jacobi")
        spy(hq.closures, "_jacobi_batch", "jacobi")
        new = hq.step(grid, SPEC1, variant)
        blocks = len(_blocks(cells, 5))
        assert blocks == 3
        # the input grid's gate, then the new cells' gate
        assert len(rows["wheeler"]) == 2 * blocks
        # the eigen variant solves Q_n and R_{n+1} in one nested call
        assert len(rows["jacobi"]) == blocks
        assert max(rows["wheeler"] + rows["jacobi"]) <= size
        new._gate()
        assert len(rows["wheeler"]) == 2 * blocks

    @pytest.mark.parametrize("block_cells", [7, None])
    @pytest.mark.parametrize("boundary", hq.solver.BOUNDARIES)
    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_reconstruction_rows_are_order_major(
        self, variant, boundary, block_cells, monkeypatch
    ):
        # interior blocks slice the gate's rows and the end blocks take their
        # ghost rows by the boundary rule; either way every block gets its
        # cells and one ghost each side as contiguous rows, one per order
        if block_cells:
            monkeypatch.setattr(hq.solver, "BLOCK_VALUES", block_cells * 5)
        grid = build_initial_grid(hq.validate_config(self.riemann(2, variant, boundary)))
        calls = []
        reconstruct = hq.solver._reconstruct_batch

        def spy(a, b, *args):
            calls.append((a, b))
            return reconstruct(a, b, *args)

        monkeypatch.setattr(hq.solver, "_reconstruct_batch", spy)
        hq.step(grid, SPEC1, variant)
        lengths = [blk.stop - blk.start + 2 for blk in _blocks(50, 5)]
        assert len(lengths) == (8 if block_cells else 1)
        assert [len(a) for a, _ in calls] == lengths
        for rows in calls:
            for x in rows:
                assert x.strides[0] == x.itemsize


@pytest.fixture(scope="module")
def stiff_smooth_config():
    """n = 6 eigen fluxes, tau = 1e-6, 400 cells that are each their own
    smooth random segment, 60 steps (``corpus.smooth_random_config``)."""
    return smooth_random_config(np.random.default_rng(20251019), 6, 1e-6)


class TestWarmStart:
    """Near equilibrium the step's eigensolves of order m >= 5 start from
    the standard state's spectra; LAPACK solves only what Newton does not
    certify."""

    @staticmethod
    def lane_counter(monkeypatch):
        """Counts of the eigensolves of order >= 5 the run makes, of the
        lanes of their factors of order >= 5 (Q_n and R_{n+1} of one nested
        call count apart), and of the matrices eigvalsh gets."""
        counts = {"calls": 0, "lanes": 0, "lapack": 0}
        jacobi, eigvalsh = hq.closures._jacobi_batch, np.linalg.eigvalsh

        def lanes(diag, *args, nested=False, **kwargs):
            m = diag.shape[1]
            factors = sum(k >= 5 for k in ((m - 1, m) if nested else (m,)))
            counts["calls"] += factors > 0
            counts["lanes"] += factors * diag.shape[0]
            return jacobi(diag, *args, nested=nested, **kwargs)

        def lapack(A):
            counts["lapack"] += A.shape[0]
            return eigvalsh(A)

        monkeypatch.setattr(hq.closures, "_jacobi_batch", lanes)
        monkeypatch.setattr(np.linalg, "eigvalsh", lapack)
        return counts

    def test_stiff_run_takes_the_warm_path(self, stiff_smooth_config, monkeypatch):
        # at least 95% of the m = 6 and 7 lanes skip LAPACK
        self.check_against_lapack(stiff_smooth_config, 0.05, monkeypatch)

    def test_half_relaxed_run_takes_the_warm_path(self, stiff_smooth_config, monkeypatch):
        # at tau = 1e-2 at least half of the lanes skip LAPACK
        self.check_against_lapack(dict(stiff_smooth_config, tau=1e-2), 0.5, monkeypatch)

    def check_against_lapack(self, cfg, lapack_share, monkeypatch):
        # at most lapack_share of the m = 6 and 7 lanes go to LAPACK, and
        # the final cells stay within 1e-12 of a run in which the filter
        # admits no lane, so that LAPACK solves every lane, per moment order
        # relative to its largest magnitude
        with monkeypatch.context() as patch:
            counts = self.lane_counter(patch)
            warm = hq.run(cfg).grid.cells
        # one nested eigensolve per step, of two factors on 402 lanes
        assert counts["calls"] == 60 and counts["lanes"] == 60 * 2 * 402
        assert 0 < counts["lapack"] <= lapack_share * counts["lanes"]
        monkeypatch.setattr(hq.orthopoly, "_standard_deviation",
                            lambda d, *args: np.full((2, d.shape[1]), np.inf))
        cold = hq.run(cfg).grid.cells
        assert len(np.unique(cold, axis=0)) == 400
        assert np.max(np.abs(warm - cold) / np.max(np.abs(cold), axis=0)) <= 1e-12

    def test_stiff_step_sends_only_rejected_lanes_to_lapack(self, stiff_smooth_config,
                                                            monkeypatch):
        cfg = dict(stiff_smooth_config, t_final=3 * stiff_smooth_config["dt_max"])
        grid = hq.run(cfg).grid
        accepted = accepted_lanes(monkeypatch)
        counts = self.lane_counter(monkeypatch)
        hq.step(grid, SPEC1, "eigen", dt_max=cfg["dt_max"])
        assert len(accepted) == 1 and counts["lanes"] == 2 * 402
        assert counts["lapack"] == counts["lanes"] - sum(accepted)

    def test_far_from_equilibrium_the_step_solves_from_scratch(self, rng, monkeypatch):
        # no cell passes the filter: no lane is admitted, no Newton step
        # runs, and each eigensolve sends all its lanes to one eigvalsh call
        cfg = smooth_random_config(rng, 6, 1.0, cells=40, steps=1)
        for seg in cfg["initial"]:
            seg["da"] = [0.0, 0.4]
        admitted = []
        warm = hq.orthopoly._newton_from_standard

        def spy(d, off, models, x):
            dev = hq.orthopoly._standard_deviation(d, off, models[-1][0])[-len(models):]
            admitted.append(np.count_nonzero(dev < [[model[2] / 8] for model in models]))
            return warm(d, off, models, x)

        monkeypatch.setattr(hq.orthopoly, "_newton_from_standard", spy)
        newton, lapack = newton_lanes(monkeypatch), lapack_lanes(monkeypatch)
        hq.run(cfg)
        # one filter for Q_6 and R_7, then one eigvalsh call per factor
        assert admitted == [0] and newton == [] and lapack == [42, 42]

    @pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
    def test_single_cell_api_is_the_steps_reconstruction(self, stiff_smooth_config, variant,
                                                         monkeypatch):
        # reconstruct_nodes is the J = 1 view of the step's reconstruction:
        # for a near-equilibrium n = 6 cell, warm-started in both, it returns
        # that cell's row of the step bitwise, and so does the eigen
        # variant's spectral_decomposition on every cell of the grid
        cfg = dict(stiff_smooth_config, flux_variant=variant,
                   t_final=2 * stiff_smooth_config["dt_max"])
        grid = hq.run(cfg).grid
        rows = []
        reconstruct = hq.solver._reconstruct_batch

        def spy(*args):
            rows.append(reconstruct(*args))
            return rows[-1]

        monkeypatch.setattr(hq.solver, "_reconstruct_batch", spy)
        hq.step(grid, SPEC1, variant, dt_max=cfg["dt_max"])
        ((nodes, weights),) = rows
        accepted = accepted_lanes(monkeypatch)
        for j in (0, 137, 399):
            q = hq.reconstruct_nodes(grid.cells[j], SPEC1, variant)
            # row j + 1: the step's one block starts with a ghost cell
            assert np.array_equal(q.nodes, nodes[j + 1])
            assert np.array_equal(q.weights, weights[j + 1])
        # one warm solve per cell, of both factors for eigen
        assert accepted == [2 if variant == "eigen" else 1] * 3
        if variant == "eigen":
            for j, cell in enumerate(grid.cells):
                sd = hq.spectral_decomposition(cell, SPEC1)
                assert np.array_equal(sd.eigenvalues, nodes[j + 1])
                assert np.array_equal(sd.weights, weights[j + 1])

    @pytest.mark.parametrize("variant, factors", [("eigen", 2), ("gauss", 1)])
    def test_one_pass_per_eigensolve(self, stiff_smooth_config, variant, factors,
                                     monkeypatch, count_calls):
        # near equilibrium at n = 6 a step makes one m >= 5 eigensolve per
        # block, nested (Q_6 and R_7) for eigen and the augmented Q_7 for
        # gauss, and each runs one _standard_deviation filter, at most one
        # _newton_steps loop and one _christoffel pass over all its factors
        cfg = dict(stiff_smooth_config, flux_variant=variant,
                   t_final=2 * stiff_smooth_config["dt_max"])
        grid = hq.run(cfg).grid
        monkeypatch.setattr(hq.solver, "BLOCK_VALUES", 70 * 13)
        blocks = len(_blocks(400, 13))
        assert blocks == 6
        solves_seen = [count_calls(module, "_jacobi_batch") for module in (hq.solver, hq.closures)]
        # every module that binds the filter counts into one total
        passes = {name: [count_calls(module, name)
                         for module in (hq.solver, hq.closures, hq.orthopoly)
                         if hasattr(module, name)]
                  for name in ("_standard_deviation", "_newton_steps", "_christoffel")}
        accepted = accepted_lanes(monkeypatch)
        hq.step(grid, SPEC1, variant, dt_max=cfg["dt_max"])
        calls = {name: sum(c[0] for c in counters) for name, counters in passes.items()}
        assert sum(c[0] for c in solves_seen) == blocks
        assert calls["_standard_deviation"] == calls["_christoffel"] == blocks
        assert calls["_newton_steps"] <= blocks
        assert sum(accepted) >= 0.95 * factors * 400


class TestConfigValidation:
    def base(self):
        return {
            "n": 2,
            "gamma": 1.0,
            "flux_variant": "gauss",
            "cfl": 0.9,
            "tau": 1.0,
            "domain": [0.0, 1.0],
            "cells": 16,
            "t_final": 0.01,
            "snapshot_every": None,
            "boundary": "periodic",
            "initial": [{"rho": 1.0, "U": 0.0, "theta": 1.0}],
        }

    def test_valid_passes(self):
        cfg = hq.validate_config(self.base())
        assert cfg["n"] == 2 and cfg["initial"][0]["x_until"] == 1.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 0),
            ("gamma", -5.0),
            ("flux_variant", "weno"),
            ("cfl", 1.5),
            ("tau", -1.0),
            ("domain", [1.0, 0.0]),
            ("cells", 1),
            ("t_final", -0.5),
            ("boundary", "reflecting"),
            ("gamma", math.inf),
            ("t_final", math.inf),
            # float() read these as [0.0, 1.0]
            ("domain", ["0", "1e0"]),
            ("domain", [False, True]),
            # numpy failed on it inside the run, naming no field
            ("cells", 10**20),
        ],
    )
    def test_bad_fields(self, field, value):
        cfg = self.base()
        cfg[field] = value
        with pytest.raises(hq.ConfigError) as exc:
            hq.validate_config(cfg)
        assert exc.value.field == field

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "field", ["tau", "snapshot_every", "dt_max", "rho", "U", "theta", "x_until", "da", "db"]
    )
    def test_booleans_refused(self, field, value):
        # JSON true and false load as bools, which are ints: "tau": true ran
        # with tau = 1 and "U": false with U = 0
        cfg = self.base()
        cfg["initial"] = [{"rho": 1.0, "U": 0.0, "theta": 1.0, "x_until": 0.5},
                          {"rho": 0.5, "U": 0.0, "theta": 1.0}]
        if field in ("tau", "snapshot_every", "dt_max"):
            cfg[field], where = value, field
        else:
            cfg["initial"][0][field] = [value] if field in ("da", "db") else value
            where = f"initial[0].{field}"
        with pytest.raises(hq.ConfigError) as exc:
            hq.validate_config(cfg)
        assert exc.value.field == where

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["rho", "U", "theta", "da", "db"])
    def test_non_finite_initial_state_refused(self, field, value):
        # "U": Infinity (or an infinite da/db entry) passed, and the run
        # failed at t = 0 with numpy warnings instead of naming the field
        cfg = self.base()
        cfg["initial"] = [{"rho": 1.0, "U": 0.0, "theta": 1.0, "x_until": 0.5},
                          {"rho": 0.5, "U": 0.0, "theta": 1.0}]
        cfg["initial"][1][field] = [0.0, value] if field in ("da", "db") else value
        with pytest.raises(hq.ConfigError, match="finite") as exc:
            hq.validate_config(cfg)
        assert exc.value.field == f"initial[1].{field}"

    @pytest.mark.parametrize(
        "field",
        ["rho", "U", "theta", "da", "db", "cells", "t_final", "dt_max", "snapshot_every",
         "domain", "gamma", "tau"],
    )
    def test_integer_beyond_double_refused(self, field):
        # JSON integers are unbounded, every range check passes 10**400, and
        # float() raises OverflowError on it
        big = 10**400
        cfg = self.base()
        if field in ("rho", "U", "theta", "da", "db"):
            cfg["initial"][0][field] = [0.0, big] if field in ("da", "db") else big
            where = f"initial[0].{field}"
        else:
            cfg[field], where = ([0.0, big] if field == "domain" else big), field
        with pytest.raises(hq.ConfigError, match="double") as exc:
            hq.validate_config(json.loads(json.dumps(cfg)))
        assert exc.value.field == where

    @pytest.mark.parametrize(
        "domain", [[1e16, 1e16 + 4], [-1e308, 1e308], [0.0, math.inf]],
        ids=["below-double-spacing", "overflowing-width", "infinite"],
    )
    def test_unresolved_cell_centres_refused(self, domain):
        # doubles near 1e16 are 2 apart: the centres of 4 cells of width 1
        # round to x0 + [0, 2, 2, 4], and the first would own no cell
        cfg = dict(self.base(), domain=domain, cells=4)
        with pytest.raises(hq.ConfigError, match="not strictly increasing") as exc:
            hq.validate_config(cfg)
        assert exc.value.field == "domain"

    def test_cells_two_doubles_wide_accepted(self):
        eps = np.finfo(float).eps
        cfg = dict(self.base(), domain=[1.0, 1.0 + 8 * eps], cells=4)
        grid = build_initial_grid(hq.validate_config(cfg))
        assert np.all(grid.cells == grid.cells[0])

    def test_missing_field(self):
        cfg = self.base()
        del cfg["cells"]
        with pytest.raises(hq.ConfigError, match="cells"):
            hq.validate_config(cfg)

    def test_bad_segment_reported_with_path(self):
        cfg = self.base()
        cfg["initial"] = [{"rho": -1.0, "U": 0.0, "theta": 1.0}]
        with pytest.raises(hq.ConfigError, match=r"initial\[0\].rho"):
            hq.validate_config(cfg)

    def test_perturbation_positivity_enforced(self):
        cfg = self.base()
        cfg["initial"] = [{"rho": 1.0, "U": 0.0, "theta": 1.0, "db": [0.0, -2.0]}]
        with pytest.raises(hq.ConfigError, match="positive"):
            build_initial_grid(hq.validate_config(cfg))

    def test_infinite_tau_accepted(self):
        cfg = self.base()
        cfg["tau"] = "inf"
        assert hq.validate_config(cfg)["tau"] == math.inf

    def test_initial_segments_realizable_by_construction(self):
        cfg = self.base()
        cfg["initial"] = [
            {"rho": 1.0, "U": 0.3, "theta": 1.0, "da": [0.5, -0.2], "db": [0.2, 0.4, -0.5], "x_until": 0.5},
            {"rho": 2.0, "U": -0.3, "theta": 0.5},
        ]
        grid = build_initial_grid(hq.validate_config(cfg))
        for j in (0, grid.num_cells - 1):
            assert hankel_positive_definite(grid.cells[j])


    @pytest.mark.parametrize(
        "edge, owners",
        [(0.3125, [0, 0, 0, 1, 1, 2, 2, 2]), (0.3125 - 5e-16, [0, 0, 1, 1, 1, 2, 2, 2])],
        ids=["on", "just below"],
    )
    def test_segment_edge_on_a_cell_centre(self, edge, owners):
        # the centres of 8 cells on [0, 1] are (j + 1/2) / 8 exactly; a
        # centre at x_until is the segment's last, and a centre just above
        # it the next segment's first
        states = [
            {"rho": 1.0, "U": 0.3, "theta": 1.0},
            {"rho": 0.5, "U": -0.2, "theta": 0.7, "db": [0.0, 0.1]},
            {"rho": 2.0, "U": 0.0, "theta": 1.5},
        ]
        bounds = [{"x_until": edge}, {"x_until": 0.5625}, {}]
        cfg = dict(self.base(), cells=8)
        cfg["initial"] = [dict(state, **bound) for state, bound in zip(states, bounds)]
        grid = build_initial_grid(hq.validate_config(cfg))
        rows = [
            build_initial_grid(hq.validate_config(dict(cfg, initial=[state]))).cells[0]
            for state in states
        ]
        for j, owner in enumerate(owners):
            assert np.array_equal(grid.cells[j], rows[owner])
        assert grid.cells.flags.f_contiguous and not grid.cells.flags.writeable


class TestRun:
    def test_zero_final_time(self):
        cfg = TestConfigValidation().base()
        cfg["t_final"] = 0.0
        result = hq.run(cfg)
        assert len(result.snapshots) == 1
        assert result.manifest["steps"] == 0

    def test_snapshot_cadence_and_files(self, tmp_path):
        cfg = TestConfigValidation().base()
        cfg["t_final"] = 0.02
        cfg["snapshot_every"] = 0.005
        result = hq.run(cfg, output_dir=tmp_path)
        assert result.grid.time == pytest.approx(0.02)
        assert len(result.snapshots) >= 3
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        for entry in manifest["snapshots"]:
            assert (tmp_path / entry["file"]).exists()
        header = (tmp_path / "snapshot_0000.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "x", "M_0", "M_1", "M_2", "M_3", "M_4", "rho", "U", "theta", "realizable_flag",
        ]

    def test_snapshot_times_are_exact_multiples(self, count_calls):
        # the k-th snapshot sits at k * snapshot_every exactly rather than at
        # a sum of step sizes, and pinning the time costs no Wheeler sweep
        path = Path(__file__).parents[1] / "demos" / "configs" / "relaxation_homogeneous.json"
        sweeps = count_calls(hq.moments, "_wheeler_batch")
        result = hq.run(path)
        assert [s.time for s in result.snapshots] == [k * 0.1 for k in range(6)]
        assert result.manifest["final_time"] == 0.5
        assert sweeps[0] == result.manifest["steps"] + 1

    def test_snapshot_x_column_is_the_cell_centres(self):
        # x0 + (j + 1/2) dx, the centres build_initial_grid fills the cells
        # by; a running sum of the widths drifted from them by up to 3.8e-12
        # on [-1, 1] with 1e5 cells
        cfg = hq.validate_config(dict(TestConfigValidation().base(), domain=[-1.0, 1.0],
                                      cells=100_000))
        grid = build_initial_grid(cfg)
        _, x_text = hq.solver._snapshot_csv_head(cfg, grid)
        dx = 2.0 / 100_000
        assert x_text == list(map(repr, ((np.arange(100_000) + 0.5) * dx - 1.0).tolist()))

    def test_snapshot_rows_parse_back(self, tmp_path):
        cfg = TestConfigValidation().base()
        cfg["t_final"] = 0.0
        hq.run(cfg, output_dir=tmp_path)
        lines = (tmp_path / "snapshot_0000.csv").read_text().splitlines()
        row = [float(tok) for tok in lines[1].split(",")]
        assert row[-1] == 1.0  # realizable flag
        assert row[1:6] == list(hq.maxwellian_moments(1.0, 0.0, 1.0, 4))

    def test_snapshot_csv_extreme_magnitudes_round_trip(self):
        # each value is written as its shortest round-trip repr, so the
        # moments read back bit for bit at any magnitude
        cells = np.array([hq.maxwellian_moments(rho, U, 1.0, 4) for rho, U in
                          ((1e-200, 0.0), (1.0 + 2**-52, 0.0), (3.7e150, -1.0), (1.0, 0.1))])
        assert {1e-200, 1.0 + 2**-52, -3.7e150, 0.1} <= set(cells.ravel().tolist())
        grid = hq.GridState(cells=cells, dx=np.full(4, 0.25), tau=1.0)
        _, U, theta = hq.solver._flagged_cells(grid)
        lines = hq.solver._snapshot_csv_lines(grid, U, theta, "header", ["0.0"] * 4)
        parsed = np.array([[float(tok) for tok in line.split(",")[1:6]] for line in lines[1:]])
        assert np.array_equal(parsed, cells)

    @pytest.mark.parametrize("rows", [7, hq.solver.CSV_ROWS])
    @pytest.mark.parametrize("config", ["riemann_n2.json", "relaxation_homogeneous.json"])
    def test_snapshot_csv_rows_are_the_row_reprs(self, config, rows, tmp_path, monkeypatch):
        # the CSV is formatted column by column in chunks of cells; each line
        # must read as the reprs of one cell's x, M_0..M_2n, rho, U and
        # theta, then its flag
        monkeypatch.setattr(hq.solver, "CSV_ROWS", rows)
        path = Path(__file__).parents[1] / "demos" / "configs" / config
        cfg = hq.validate_config(json.loads(path.read_text()))
        result = hq.run(cfg, output_dir=tmp_path)
        x, _ = hq.solver._cell_centers(*cfg["domain"], cfg["cells"])
        for k, snap in enumerate(result.snapshots):
            M = snap.cells
            rho = M[:, 0]
            U = M[:, 1] / rho
            theta = M[:, 2] / rho - U**2
            table = np.column_stack([x, M, rho, U, theta]).tolist()
            lines = (tmp_path / f"snapshot_{k:04d}.csv").read_text().splitlines()
            assert lines[1:] == [",".join(map(repr, row)) + ",1" for row in table]

    def test_first_order_convergence(self):
        # smooth manufactured profile, pure transport; self-convergence of
        # the density between successive refinements halves the error
        def run_cells(cells):
            cfg = {
                "n": 1,
                "gamma": 1.0,
                "flux_variant": "gauss",
                "cfl": 0.5,
                "tau": "inf",
                "domain": [0.0, 1.0],
                "cells": cells,
                "t_final": 0.05,
                "snapshot_every": None,
                "boundary": "periodic",
                "initial": [
                    {
                        "rho": 1.0 + 0.1 * np.sin(2 * np.pi * (i + 0.5) / cells),
                        "U": 0.5,
                        "theta": 1.0,
                        "x_until": (i + 1) / cells,
                    }
                    for i in range(cells)
                ],
            }
            return hq.run(cfg).grid.cells[:, 0]

        solutions = {cells: run_cells(cells) for cells in (50, 100, 200, 400)}
        diffs = []
        for coarse, fine in ((50, 100), (100, 200), (200, 400)):
            restricted = solutions[fine].reshape(coarse, 2).mean(axis=1)
            diffs.append(np.mean(np.abs(restricted - solutions[coarse])))
        assert 1.4 < diffs[0] / diffs[1] < 2.9
        assert 1.4 < diffs[1] / diffs[2] < 2.9

    def test_near_boundary_cells_flagged(self):
        # squeeze b_2 to a sliver of the cell temperature (= b_1)
        cfg = TestConfigValidation().base()
        cfg["n"] = 2
        cfg["t_final"] = 0.0
        cfg["initial"] = [
            {"rho": 1.0, "U": 0.0, "theta": 1.0, "db": [0.0, 0.0, -2.0 + 1e-11]}
        ]
        result = hq.run(cfg)
        assert result.snapshots[0].flagged_cells == list(range(16))

    def test_bundled_riemann_config(self):
        path = Path(__file__).parents[1] / "demos" / "configs" / "riemann_n2.json"
        result = hq.run(path)
        assert result.manifest["realizability_failures"] == 0
        assert result.grid.time == pytest.approx(0.1)
        for snap in result.snapshots:
            ok = [hankel_positive_definite(c) for c in snap.cells[::50]]
            assert all(ok)

    def test_one_step_call_and_one_sweep_per_step(self, tmp_path, count_calls):
        # the post-step check is the next step's gate, no step is recomputed
        # to land on a snapshot time or t_final, and each snapshot CSV reads
        # the live grid's gate
        path = Path(__file__).parents[1] / "demos" / "configs" / "riemann_n2.json"
        steps = count_calls(hq.solver, "step")
        sweeps = count_calls(hq.moments, "_wheeler_batch")
        result = hq.run(path, output_dir=tmp_path)
        assert len(result.files) == len(result.snapshots) + 1
        assert steps[0] == result.manifest["steps"]
        assert sweeps[0] == result.manifest["steps"] + 1

    def test_runs_are_deterministic(self, tmp_path):
        cfg = TestConfigValidation().base()
        cfg["t_final"] = 0.02
        cfg["snapshot_every"] = 0.01
        cfg["initial"] = [
            {"rho": 1.0, "U": 0.4, "theta": 1.0, "x_until": 0.5},
            {"rho": 0.5, "U": -0.2, "theta": 0.7, "db": [0.0, 0.1]},
        ]
        hq.run(cfg, output_dir=tmp_path / "a")
        hq.run(cfg, output_dir=tmp_path / "b")
        for name in ("snapshot_0000.csv", "snapshot_0001.csv", "snapshot_0002.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
