import numpy as np
import pytest

import hyqmom as hq
from hyqmom import cli, stability
from hyqmom.closures import _extended_jacobi_rows, _spectral_batch
from hyqmom.moments import _moments_from_recurrence_batch, _realizable_pivots_batch
from hyqmom.orthopoly import (
    _jacobi_batch,
    _model,
    _monic_pair_batch,
    _newton_from_standard,
    _standard_deviation,
    _standard_spectrum,
)
from corpus import (
    random_coefficients,
    random_even_moments,
    random_odd_moments,
    smooth_random_config,
)
from reference import mp_golub_welsch, mp_tridiagonal_eigenvalues, vandermonde_weights


def monic(a, b, deg):
    """Q_deg of the monic recursion with coefficients a, b."""
    return _monic_pair_batch(np.array([a], dtype=float), np.array([b], dtype=float), deg)[0][0]


class TestBuildPolynomials:
    def test_hermite_start(self):
        a, b = [0.0, 0.0], [99.0, 1.0]
        assert np.allclose(monic(a, b, 1), [0, 1])          # X
        assert np.allclose(monic(a, b, 2), [-1, 0, 1])      # X^2 - 1

    def test_centering(self):
        U = 1.8
        assert np.allclose(monic([U], [5.0], 1), [-U, 1])

    def test_hermite_cubic(self):
        # apply the recursion by hand: Q_3 = X^3 - 3X
        q3 = monic([0.0, 0.0, 0.0], [7.0, 1.0, 2.0], 3)
        assert np.allclose(q3, [0, -3, 0, 1])

    def test_recursion_holds_coefficientwise(self, rng):
        a = rng.uniform(-2, 2, 5)
        b = rng.uniform(0.1, 5, 5)
        polys = [monic(a, b, k) for k in range(6)]
        for k in range(1, 5):
            lhs = polys[k + 1]
            rhs = np.zeros_like(lhs)
            rhs[1:] = polys[k]
            rhs[: k + 1] -= a[k] * polys[k]
            rhs[: k] -= b[k] * polys[k - 1]
            assert np.array_equal(lhs, rhs)


class TestJacobiRoots:
    def test_degree_two(self):
        assert np.allclose(hq.jacobi_roots([0, 0], [1]), [-1, 1])

    def test_degree_three(self):
        assert np.allclose(hq.jacobi_roots([0, 0, 0], [1, 2]), [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)

    def test_affine_image(self):
        U, th = 2.5, 3.0
        roots = hq.jacobi_roots([U, U], [th])
        assert np.allclose(roots, [U - np.sqrt(th), U + np.sqrt(th)])

    def test_single_node(self):
        assert np.allclose(hq.jacobi_roots([0.7], []), [0.7])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            hq.jacobi_roots([0, 0], [-1.0])

    def test_two_dimensional_weights_refused(self):
        # a (m-1, 1) column has the right length and failed inside numpy
        with pytest.raises(ValueError, match="1-D diag and offdiag_b"):
            hq.jacobi_roots([0.0, 0.0, 0.0], [[1.0], [2.0]])

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refused(self, m, bad):
        # a NaN coupling passes the positivity check, and a NaN diagonal
        # entry can come back as finite roots
        for where in ("diag", "offdiag"):
            diag, offdiag = np.zeros(m), np.ones(m - 1)
            (diag if where == "diag" else offdiag)[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                hq.jacobi_roots(diag, offdiag)

    def test_matches_polynomial_roots(self, rng):
        # refined roots of the built polynomial agree with the eigenvalues
        for n in (2, 3, 4, 5, 6):
            m = random_odd_moments(rng, n)[0]
            a, b = hq.moments_to_recurrence(m)
            roots = hq.jacobi_roots(a[:n], b[1:n])
            poly = monic(a, b, n)
            alt = np.sort(np.roots(poly[::-1]).real)
            radius = np.max(np.abs(roots))
            assert np.max(np.abs(roots - alt)) < 1e-9 * radius


class TestGaussQuadrature:
    def test_two_point_rule(self):
        q = hq.gauss_quadrature([1, 0, 1, 0])
        assert np.allclose(q.nodes, [-1, 1])
        assert np.allclose(q.weights, [0.5, 0.5])

    def test_single_delta(self):
        rho, U = 2.5, -1.2
        q = hq.gauss_quadrature([rho, rho * U])
        assert np.allclose(q.nodes, [U])
        assert np.allclose(q.weights, [rho])

    def test_three_point_hermite(self):
        q = hq.gauss_quadrature([1, 0, 1, 0, 3, 0])
        assert np.allclose(q.nodes, [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)
        # oracle: solve the moment system at the computed nodes directly
        V = np.vander(q.nodes, increasing=True).T
        w = np.linalg.solve(V, [1, 0, 1])
        assert np.allclose(q.weights, w)
        assert np.allclose(q.weights, [1 / 6, 2 / 3, 1 / 6])

    def test_moment_reproduction(self, rng):
        for n in range(1, 7):
            m = random_even_moments(rng, n)[0]
            q = hq.gauss_quadrature(m)
            assert np.min(q.weights) > 0
            assert np.all(np.diff(q.nodes) > 0)
            for k in range(2 * n):
                scale = float(np.sum(q.weights * np.abs(q.nodes) ** k)) + abs(m[k])
                assert abs(q.power_sum(k) - m[k]) < 1e-9 * scale

    def test_mass_matches(self, rng):
        m = random_even_moments(rng, 3)[0]
        q = hq.gauss_quadrature(m)
        assert np.sum(q.weights) == pytest.approx(m[0], rel=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            hq.gauss_quadrature([1, 0, 1])

    def test_not_realizable(self):
        with pytest.raises(hq.NotRealizableError):
            hq.gauss_quadrature([1, 0, 1, 0, 1, 0])


def _recurrence_row(rng, m, case):
    """Recurrence rows a (m,) and b (m,) of a Gaussian-like measure: a_k
    near U (0, or 5 and 15 for the cases of those names), b_k near
    k theta, mass b_0 in [0.5, 2].  ``near boundary`` scales one coupling
    b_k (k >= 1) by 1e-10, ``nearer boundary`` by 1e-14."""
    theta = rng.uniform(0.5, 2.0)
    U = {"U=5": 5.0, "U=15": 15.0}.get(case, 0.0)
    a = U + rng.uniform(-0.3, 0.3, m) * np.sqrt(theta)
    b = np.arange(m) * theta * rng.uniform(0.5, 1.5, m)
    b[0] = rng.uniform(0.5, 2.0)
    scale = {"near boundary": 1e-10, "nearer boundary": 1e-14}.get(case)
    if scale and m > 1:
        b[rng.integers(1, m)] *= scale
    return a, b


def _small_order_rows(rng, m, case):
    """Recurrence rows (a, b) of order m for the closed-form eigenvalues.
    A ``Maxwellian`` row has a_k = U with |U| <= 15 and b_k = k theta, so
    its nodes lie symmetric about U.  A ``near-degenerate pair`` sets
    a_1 = a_0 + sqrt(s) u and b_1 = s.  From m = 3 on that splits off the
    first row rather than closing two eigenvalues, so a ``close pair`` puts
    a_{m-1} at an eigenvalue of the leading block plus sqrt(s) u, with
    b_{m-1} = s.  ``symmetric close pairs`` (m = 4) sets a_k = U,
    b_1 = b_3 = t and b_2 = s t: two pairs U -+ sqrt(t) split by about
    sqrt(s t), on a spectrum symmetric about U.  s runs from 1e-8 down to
    1e-30, for the symmetric pairs from 1 down to 1e-24 (a split of 1e-12,
    which double precision still resolves at |U| = 15); u is uniform in
    [-1, 1]."""
    if case == "Maxwellian":
        for _ in range(20):
            U, theta = rng.uniform(-15.0, 15.0), rng.uniform(0.1, 10.0)
            b = np.arange(m) * theta
            b[0] = rng.uniform(0.5, 2.0)
            yield np.full(m, U), b
        return
    if "pair" not in case:
        for _ in range(20):
            yield _recurrence_row(rng, m, case)
        return
    first = {"near-degenerate pair": 2, "close pair": 3, "symmetric close pairs": 4}[case]
    if m < first or (case == "symmetric close pairs" and m != 4):
        return
    exponents = np.arange(0, 25) if case == "symmetric close pairs" else np.arange(8, 31, 2)
    for s in 10.0**-exponents:
        for _ in range(4):
            a, b = _recurrence_row(rng, m, "U=0")
            u = rng.uniform(-1.0, 1.0)
            if case == "symmetric close pairs":
                a[:] = rng.uniform(-15.0, 15.0)
                b[1] = b[3] = rng.uniform(0.5, 2.0)
                b[2] = s * b[1]
            elif case == "close pair":
                off = np.sqrt(b[1 : m - 1])
                lead = np.diag(a[:-1]) + np.diag(off, 1) + np.diag(off, -1)
                a[-1] = rng.choice(np.linalg.eigvalsh(lead)) + np.sqrt(s) * u
                b[-1] = s
            else:
                a[1] = a[0] + np.sqrt(s) * u
                b[1] = s
            yield a, b


class TestSmallOrderEigenvalues:
    """Jacobi orders m <= 4 are solved in closed form, larger ones by
    LAPACK's eigvalsh; the choice follows m, and lanes with a close pair
    at m = 3 and 4 go back to LAPACK."""

    CASES = (
        "U=0", "U=15", "Maxwellian", "near boundary", "nearer boundary",
        "near-degenerate pair", "close pair", "symmetric close pairs",
    )

    @pytest.mark.parametrize("case", CASES)
    def test_high_precision_reference(self, rng, case):
        # nodes strictly ascending and within (m+1) eps ||T||_F of the
        # eigenvalues of the same double matrices at 60 digits, the radius
        # of the verify-hyperbolicity enclosures
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        eps = np.finfo(float).eps
        worst = 0.0
        with mpmath.workdps(60):
            for m in (1, 2, 3, 4):
                for a, b in _small_order_rows(rng, m, case):
                    off = np.sqrt(b[1:])
                    x = _jacobi_batch(a[None, :], off[None, :])[0]
                    assert np.all(np.diff(x) > 0)
                    exact = mp_tridiagonal_eigenvalues(
                        [mp.mpf(v) for v in a], [mp.mpf(v) for v in off], mp
                    )
                    radius = (m + 1) * eps * np.sqrt(np.sum(a**2) + 2 * np.sum(off**2))
                    for v, e in zip(x, sorted(exact)):
                        worst = max(worst, float(abs(mp.mpf(v) - e)) / radius)
        print(f"\n{case}: worst node error {worst:.2f} x (m+1) eps ||T||_F")
        assert worst <= 1.0

    def test_no_lapack_call_up_to_order_four(self, rng, count_calls):
        calls = count_calls(np.linalg, "eigvalsh")
        for m in (1, 2, 3, 4):
            hq.jacobi_roots(rng.uniform(-1, 1, m), rng.uniform(0.5, 2, m - 1))
        a, b = random_coefficients(rng, 2, count=50)
        _spectral_batch(a, b, 1.0)  # orders 2 and 3
        a, b = random_coefficients(rng, 3, count=50)
        for gamma in (1.0, 0.0, -2.0):
            _spectral_batch(a, b, gamma)  # orders 3 and 4
        for n in (2, 3):  # orders 3 and 4
            cells = np.tile(hq.maxwellian_moments(1.0, 0.0, 1.0, 2 * n), (40, 1))
            cells[20:] = hq.maxwellian_moments(0.125, 0.3, 0.8, 2 * n)
            grid = hq.GridState(cells=cells, dx=np.full(40, 1 / 40), tau=1.0)
            hq.step(grid, hq.ClosureSpec("hyqmom", gamma=1.0), "gauss")
        assert calls[0] == 0

    def test_one_lapack_call_per_batch_from_order_five(self, rng, count_calls):
        calls = count_calls(np.linalg, "eigvalsh")
        for count, m in enumerate((5, 6, 7), start=1):
            a, b = _recurrence_row(rng, m, "U=0")
            _jacobi_batch(np.tile(a, (9, 1)), np.tile(np.sqrt(b[1:]), (9, 1)), np.ones((9, 1)))
            assert calls[0] == count

    def test_close_pairs_go_to_lapack(self, rng, count_calls):
        # only the close-pair lanes are solved again, in one call per batch,
        # and they match LAPACK on those matrices alone
        lanes = [1, 4, 6]
        batches = []
        for m, case in [(3, "close pair"), (4, "close pair"), (4, "symmetric close pairs")]:
            rows = [next(_small_order_rows(rng, m, "U=0")) for _ in range(6)]
            close = list(_small_order_rows(rng, m, case))[-3:]
            for lane, row in zip(lanes, close):
                rows.insert(lane, row)
            diag = np.array([a for a, _ in rows])
            off = np.sqrt(np.array([b[1:] for _, b in rows]))
            dense = [np.diag(diag[i]) + np.diag(off[i], 1) + np.diag(off[i], -1) for i in lanes]
            batches.append((diag, off, np.linalg.eigvalsh(np.array(dense))))
        calls = count_calls(np.linalg, "eigvalsh")
        for count, (diag, off, expected) in enumerate(batches, start=1):
            x = _jacobi_batch(diag, off)
            assert calls[0] == count
            assert np.array_equal(x[lanes], expected)


    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("spread", [1e45, 1e50, 1e51, 1e52, 1e100, 1e101, 1e103, 1e150])
    def test_large_spreads_match_lapack(self, rng, m, spread):
        # the closed forms' intermediates grow like spread^3 at m = 3 and
        # spread^6 at m = 4; the lanes that would overflow them go to LAPACK
        # quietly (pytest turns a RuntimeWarning into an error), with
        # couplings of order 1 or of the spread
        diag = rng.uniform(-spread, spread, (400, m))
        for off in (np.sqrt(rng.uniform(0.1, 10.0, (400, m - 1))),
                    spread * rng.uniform(0.1, 1.0, (400, m - 1))):
            dense = np.zeros((400, m, m))
            k = np.arange(m)
            dense[:, k, k] = diag
            dense[:, k[:-1], k[1:]] = dense[:, k[1:], k[:-1]] = off
            expected = np.linalg.eigvalsh(dense)
            x = _jacobi_batch(diag, off)
            scale = np.max(np.abs(expected), axis=1, keepdims=True)
            assert np.all(np.abs(x - expected) <= 1e-14 * scale)

    @pytest.mark.parametrize(
        "diag",
        [
            [1.7e308, 1.7e308], [1.7e308, -1.7e308], [-1.7e308, 1.6e308],
            [1.7e308] * 3, [-1.7e308, -1.7e308, 1e308],
            [1e308] * 4, [1.7e308, 1.7e308, -1e300, 1e308],
        ],
    )
    def test_entries_near_the_largest_double(self, diag):
        # the sum and difference at m = 2 and the trace at m = 3 and 4 would
        # overflow; the halved entries and LAPACK keep the eigenvalues, and
        # pytest turns an overflow warning into an error
        m = len(diag)
        dense = np.diag(diag) + np.diag([1.0] * (m - 1), 1) + np.diag([1.0] * (m - 1), -1)
        expected = np.linalg.eigvalsh(dense)
        roots = hq.jacobi_roots(diag, [1.0] * (m - 1))
        assert np.all(np.isfinite(roots))
        assert np.all(np.abs(roots - expected) <= 1e-15 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("m", [3, 4])
    def test_overflowing_trace_goes_to_lapack_alone(self, rng, m, count_calls):
        diag = rng.uniform(-1, 1, (9, m))
        off = rng.uniform(0.5, 2, (9, m - 1))
        alone = _jacobi_batch(diag, off)
        huge = [2, 7]
        diag[huge] = 1.7e308
        calls = count_calls(np.linalg, "eigvalsh")
        x = _jacobi_batch(diag, off)
        assert calls[0] == 1
        rest = np.setdiff1d(np.arange(9), huge)
        assert np.array_equal(x[rest], alone[rest])
        assert np.all(x[huge] == 1.7e308)

    def test_overflowing_quartic_in_public_api(self):
        # the closed form returned (-3.0e51, -1.9e50, -3.3e50, 3.0e51)
        roots = hq.jacobi_roots([0, 3e51, -3e51, 9e50], [1, 1, 1])
        dense = np.diag([0, 3e51, -3e51, 9e50]) + np.diag([1.0] * 3, 1) + np.diag([1.0] * 3, -1)
        assert np.array_equal(roots, np.linalg.eigvalsh(dense))


def _dense(diag, off):
    """Dense (J, m, m) Jacobi matrices of the rows diag (J, m), off (J, m-1)."""
    J, m = diag.shape
    A = np.zeros((J, m, m))
    k = np.arange(m)
    A[:, k, k] = diag
    A[:, k[:-1], k[1:]] = A[:, k[1:], k[:-1]] = off
    return A


def _near_standard_rows(rng, standard, sizes):
    """Jacobi rows (diag, off) of matrices c I + s (T_std + E), one lane
    per entry of ``sizes``: c = U and s = sqrt(theta) with theta in
    [0.1, 10] and |U| / sqrt(theta) up to 15, E tridiagonal and random
    with ||E||_inf = size * g / 8, zero in the entries that fix the frame
    (E_00 and E_01: c = a_0 and s = beta_1, as the solver's rows)."""
    beta, _, gap, _, _ = standard
    m = len(beta) + 1
    J = len(sizes)
    theta = rng.uniform(0.1, 10.0, J)
    s = np.sqrt(theta)
    c = s * rng.uniform(-15.0, 15.0, J)
    ed = rng.uniform(-1.0, 1.0, (J, m))
    eo = rng.uniform(-1.0, 1.0, (J, m - 1))
    ed[:, 0] = eo[:, 0] = 0.0
    rows = np.abs(ed)
    rows[:, :-1] += np.abs(eo)
    rows[:, 1:] += np.abs(eo)
    scale = np.asarray(sizes) * gap / 8 / rows.max(axis=1)
    diag = c[:, None] + s[:, None] * (ed * scale[:, None])
    off = s[:, None] * (beta + eo * scale[:, None])
    return diag, off


def _factor_models(m):
    """(last, model) of the order m eigensolves: the Q_m factor (also the
    gauss variant's augmented Q_{n+1}, n = m - 1) and the R_{n+1} factors,
    n = m - 1, at gamma = 1 and 0, whose last squared coupling is
    2n + gamma; ``_jacobi_batch`` builds the same model from ``last``."""
    lasts = {"Q": m - 1, "R, gamma=1": float(2 * m - 1), "R, gamma=0": float(2 * m - 2)}
    return {name: (last, _standard_spectrum((*range(1, m - 1), last)))
            for name, last in lasts.items()}


def _worst_errors(diag, off, mass, nodes, weights, mp):
    """Largest node error in units of (m+1) eps ||T||_F and largest
    relative weight error against 60-digit Golub-Welsch rules of the same
    double matrices."""
    eps, m = np.finfo(float).eps, diag.shape[1]
    worst = [0.0, 0.0]
    for j in range(len(diag)):
        ref_nodes, ref_weights = mp_golub_welsch(
            [mp.mpf(v) for v in diag[j]], [mp.mpf(v) for v in off[j]], mp.mpf(mass[j, 0]), mp,
        )
        radius = (m + 1) * eps * np.sqrt(np.sum(diag[j] ** 2) + 2 * np.sum(off[j] ** 2))
        for v, e in zip(nodes[j], ref_nodes):
            worst[0] = max(worst[0], float(abs(mp.mpf(v) - e)) / radius)
        for w, rw in zip(weights[j], ref_weights):
            worst[1] = max(worst[1], float(abs(mp.mpf(w) - rw) / rw))
    return worst


def _accepted(diag, off, standard):
    """Which lanes of the Jacobi rows (J, m) the warm path accepts alone,
    near the model ``standard``."""
    return _newton_from_standard(diag.T, off.T, (standard,), np.empty(diag.T.shape))[1][0]


def _kato_temple_edge(standard):
    """The deviation ||E||_inf, in units of g/8, at which the Kato-Temple
    bound 4 ||E||^2 / (3g) reaches eps times the spread of xi."""
    _, xi, gap, _, _ = standard
    return np.sqrt(0.75 * np.finfo(float).eps * (xi[-1] - xi[0]) * gap) / (gap / 8)


def _warm_spies(monkeypatch):
    """Lists that receive the lanes of each ``_newton_steps`` call and the
    matrices of each eigvalsh call."""
    newton, lapack = [], []
    steps, eigvalsh = hq.orthopoly._newton_steps, np.linalg.eigvalsh

    def newton_spy(y, *args):
        newton.append(y.shape[1])
        return steps(y, *args)

    def lapack_spy(A):
        lapack.append(A.shape[0])
        return eigvalsh(A)

    monkeypatch.setattr(hq.orthopoly, "_newton_steps", newton_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", lapack_spy)
    return newton, lapack


class TestWarmStart:
    """From m = 5 on, a lane whose matrix lies within g/8 of c I + s T_std
    starts from the model's spectrum moved to first order.  Kato-Temple
    certifies that guess close to the model, Newton steps that stop per
    lane certify the rest, and only the lanes neither certifies go to
    LAPACK."""

    SIZES = (1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.6, 0.9, 0.999)

    # m = 10 and 11 are the largest orders the solver warm-starts, at
    # MAX_HALF_ORDER = 10, where the Newton stop lies closest to the gap
    @pytest.mark.parametrize("m", [5, 6, 7, 8, 9, 10, 11])
    def test_high_precision_reference(self, rng, m):
        # accepted nodes within (m+1) eps ||T||_F of the eigenvalues of the
        # same double matrices at 60 digits, and Christoffel weights within
        # the 1e-12 of the cold path's Golub-Welsch test, up to the filter's
        # edge and |U| / sqrt(theta) = 15
        mpmath = pytest.importorskip("mpmath")
        worst = [0.0, 0.0]
        with mpmath.workdps(60):
            for name, (last, standard) in _factor_models(m).items():
                diag, off = _near_standard_rows(rng, standard, self.SIZES)
                mass = rng.uniform(0.5, 2.0, (len(self.SIZES), 1))
                assert np.all(_standard_deviation(diag.T, off.T, standard[0])[1] < standard[2] / 8)
                assert _accepted(diag, off, standard).all(), name
                nodes, weights = _jacobi_batch(diag, off, mass, last)
                worst = np.maximum(worst, _worst_errors(diag, off, mass, nodes, weights, mpmath.mp))
        print(f"\nm={m}: worst node error {worst[0]:.2f} x (m+1) eps ||T||_F, "
              f"worst relative weight error {worst[1]:.1e}")
        assert worst[0] <= 1.0
        assert worst[1] <= 1e-12

    @pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
    def test_kato_temple_lanes_take_no_step(self, rng, m, monkeypatch):
        # lanes from 1e-16 g up to just below the Kato-Temple bound stand as
        # their first-order guess, with neither a Newton step nor LAPACK,
        # and match 60-digit nodes and weights as the Newton lanes do; lanes
        # just above it take Newton, and a model moved by one gap accepts
        # none of them
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        newton, lapack = _warm_spies(monkeypatch)
        worst = [0.0, 0.0]
        with mpmath.workdps(60):
            for name, (last, standard) in _factor_models(m).items():
                beta, xi, gap, w, _ = standard
                edge = _kato_temple_edge(standard)
                below = _near_standard_rows(rng, standard, np.geomspace(8e-16, 0.9 * edge, 8))
                above = _near_standard_rows(rng, standard, [1.1 * edge, 2 * edge, 10 * edge])
                dev = [_standard_deviation(d.T, o.T, beta)[1] for d, o in (below, above)]
                bound = 0.75 * eps * (xi[-1] - xi[0]) * gap
                assert np.all(dev[0] ** 2 <= bound) and np.all(dev[1] ** 2 > bound), name
                mass = rng.uniform(0.5, 2.0, (8, 1))
                nodes, weights = _jacobi_batch(*below, mass, last)
                assert newton == [] and lapack == [], name
                worst = np.maximum(worst, _worst_errors(*below, mass, nodes, weights, mpmath.mp))
                _jacobi_batch(*above, None, last)
                assert newton == [3] and lapack == [], name
                moved = _model(beta, xi + gap, w)
                assert not moved[4]
                assert not _accepted(*below, moved).any()
                newton.clear()
        print(f"\nm={m}: worst node error {worst[0]:.2f} x (m+1) eps ||T||_F, "
              f"worst relative weight error {worst[1]:.1e}")
        assert worst[0] <= 1.0
        assert worst[1] <= 1e-12

    @pytest.mark.parametrize("m", [6, 7])
    def test_every_lane_as_if_alone(self, rng, m, monkeypatch):
        # one call that mixes lanes certified by Kato-Temple, by Newton
        # steps that stop after two or three steps, and lanes sent to
        # LAPACK: each comes back bitwise as a call on that lane alone
        last, standard = _factor_models(m)["R, gamma=1"]
        sizes = [1e-12, 1e-2, 0.5, 0.999, 2.0] * 4
        diag, off = _near_standard_rows(rng, standard, sizes)
        mass = rng.uniform(0.5, 2.0, (len(sizes), 1))
        accepted = []
        for steps in range(4):
            monkeypatch.setattr(hq.orthopoly, "NEWTON_STEPS", steps)
            accepted.append(_accepted(diag, off, standard))
        kinds = {
            "Kato-Temple": accepted[0],
            "two steps": accepted[2] & ~accepted[1],
            "three steps": accepted[3] & ~accepted[2],
            "LAPACK": ~accepted[3],
        }
        assert all(lanes.any() for lanes in kinds.values()), kinds
        nodes, weights = _jacobi_batch(diag, off, mass, last)
        for j in range(len(sizes)):
            alone = _jacobi_batch(diag[j : j + 1], off[j : j + 1], mass[j : j + 1], last)
            assert np.array_equal(alone[0][0], nodes[j])
            assert np.array_equal(alone[1][0], weights[j])

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_guesses_a_gap_off_are_never_accepted(self, rng, m, shift, monkeypatch):
        # the model's spectrum moved by one smallest gap: its outermost
        # window holds no eigenvalue, so no lane is accepted and every lane
        # comes back exactly as eigvalsh solves it
        for last, standard in _factor_models(m).values():
            beta, xi, gap, w, _ = standard
            moved = _model(beta, xi + shift * gap, w)
            diag, off = _near_standard_rows(rng, standard, self.SIZES)
            assert not _accepted(diag, off, moved).any()
            expected = np.linalg.eigvalsh(_dense(diag, off))
            with monkeypatch.context() as patch:
                patch.setattr(hq.orthopoly, "_standard_spectrum", lambda couplings: moved)
                assert np.array_equal(_jacobi_batch(diag, off, None, last), expected)

    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_rows_just_past_the_filter_go_to_lapack(self, rng, m):
        for last, standard in _factor_models(m).values():
            diag, off = _near_standard_rows(rng, standard, [1.001] * 6 + [2.0, 100.0])
            assert np.all(_standard_deviation(diag.T, off.T, standard[0])[1] >= standard[2] / 8)
            expected = np.linalg.eigvalsh(_dense(diag, off))
            assert np.array_equal(_jacobi_batch(diag, off, None, last), expected)
            nodes, _ = _jacobi_batch(diag, off, np.ones((len(diag), 1)), last)
            assert np.array_equal(nodes, expected)

    def test_only_rejected_lanes_go_to_lapack(self, rng, monkeypatch):
        # accepted and rejected lanes interleaved: one eigvalsh call on the
        # two rejected ones, which match LAPACK on those matrices alone
        last, standard = _factor_models(7)["R, gamma=1"]
        diag, off = _near_standard_rows(rng, standard, [1e-3, 2.0, 1e-3, 1e-3, 5.0, 1e-3])
        far = [1, 4]
        expected = np.linalg.eigvalsh(_dense(diag[far], off[far]))
        matrices = []
        original = np.linalg.eigvalsh

        def spy(A):
            matrices.append(A.shape[0])
            return original(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        x = _jacobi_batch(diag, off, None, last)
        assert matrices == [2]
        assert np.array_equal(x[far], expected)


class TestNestedSolve:
    """The Q_n Jacobi matrix is the leading block of the R_{n+1} one, and
    ``_jacobi_batch(..., nested=True)`` solves the pair in one pass: one
    filter, one Newton loop and one Christoffel pass, each factor with its
    own admission, Kato-Temple threshold, stop, windows and ascending test."""

    @staticmethod
    def factor_rows(n, gamma, a, b):
        """R_{n+1}'s Jacobi rows (J, n+1) and (J, n) of the recurrence rows
        a, b, as ``_spectral_batch`` builds them."""
        return tuple(x.T for x in _extended_jacobi_rows(a, b, gamma, (2 * n + gamma) / n))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_high_precision_reference(self, rng, n):
        # lanes from the standard state out to the R_{n+1} filter's edge, and
        # draws from the verify-hyperbolicity default ranges: both factors'
        # nodes within (m+1) eps ||T||_F of the eigenvalues of the same
        # double matrices at 60 digits, and the merged weights within 1e-12
        # of their Golub-Welsch rules
        mpmath = pytest.importorskip("mpmath")
        worst = [0.0, 0.0]
        with mpmath.workdps(60):
            for gamma in (1.0, 0.0, -0.5):
                last = float(2 * n + gamma)
                standard = _standard_spectrum((*range(1, n), last))
                near = _near_standard_rows(rng, standard, TestWarmStart.SIZES)
                assert _accepted(*near, standard).all()
                drawn = self.factor_rows(n, gamma, rng.uniform(-5.0, 5.0, (8, n)),
                                         rng.uniform(0.1, 10.0, (8, n + 1)))
                for diag, off in (near, drawn):
                    mass = rng.uniform(0.5, 2.0, (len(diag), 1))
                    nodes, weights = _jacobi_batch(diag, off, mass, last, nested=True)
                    assert np.all(np.diff(nodes, axis=1) > 0)
                    for rows, m in ((slice(0, None, 2), n + 1), (slice(1, None, 2), n)):
                        worst = np.maximum(worst, _worst_errors(
                            diag[:, :m], off[:, : m - 1], mass, nodes[:, rows], weights[:, rows],
                            mpmath.mp,
                        ))
        print(f"\nn={n}: worst node error {worst[0]:.2f} x (m+1) eps ||T||_F, "
              f"worst relative weight error {worst[1]:.1e}")
        assert worst[0] <= 1.0
        assert worst[1] <= 1e-12

    @pytest.mark.parametrize("tau", [1e-6, 1e-2, 1.0])
    def test_bitwise_two_separate_solves(self, tau):
        # the stiff n = 6 corpus grid before and after 5 steps, where about
        # 40 lanes pass one factor's filter and not the other's: the nested
        # pass gives every lane the bits of two _jacobi_batch calls, Q_6 and
        # R_7 solved apart, and _spectral_batch their merged, scaled rules
        n, gamma = 6, 1.0
        cfg = smooth_random_config(np.random.default_rng(20251019), n, tau)
        grids = [hq.run(dict(cfg, t_final=steps * cfg["dt_max"])).grid for steps in (0, 5)]
        _, a, b, _ = _realizable_pivots_batch(np.concatenate([g.cells for g in grids]))
        diag, off = self.factor_rows(n, gamma, a, b)
        last = float(2 * n + gamma)
        models = _standard_spectrum(tuple(range(1, n))), _standard_spectrum((*range(1, n), last))
        admitted = _standard_deviation(diag.T, off.T, models[1][0]) < [[m[2] / 8] for m in models]
        assert np.any(admitted[0] != admitted[1])
        q = _jacobi_batch(diag[:, :n], off[:, : n - 1], b[:, :1])
        r = _jacobi_batch(diag, off, b[:, :1], last)
        nodes, weights = _jacobi_batch(diag, off, b[:, :1], last, nested=True)
        lam, om = _spectral_batch(a, b, gamma)
        for rows, (x, w), scale in ((slice(1, None, 2), q, (n + gamma) / (2 * n + gamma)),
                                    (slice(0, None, 2), r, n / (2 * n + gamma))):
            assert np.array_equal(nodes[:, rows], x) and np.array_equal(weights[:, rows], w)
            assert np.array_equal(lam[:, rows], x) and np.array_equal(om[:, rows], scale * w)


class TestOnePolicy:
    """Every eigensolve of order m >= 5 filters its lanes against its own
    standard-normal model, whichever entry point asks for it; the nested
    pair Q_n in R_{n+1} is one eigensolve, with one filter for both."""

    ENTRY_POINTS = (
        "step eigen", "step gauss", "reconstruct_nodes eigen", "reconstruct_nodes gauss",
        "spectral_decomposition", "verify-hyperbolicity", "symmetrizer_weights",
        "gauss_quadrature",
    )

    @staticmethod
    def call(name, n, tmp_path):
        """Runs the entry point once at half order n and returns the orders
        of the Jacobi matrices it solves."""
        spec = hq.ClosureSpec("hyqmom", gamma=1.0)
        m = hq.maxwellian_moments(0.8, 0.3, 1.2, 2 * n)
        if name.startswith("step"):
            grid = hq.GridState(cells=np.tile(m, (40, 1)), dx=np.full(40, 1 / 40), tau=1.0)
            hq.step(grid, spec, name.split()[1])
        elif name.startswith("reconstruct_nodes"):
            hq.reconstruct_nodes(m, spec, name.split()[1])
        elif name == "spectral_decomposition":
            hq.spectral_decomposition(m, spec)
        elif name == "verify-hyperbolicity":
            argv = ["verify-hyperbolicity", "--n", str(n), "--samples", "50",
                    "--output-dir", str(tmp_path)]
            assert cli.main(argv) == 0
        elif name == "symmetrizer_weights":
            stability.symmetrizer_weights.__wrapped__(n)  # past the cache
        else:
            hq.gauss_quadrature(m[: 2 * n])
            return (n,)
        return (n + 1,) if name.endswith("gauss") else (n, n + 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_one_pass_per_eigensolve_of_order_five_and_more(self, name, n, tmp_path,
                                                            count_calls):
        # one filter, at most one Newton loop and one Christoffel pass, also
        # for the nested pair of the eigen variant
        filters, newton, christoffel = (count_calls(hq.orthopoly, f) for f in (
            "_standard_deviation", "_newton_steps", "_christoffel"))
        orders = self.call(name, n, tmp_path)
        assert filters[0] == (max(orders) >= 5)
        assert newton[0] <= filters[0]
        assert christoffel[0] == 1


class TestChristoffelWeights:
    CASES = ("U=0", "U=5", "near boundary")

    @pytest.mark.parametrize("case", CASES)
    def test_high_precision_golub_welsch_reference(self, rng, case):
        # the same double-precision Jacobi matrices solved at 60 digits;
        # weights read from eigh's eigenvectors were off by up to 6e-8 on
        # the near-boundary rows and 1.1e-12 at U = 5
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        worst = 0.0
        with mpmath.workdps(60):
            for m in range(1, 12):
                for _ in range(4):
                    a, b = _recurrence_row(rng, m, case)
                    off = np.sqrt(b[1:])
                    nodes, weights = _jacobi_batch(a[None, :], off[None, :], b[None, :1])
                    ref_nodes, ref_weights = mp_golub_welsch(
                        [mp.mpf(x) for x in a], [mp.mpf(x) for x in off], mp.mpf(b[0]), mp
                    )
                    for x, rx in zip(nodes[0], ref_nodes):
                        assert abs(mp.mpf(x) - rx) <= 1e-13 * max(1, abs(rx))
                    for w, rw in zip(weights[0], ref_weights):
                        worst = max(worst, float(abs(mp.mpf(w) - rw) / rw))
        print(f"\n{case}: worst relative weight error {worst:.2e}")
        assert worst <= 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_layout_independent(self, rng, case):
        # C- and F-ordered rows with the same values: identical nodes and
        # weights, (J, m) shapes
        for m in (1, 2, 3, 4, 5, 6):
            rows = [_recurrence_row(rng, m, case) for _ in range(7)]
            a = np.array([r[0] for r in rows])
            b = np.array([r[1] for r in rows])
            args = (a, np.sqrt(b[:, 1:]), b[:, :1])
            c, f = (_jacobi_batch(*(np.array(x, order=o) for x in args)) for o in ("C", "F"))
            for x, y in zip(c, f):
                assert x.shape == y.shape == (7, m)
                assert np.array_equal(x, y)
            plain = _jacobi_batch(*(np.asfortranarray(x) for x in args[:2]))
            assert np.array_equal(plain, c[0])

    @pytest.mark.parametrize("case", CASES)
    def test_gauss_rule_reproduces_moments(self, rng, case):
        # sum_i w_i x_i^k against the input M_k, summed at 60 digits and
        # scaled by sum_i |w_i x_i^k|
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        worst = 0.0
        with mpmath.workdps(60):
            for n in range(1, 11):
                for _ in range(4):
                    a, b = _recurrence_row(rng, n, case)
                    m = _moments_from_recurrence_batch(a[None, :], b[None, :], 2 * n)[0]
                    q = hq.gauss_quadrature(m)
                    for k in range(2 * n):
                        terms = [mp.mpf(w) * mp.mpf(x) ** k for w, x in zip(q.weights, q.nodes)]
                        err = abs(mp.fsum(terms) - m[k]) / mp.fsum(abs(t) for t in terms)
                        worst = max(worst, float(err))
        print(f"\n{case}: worst scaled moment residual {worst:.2e}")
        assert worst <= 1e-12


class TestInterlacing:
    def test_consecutive_polynomials_interlace(self, rng):
        for n in (2, 3, 4, 5):
            m = random_odd_moments(rng, n)[0]
            a, b = hq.moments_to_recurrence(m)
            merged = np.empty(2 * n - 1)
            merged[0::2] = hq.jacobi_roots(a[:n], b[1:n])
            merged[1::2] = hq.jacobi_roots(a[: n - 1], b[1 : n - 1])
            assert np.all(np.diff(merged) > 0)


class TestVandermondeWeights:
    def test_against_dense_solve(self, rng):
        for size in (2, 4, 7, 11):
            x = np.sort(rng.uniform(-3, 3, size))
            while np.min(np.diff(x)) < 1e-2:
                x = np.sort(rng.uniform(-3, 3, size))
            q = rng.uniform(-2, 2, size)
            V = np.vander(x, increasing=True).T
            expect = np.linalg.solve(V, q)
            got = vandermonde_weights(x, q)
            assert np.allclose(got, expect, rtol=1e-8, atol=1e-10)

    def test_known_rule(self):
        w = vandermonde_weights([-np.sqrt(3), 0, np.sqrt(3)], [1, 0, 1])
        assert np.allclose(w, [1 / 6, 2 / 3, 1 / 6])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vandermonde_weights([0.0, 1.0], [1.0])
