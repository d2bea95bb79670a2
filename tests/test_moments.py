import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import hyqmom as hq
from hyqmom.moments import (
    _gaussian_u_derivatives,
    _moments_from_recurrence_batch,
    _primitive_rows,
    _realizable_pivots_batch,
    _wheeler_batch,
)
from corpus import random_coefficients, random_odd_moments
from reference import mp_moments_from_recurrence


class TestRealizability:
    def test_standard_normal_moments_realizable(self):
        check = hq.is_strictly_realizable([1, 0, 1, 0, 3])
        assert check
        assert np.allclose(check.pivots, [1, 1, 2])

    def test_flat_even_moments_not_realizable(self):
        # oracle: leading principal minors of the Hankel matrix
        m = [1, 0, 1, 0, 1]
        H = hq.hankel_matrix(m)
        minors = [np.linalg.det(H[: k + 1, : k + 1]) for k in range(3)]
        assert min(minors) <= 0
        assert not hq.is_strictly_realizable(m)

    def test_zero_variance_not_realizable(self):
        check = hq.is_strictly_realizable([1, 1, 1])
        assert not check
        assert check.failing_index == 1

    def test_even_length_ignores_last_moment(self):
        # H_{n-1} only involves M_0..M_{2n-2}
        assert hq.is_strictly_realizable([1, 0, 1, -123.0])
        assert hq.is_strictly_realizable([1, 0, 1, 123.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hq.is_strictly_realizable([1.0, np.nan, 1.0])
        with pytest.raises(ValueError):
            hq.is_strictly_realizable([1.0, np.inf, 1.0])

    def test_scale_invariance(self, rng):
        m = random_odd_moments(rng, 3)[0]
        for c in (1e-8, 1.0, 1e8):
            assert hq.is_strictly_realizable(c * m)

    def test_cone_property(self, rng):
        # positive combinations of realizable vectors stay realizable
        for _ in range(50):
            m1 = random_odd_moments(rng, 3)[0]
            m2 = random_odd_moments(rng, 3)[0]
            al, be = rng.uniform(0.1, 5, 2)
            assert hq.is_strictly_realizable(al * m1 + be * m2)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            hq.is_strictly_realizable(np.ones(25))


class TestBatchLayout:
    """C- and F-ordered rows with the same values give identical results
    with unchanged (J, .) shapes."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("length", [1, 2, 5, 6, 13])
    def test_wheeler_batch(self, rng, dtype, length):
        M = random_odd_moments(rng, 6, count=9)[:, :length].astype(dtype)
        if dtype is complex:
            M = M + 1e-20j * rng.standard_normal(M.shape)  # a derivative probe
        n = (length - 1) // 2 if length % 2 else length // 2
        n_b = n + 1 if length % 2 else n
        outs = [_wheeler_batch(np.array(M, order=o)) for o in ("C", "F")]
        for c, f, cols in zip(*outs, (n, n_b, n_b)):
            assert c.shape == f.shape == (9, cols)
            assert c.dtype == f.dtype == M.dtype
            assert np.array_equal(c, f)

    def test_realizable_pivots_batch(self, rng):
        M = random_odd_moments(rng, 3, count=8)
        M[2, 2] = -1.0  # not realizable
        M[5, 4] = np.nan  # not finite
        outs = [_realizable_pivots_batch(np.array(M, order=o)) for o in ("C", "F")]
        assert list(outs[0][0]) == list(outs[1][0]) == [1, 1, 0, 1, 1, 0, 1, 1]
        for c, f, cols in zip(outs[0][1:], outs[1][1:], (3, 4, 4)):
            assert c.shape == f.shape == (8, cols)
            assert np.array_equal(c, f, equal_nan=True)


    @pytest.mark.parametrize("length", [1, 2, 5, 8, 9, 21])
    def test_moments_from_recurrence_batch(self, rng, length):
        # bitwise equal for both layouts, and within 1e-14 of a 60-digit
        # build, relative to the same build on |a| (no cancellation)
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        n = length // 2
        a, b = random_coefficients(rng, max(n, 1), count=9)
        outs = [
            _moments_from_recurrence_batch(np.array(a, order=o), np.array(b, order=o), length)
            for o in ("C", "F")
        ]
        assert outs[0].shape == outs[1].shape == (9, length)
        assert np.array_equal(*outs)
        with mpmath.workdps(60):
            for j in range(9):
                aj, bj = [mp.mpf(x) for x in a[j]], [mp.mpf(x) for x in b[j]]
                exact = mp_moments_from_recurrence(aj, bj, length)
                scale = mp_moments_from_recurrence([abs(x) for x in aj], bj, length)
                for got, e, s in zip(outs[0][j], exact, scale):
                    assert abs(mp.mpf(got) - e) <= 1e-14 * s


def _batch_inputs(rng, dtype, length, count=11):
    """Moment rows with the given length as a C- and an F-ordered (J, L)
    array and as a block of columns of an order-major (L, J) buffer, with a
    row that is not realizable and one that is not finite."""
    M = random_odd_moments(rng, 10, count=count)[:, :length].astype(dtype)
    if dtype is complex:
        M = M + 1e-20j * rng.standard_normal(M.shape)  # a derivative probe
    if length > 2:
        M[3, 2] = -abs(M[3, 2])
    M[7, -1] = np.nan
    buffer = np.zeros((length, count + 5), dtype=dtype)
    buffer[:, 2 : 2 + count] = M.T
    return {
        "C": np.array(M, order="C"),
        "F": np.array(M, order="F"),
        "block": buffer[:, 2 : 2 + count].T,
    }


def _order_major_out(J, *rows, dtype=float):
    """Order-major (rows, J) outputs as the columns of wider buffers, the way
    the solver hands a block of its gate to the kernels."""
    return [np.full((k, J + 3), np.inf, dtype=dtype)[:, 1 : 1 + J] for k in rows]


class TestOutArguments:
    """With ``out=``, the Wheeler kernels write into the caller's arrays and
    return views of them, with values bitwise those of the allocating
    call."""

    @pytest.mark.parametrize("layout", ["C", "F", "block"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("length", range(2, 22))
    def test_wheeler_batch(self, rng, dtype, length, layout):
        M = _batch_inputs(rng, dtype, length)[layout]
        J = M.shape[0]
        n = (length - 1) // 2 if length % 2 else length // 2
        n_b = n + 1 if length % 2 else n
        expected = _wheeler_batch(M)
        out = _order_major_out(J, n, n_b, n_b, dtype=dtype)
        got = _wheeler_batch(M, out=out)
        for mine, theirs, buffer in zip(got, expected, out):
            assert np.shares_memory(mine, buffer)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert np.array_equal(mine, theirs, equal_nan=True)
            assert np.array_equal(buffer.T, theirs, equal_nan=True)

    @pytest.mark.parametrize("layout", ["C", "F", "block"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("length", range(2, 22))
    def test_realizable_pivots_batch(self, rng, dtype, length, layout):
        M = _batch_inputs(rng, dtype, length)[layout]
        J = M.shape[0]
        n = (length - 1) // 2 if length % 2 else length // 2
        n_b = n + 1 if length % 2 else n
        expected = _realizable_pivots_batch(M)
        ok = np.ones(J + 2, dtype=bool)[1:-1]
        a, b = _order_major_out(J, n, n_b, dtype=dtype)
        got = _realizable_pivots_batch(M, out=(ok, a, b))
        assert got[0] is ok and np.shares_memory(got[1], a) and np.shares_memory(got[2], b)
        assert not ok[7] and not (length > 2 and ok[3])
        for mine, theirs in zip(got, expected):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert np.array_equal(mine, theirs, equal_nan=True)

    @pytest.mark.parametrize("layout", ["C", "F", "block"])
    def test_primitive_rows(self, rng, layout):
        # U = M_1/rho and theta = M_2/rho - U^2 as written, into the rows of
        # out or allocated
        M = np.abs(_batch_inputs(rng, float, 5)[layout])
        U = M[:, 1] / M[:, 0]
        expected = M[:, 0], U, M[:, 2] / M[:, 0] - U**2
        out = np.empty((3, M.shape[0] + 4))[:, 2:-2]
        for rows in (None, out):
            got = _primitive_rows(M, out=rows)
            for mine, theirs in zip(got, expected):
                assert np.array_equal(mine, theirs, equal_nan=True)
        assert np.shares_memory(got[1], out[0]) and np.shares_memory(got[2], out[1])
        state = _primitive_rows(M[0])
        assert [float(x) for x in state] == [float(x[0]) for x in expected]

    def test_pivot_block_allocates_only_its_rows(self):
        # one solver block through the out= kernels allocates the two
        # rolling tables of mixed moments, one scratch table and the
        # pivots, besides numpy's iterator buffers (np.getbufsize() values
        # each, two at most at a time) for the rows of a wider buffer; the
        # bool rows of the mask come after the tables are freed
        J, L, B = 5000, 13, 1000
        cells = np.tile(hq.maxwellian_moments(1.0, 0.2, 1.0, L - 1), (J, 1)).T.copy()
        ok = np.empty(J, dtype=bool)
        a, b = np.empty((L // 2, J)), np.empty((L // 2 + 1, J))
        blk = slice(2000, 2000 + B)
        rows, out = cells[:, blk].T, (ok[blk], a[:, blk], b[:, blk])
        _realizable_pivots_batch(rows, out=out)  # warm numpy's caches
        tracemalloc.start()
        try:
            _realizable_pivots_batch(rows, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = 3 * 8 * L * B
        pivots = 8 * (L // 2 + 1) * B
        buffers = 2 * 8 * np.getbufsize()
        # measured: 130552 bytes over the tables and the pivots
        assert peak <= tables + pivots + buffers + 1024
        assert ok[blk].all()


class TestGaussianMoments:
    def test_standard_fourth_moment(self):
        assert hq.gaussian_moments(4, 0, 1)[..., 4] == 3.0

    def test_third_moment_symbolic(self, rng):
        # oracle: symbolic expansion of int xi^3 phi(xi - U) dxi
        for _ in range(10):
            U = rng.uniform(-3, 3)
            th = rng.uniform(0.1, 4)
            assert hq.gaussian_moments(3, U, th)[..., 3] == pytest.approx(U**3 + 3 * U * th)

    def test_quadrature_spot_check(self):
        U, th = 0.7, 1.3
        for k in range(6):
            val, _ = quad(
                lambda x: x**k * np.exp(-((x - U) ** 2) / (2 * th)) / np.sqrt(2 * np.pi * th),
                -30,
                30,
            )
            assert hq.gaussian_moments(k, U, th)[..., k] == pytest.approx(val, rel=1e-9)

    def test_normalization(self):
        assert hq.gaussian_moments(0, 2, 5)[..., 0] == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hq.gaussian_moments(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            hq.gaussian_moments(2, 0.0, -1.0)

    def test_nan_refused(self):
        # theta <= 0 and rho <= 0 are False for NaN, which came back as rows
        # of NaN moments
        for theta in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="theta must be positive"):
                hq.gaussian_moments(4, 0.0, theta)
        with pytest.raises(ValueError, match="rho must be positive"):
            hq.maxwellian_moments(math.nan, 0.0, 1.0, 4)
        with pytest.raises(ValueError, match="theta must be positive"):
            hq.maxwellian_moments(1.0, 0.0, math.nan, 4)

    @pytest.mark.parametrize(
        "U, theta",
        [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf),
         (np.array([0.0, math.nan]), 1.0), (0.0, np.array([1.0, math.inf]))],
    )
    def test_non_finite_mean_or_temperature_refused(self, U, theta):
        # gaussian_moments(4, nan, 1.0) returned [1, nan, nan, nan, nan]
        what = "theta" if np.any(np.isinf(theta)) else "U"
        with pytest.raises(ValueError, match=f"{what} must be"):
            hq.gaussian_moments(4, U, theta)
        with pytest.raises(ValueError, match=f"{what} must be"):
            hq.maxwellian_moments(1.0, U, theta, 4)

    def test_infinite_density_refused(self):
        # maxwellian_moments(inf, 0.0, 1.0, 2) returned [inf, nan, inf]
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            hq.maxwellian_moments(math.inf, 0.0, 1.0, 2)

    def test_vector_broadcast(self):
        out = hq.gaussian_moments(4, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert out.shape == (2, 5)
        assert out[0, 4] == 3.0

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 20])
    @pytest.mark.parametrize(
        "shapes", [((), ()), ((6,), (6,)), ((), (6,)), ((3, 1), (4,)), ((4,), ())]
    )
    def test_bitwise_textbook_recurrence(self, rng, order, shapes):
        # Delta_{k+1} = U Delta_k + k theta Delta_{k-1}, evaluated as written;
        # 0-d U and theta are demo 01's call
        U = rng.uniform(-3, 3, shapes[0])
        theta = rng.uniform(0.1, 4, shapes[1])
        shape = np.broadcast_shapes(U.shape, theta.shape)
        rows = [np.ones(shape), np.broadcast_to(U, shape)]
        for k in range(1, order):
            rows.append(U * rows[k] + k * theta * rows[k - 1])
        expected = np.stack(rows[: order + 1], axis=-1)
        got = hq.gaussian_moments(order, U, theta)
        assert got.shape == shape + (order + 1,)
        assert np.array_equal(got, expected)


class TestGaussianMomentDerivative:
    def test_odd_values_vanish_at_center(self):
        assert _gaussian_u_derivatives(2, 0, 1, 1)[1, 2] == 0.0
        assert _gaussian_u_derivatives(3, 0, 1, 2)[2, 3] == 0.0

    def test_second_derivative_of_fourth(self):
        # oracle: central finite difference of the moment in U
        h = 1e-4
        delta = hq.gaussian_moments(4, np.array([h, 0.0, -h]), 1)[:, 4]
        fd = (delta[0] - 2 * delta[1] + delta[2]) / h**2
        val = _gaussian_u_derivatives(4, 0, 1, 2)[2, 4]
        assert val == 12.0
        assert fd == pytest.approx(val, abs=1e-4)

    def test_matches_central_differences(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 8))
            U = rng.uniform(-2, 2)
            th = rng.uniform(0.2, 3)
            h = 1e-5 * max(1.0, abs(U))
            delta = hq.gaussian_moments(k, np.array([U + h, U - h]), th)[:, k]
            fd = (delta[0] - delta[1]) / (2 * h)
            val = _gaussian_u_derivatives(k, U, th, 1)[1, k]
            assert fd == pytest.approx(val, rel=1e-7, abs=1e-7)

    def test_above_order_returns_zero(self):
        assert _gaussian_u_derivatives(2, 0.3, 1.2, 5)[5, 2] == 0.0


class TestAffineTransform:
    def test_unit_gaussian_shift_scale(self, rng):
        u, s = rng.uniform(-3, 3), rng.uniform(0.2, 3)
        out = hq.affine_transform([1, 0, 1], u, s)
        assert np.allclose(out, [1, u, s**2 + u**2])

    def test_identity(self, rng):
        m = random_odd_moments(rng, 2)[0]
        assert np.array_equal(hq.affine_transform(m, 0.0, 1.0), m)

    def test_pure_scaling(self):
        # oracle: direct binomial sum with u = 0 reduces to sigma^k M_k
        m = np.array([1.0, 0.0, 1.0, 0.0, 3.0])
        expected = [2.0**k * m[k] for k in range(5)]
        assert np.allclose(hq.affine_transform(m, 0.0, 2.0), expected)
        assert np.allclose(expected, [1, 0, 4, 0, 48])

    def test_binomial_sum_oracle(self, rng):
        m = random_odd_moments(rng, 3)[0]
        u, s = 1.3, 0.7
        out = hq.affine_transform(m, u, s)
        for k in range(len(m)):
            acc = sum(math.comb(k, j) * s**j * m[j] * u ** (k - j) for j in range(k + 1))
            assert out[k] == pytest.approx(acc, rel=1e-14)

    def test_group_law(self, rng):
        m = random_odd_moments(rng, 3)[0]
        u1, s1, u2, s2 = 0.5, 1.2, -1.1, 0.6
        once = hq.affine_transform(hq.affine_transform(m, u1, s1), u2, s2)
        composed = hq.affine_transform(m, u2 + s2 * u1, s2 * s1)
        assert np.allclose(once, composed, rtol=1e-13)

    def test_inverse(self, rng):
        m = random_odd_moments(rng, 3)[0]
        u, s = 0.9, 1.7
        back = hq.affine_transform(hq.affine_transform(m, u, s), -u / s, 1 / s)
        assert np.allclose(back, m, rtol=1e-12)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            hq.affine_transform([1, 0, 1], 0.0, 0.0)

    @pytest.mark.parametrize("u, sigma", [
        (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
    ])
    def test_non_finite_refused(self, u, sigma):
        # sigma <= 0 is False for NaN, which gave NaN moments
        with pytest.raises(ValueError, match="finite u and a finite sigma > 0"):
            hq.affine_transform([1, 0, 1], u, sigma)


class TestMomentsToRecurrence:
    def test_standard_normal(self):
        a, b = hq.moments_to_recurrence([1, 0, 1, 0, 3])
        assert np.allclose(a, [0, 0])
        assert np.allclose(b, [1, 1, 2])

    def test_three_moment_state(self):
        # oracle: Gram-Schmidt on {1, X}: Q_1 = X - U, <Q_1^2> = rho*theta
        rho, U, th = 2.5, -0.7, 1.9
        m = [rho, rho * U, rho * (U**2 + th)]
        a, b = hq.moments_to_recurrence(m)
        q1_sq = m[2] - 2 * U * m[1] + U**2 * m[0]
        assert np.allclose(a, [U])
        assert np.allclose(b, [rho, q1_sq / rho])
        assert q1_sq / rho == pytest.approx(th)

    def test_homogeneity(self):
        a1, b1 = hq.moments_to_recurrence([1, 0, 1, 0, 3])
        a2, b2 = hq.moments_to_recurrence([2, 0, 2, 0, 6])
        assert np.allclose(a2, a1)
        assert np.allclose(b2, [2, 1, 2])
        assert b2[0] == 2 * b1[0]

    def test_failure_carries_pivot_index(self):
        with pytest.raises(hq.NotRealizableError) as exc:
            hq.moments_to_recurrence([1, 0, 1, 0, 1])
        assert exc.value.pivot_index == 2

    def test_even_length(self):
        a, b = hq.moments_to_recurrence([1, 0, 1, 0])
        assert len(a) == 2 and len(b) == 2
        assert np.allclose(a, [0, 0]) and np.allclose(b, [1, 1])

    def test_maxwellian_coefficients(self, rng):
        # recurrence of rho * Delta_k(U, theta): a_k = U, b_0 = rho, b_k = k theta
        rho, U, th = 1.7, 0.8, 2.3
        m = hq.maxwellian_moments(rho, U, th, 8)
        a, b = hq.moments_to_recurrence(m)
        assert np.allclose(a, U, rtol=1e-10)
        assert np.allclose(b, [rho] + [k * th for k in range(1, 5)], rtol=1e-9)


class TestRecurrenceToMoments:
    def test_standard_normal_inverse(self):
        m = hq.recurrence_to_moments(([0, 0], [1, 1, 2]), 5)
        assert np.allclose(m, [1, 0, 1, 0, 3])

    def test_state_moments(self):
        rho, U, th = 2.0, 1.5, 0.7
        m = hq.recurrence_to_moments(([U], [rho, th]), 3)
        assert np.allclose(m, [rho, rho * U, rho * U**2 + rho * th])

    def test_round_trip_well_conditioned(self, rng):
        # 1000 random draws at modest order: identity to 1e-10 relative
        for n in (1, 2, 3):
            a, b = random_coefficients(rng, n, count=340)
            for i in range(a.shape[0]):
                m = hq.recurrence_to_moments((a[i], b[i]), 2 * n + 1)
                a2, b2 = hq.moments_to_recurrence(m)
                scale = max(np.max(np.abs(a[i])), np.sqrt(np.max(b[i])))
                assert np.max(np.abs(a2 - a[i])) < 1e-10 * scale
                assert np.max(np.abs(b2 - b[i]) / b[i]) < 1e-10

    def test_round_trip_condition_aware(self, rng):
        # At higher order the raw-moment bijection loses digits in proportion
        # to the reported cancellation estimate; the error stays within a
        # small multiple of eps * condition_estimate, and the well-conditioned
        # bulk still round-trips to 1e-10.
        eps = np.finfo(float).eps
        for n in (4, 5, 6):
            errs = []
            for _ in range(200):
                a, b = random_coefficients(rng, n)
                a, b = a[0], b[0]
                m = hq.recurrence_to_moments((a, b), 2 * n + 1)
                check = hq.is_strictly_realizable(m)
                a2, b2 = hq.moments_to_recurrence(m)
                scale = max(np.max(np.abs(a)), np.sqrt(np.max(b)))
                err = max(
                    np.max(np.abs(a2 - a)) / scale, np.max(np.abs(b2 - b) / b)
                )
                errs.append(err)
                assert err < 64 * eps * max(check.condition_estimate, 1.0)
            assert np.median(errs) < 1e-10

    def test_round_trip_moment_side(self, rng):
        for n in (1, 2, 3, 4):
            m = random_odd_moments(rng, n)[0]
            rc = hq.moments_to_recurrence(m)
            m2 = hq.recurrence_to_moments(rc, len(m))
            assert np.allclose(m2, m, rtol=1e-9)

    def test_insufficient_coefficients(self):
        with pytest.raises(ValueError, match="coefficients"):
            hq.recurrence_to_moments(([0.0], [1.0]), 5)

    def test_nonpositive_b_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            hq.recurrence_to_moments(([0.0, 0.0], [1.0, -1.0, 2.0]), 5)

    @pytest.mark.parametrize(
        "a, b",
        [([np.nan], [1.0, 1.0]), ([0.0], [1.0, np.nan]), ([np.inf], [1.0, 1.0])],
        ids=["nan a", "nan b", "inf a"],
    )
    def test_non_finite_refused(self, a, b):
        # a NaN coupling passes the positivity check
        with pytest.raises(ValueError, match="finite"):
            hq.recurrence_to_moments((a, b), 3)


class TestEquilibriumState:
    def test_bijection_with_low_moments(self):
        st = hq.EquilibriumState(rho=2.0, U=-1.0, theta=3.0)
        m = st.moments(2)
        back = hq.EquilibriumState.from_moments(m)
        assert back == st

    def test_validation(self):
        with pytest.raises(ValueError):
            hq.EquilibriumState(rho=0.0, U=0.0, theta=1.0)
        with pytest.raises(ValueError):
            hq.EquilibriumState(rho=1.0, U=0.0, theta=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["rho", "U", "theta"])
    def test_non_finite_entries_refused(self, name, value):
        entries = dict(rho=2.0, U=-1.0, theta=3.0)
        with pytest.raises(ValueError, match="must be finite"):
            hq.EquilibriumState(**dict(entries, **{name: value}))
        with pytest.raises(ValueError, match="must be finite"):
            hq.EquilibriumState(**dict(entries, **{name: np.float64(value)}))
        state = hq.EquilibriumState(**{k: np.float64(v) for k, v in entries.items()})
        assert state.moments(2).tolist() == [2.0, -2.0, 8.0]

    def test_moment_vector(self):
        st = hq.EquilibriumState(rho=2.0, U=0.0, theta=1.0)
        assert np.allclose(st.moments(4), [2, 0, 2, 0, 6])
