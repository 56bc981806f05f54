import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats
from scipy.integrate import dblquad

from dirquant import (
    DegenerateModelError,
    InvalidDirectionError,
    InversionError,
    TParams,
    UnsupportedDimensionError,
    asymptotic_quantile,
    diagonal_direction,
    fpc_direction,
    quantile_point,
    relative_error,
    rotate_elliptical,
    rotation_for,
    sample_t,
    t_cdf,
    t_stdf,
    theoretical_norm_sequences,
    theoretical_rho,
)
from dirquant import tmodel
from dirquant.evt import TailFit, gamma_moment
from dirquant.quantile import theta_grid
from dirquant.tmodel import _sqrtm_spd, _t2_cdf

SQ2 = math.sqrt(2.0) / 2.0
SIGMA_3D = np.array([[5.0, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]])


def quad_t2_cdf(x1, x2, r, nu):
    """Reference bivariate t distribution function by adaptive quadrature.

    Integrates the univariate t density times the conditional t
    distribution function of the second coordinate, split at the kink
    x2 / r. Each integral stays on one side of 0: for x1 > 0 the value is
    T(x2) minus the integral over [x1, inf), since a range from 0 to a
    large x1 holds nearly all the mass in a narrow part of a long
    interval, where quad misses it.
    """
    if x1 == -math.inf or x2 == -math.inf:
        return 0.0
    if x1 == math.inf:
        return float(special.stdtr(nu, x2))
    if x2 == math.inf:
        return float(special.stdtr(nu, x1))
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)
    scale = (nu + 1.0) / (1.0 - r * r)

    def integrand(s):
        density = math.exp(log_c - (nu + 1.0) / 2.0 * math.log1p(s * s / nu))
        arg = (x2 - r * s) * math.sqrt(scale / (nu + s * s))
        return density * special.stdtr(nu + 1.0, arg)

    kink = {x2 / r} if r else set()
    if x1 <= 0.0:
        edges = [-math.inf, *sorted(c for c in kink if c < x1), x1]
        sign, total = 1.0, 0.0
    else:
        edges = [x1, *sorted(c for c in kink if c > x1), math.inf]
        sign, total = -1.0, float(special.stdtr(nu, x2))
    for lo, hi in zip(edges[:-1], edges[1:]):
        value, _ = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        total += sign * value
    return total


class TestTParams:
    def test_requires_symmetry(self):
        with pytest.raises(DegenerateModelError):
            TParams(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 3.0)

    def test_requires_spd(self):
        with pytest.raises(DegenerateModelError):
            TParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 3.0)

    @pytest.mark.parametrize("mu, sigma, nu, message", [
        ([0.0, math.nan], np.eye(2), 3.0, "mu component 2 is not finite (value nan)"),
        ([0.0, 0.0], [[1.0, -math.inf], [-math.inf, 1.0]], 3.0,
         "sigma component 2 is not finite (value -inf)"),
        ([0.0, 0.0], np.eye(2), math.nan, "nu is not finite (value nan)"),
    ])
    def test_rejects_non_finite_parameters(self, mu, sigma, nu, message):
        with pytest.raises(DegenerateModelError) as exc:
            TParams(mu, sigma, nu)
        assert str(exc.value) == message

    def test_gamma_is_reciprocal_nu(self, params_2d):
        assert params_2d.gamma == pytest.approx(1.0 / 3.0)


class TestSampleT:
    def test_reproducible(self, params_2d):
        x1 = sample_t(params_2d, 100, 42)
        x2 = sample_t(params_2d, 100, 42)
        assert np.array_equal(x1, x2)

    def test_gaussian_limit_covariance(self):
        params = TParams(np.zeros(2), np.array([[2.0, 0.6], [0.6, 1.0]]), 1e6)
        x = sample_t(params, 100_000, 5)
        assert np.abs(np.cov(x.T) - params.sigma).max() < 0.05

    def test_mean_recovers_location(self):
        params = TParams(np.array([1.5, -2.0]), np.eye(2), 4.0)
        x = sample_t(params, 100_000, 6)
        assert np.abs(x.mean(axis=0) - params.mu).max() < 0.05

    def test_marginal_tail_index(self, params_2d):
        x = sample_t(params_2d, 100_000, 7)
        g = gamma_moment(np.sort(x[:, 0]), 2000)
        assert abs(g - 1.0 / 3.0) < 0.08

    def test_empirical_correlation(self, params_2d):
        x = sample_t(params_2d, 100_000, 8)
        implied = params_2d.correlation()[0, 1]
        # correlation of a t with nu=3 is the scale correlation
        got = np.corrcoef(x.T)[0, 1]
        assert abs(got - implied) < 0.02


class TestRotateElliptical:
    def test_identity(self, params_2d):
        r = rotation_for(diagonal_direction(2))
        rp = rotate_elliptical(params_2d, r)
        assert np.array_equal(rp.sigma, params_2d.sigma)
        assert rp.nu == params_2d.nu

    def test_fpc_rotated_scale_matches_reported_model(self, params_2d):
        # rotating the 2D model into its principal direction gives
        # scale close to [[3.0001, 2.0025], [2.0025, 2.9999]]
        u = fpc_direction(params_2d.sigma)
        rp = rotate_elliptical(params_2d, rotation_for(u))
        expected = np.array([[3.0001, 2.0025], [2.0025, 2.9999]])
        assert np.abs(rp.sigma - expected).max() < 1e-3

    def test_trace_and_eigenvalues_preserved(self, params_3d):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(3)
        u = diagonal_direction(3) if np.abs(v).min() < 0.05 else None
        from dirquant import Direction

        u = Direction.from_vector(v) if u is None else u
        rp = rotate_elliptical(params_3d, rotation_for(u))
        assert abs(np.trace(rp.sigma) - np.trace(params_3d.sigma)) < 1e-10
        assert np.abs(
            np.linalg.eigvalsh(rp.sigma) - np.linalg.eigvalsh(params_3d.sigma)
        ).max() < 1e-10

    def test_symmetric_root_conjugation(self, params_2d):
        # the spectral square root commutes with orthogonal conjugation
        u = fpc_direction(params_2d.sigma)
        q = rotation_for(u).entries
        lhs = _sqrtm_spd(q @ params_2d.sigma @ q.T)
        rhs = q @ _sqrtm_spd(params_2d.sigma) @ q.T
        assert np.abs(lhs - rhs).max() < 1e-10


class TestFpcDirection:
    def test_2d_reported_value(self, params_2d):
        u = fpc_direction(params_2d.sigma)
        assert np.abs(u.components - np.array([0.9997, 0.025])).max() < 1e-3

    def test_3d_reported_value(self, params_3d):
        u = fpc_direction(params_3d.sigma)
        expected = np.array([0.8417, 0.4202, -0.3392])
        assert np.abs(u.components - expected).max() < 1e-3

    def test_axis_eigenvector_rejected(self):
        with pytest.raises(InvalidDirectionError):
            fpc_direction(np.diag([4.0, 1.0]))

    def test_eigenvalue_tie_rejected(self):
        with pytest.raises(DegenerateModelError):
            fpc_direction(np.eye(3))

    def test_eigenvalue_tie_message_prints_plain_floats(self):
        # the same text under numpy 1 and numpy 2, which prints np.float64(1.0)
        with pytest.raises(DegenerateModelError,
                           match=r"^leading eigenvalues tie \(1\.0 vs 1\.0\);"):
            fpc_direction(np.eye(2))


class TestTCdf:
    def test_univariate_symmetry_at_zero(self):
        assert t_cdf([0.0], [[1.0]], 4.0) == pytest.approx(0.5, abs=1e-15)

    def test_univariate_against_reference(self):
        # scipy's t distribution as an independent oracle
        assert t_cdf([2.0], [[1.0]], 4.0) == pytest.approx(
            stats.t.cdf(2.0, 4), abs=1e-12
        )
        assert t_cdf([2.0], [[1.0]], 4.0) == pytest.approx(0.9419, abs=1e-4)

    def test_bivariate_orthant_identity(self):
        # P(X <= 0, Y <= 0) = 1/4 + arcsin(r)/(2 pi) for any elliptical pair
        for r in (-0.7, 0.0, 0.3, 0.6):
            got = t_cdf([0.0, 0.0], [[1.0, r], [r, 1.0]], 5.0)
            want = 0.25 + math.asin(r) / (2.0 * math.pi)
            assert got == pytest.approx(want, abs=1e-8)

    def test_bivariate_against_density_quadrature(self):
        def density(x, y, r, nu):
            det = 1 - r * r
            q = (x * x - 2 * r * x * y + y * y) / det
            return math.exp(
                math.lgamma((nu + 2) / 2) - math.lgamma(nu / 2)
                - math.log(nu * math.pi) - 0.5 * math.log(det)
                - (nu + 2) / 2 * math.log1p(q / nu)
            )

        for (x1, x2, r, nu) in [(0.5, 1.2, 0.3, 4.0), (2.0, -0.7, -0.5, 3.0)]:
            got = t_cdf([x1, x2], [[1.0, r], [r, 1.0]], nu)
            want, _ = dblquad(lambda y, x: density(x, y, r, nu),
                              -60, x1, -60, x2, epsabs=1e-7)
            assert got == pytest.approx(want, abs=2e-5)

    def test_zero_correlation_factorizes_at_special_points(self):
        # uncorrelated t pairs are not independent, but the product form
        # holds exactly at the median and on marginal limits
        assert t_cdf([0.0, 0.0], np.eye(2), 4.0) == pytest.approx(0.25, abs=1e-7)
        assert t_cdf([np.inf, 1.3], np.eye(2), 4.0) == pytest.approx(
            stats.t.cdf(1.3, 4), abs=1e-7
        )

    def test_bivariate_symmetry_in_arguments(self):
        corr = [[1.0, 0.4], [0.4, 1.0]]
        assert t_cdf([0.7, -0.2], corr, 6.0) == pytest.approx(
            t_cdf([-0.2, 0.7], corr, 6.0), abs=1e-9
        )

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            t_cdf([0.0, 0.0, 0.0], np.eye(3), 4.0)


class TestBivariateKernel:
    NUS = (0.7, 1.0, 2.0, 3.0, 4.0, 7.5, 30.0)
    RS = (-0.99, -0.6, 0.0, 0.45, 0.99)
    X1S = (-1e3, -6.0, -0.5, 0.0, 0.8, 3.0, 1e3)
    X2S = (-1e3, -2.0, 0.3, 4.0, 1e3)
    INFINITE = ((-np.inf, 1.0), (1.0, -np.inf), (np.inf, -2.0), (0.5, np.inf),
                (np.inf, np.inf))

    # quad reports roundoff on values near 1e-12 (x2 = -1e3 at nu = 4)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("nu", NUS)
    def test_matches_quad_reference(self, nu):
        pairs = [(x1, x2) for x1 in self.X1S for x2 in self.X2S] + list(self.INFINITE)
        x1, x2, r = (np.array(v) for v in zip(*[(a, b, r) for r in self.RS
                                                for a, b in pairs]))
        got = _t2_cdf(x1, x2, r, nu)
        want = np.array([quad_t2_cdf(*args, nu) for args in zip(x1, x2, r)])
        assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("nu", (1.0, 4.0, 5.0))
    def test_large_first_argument(self, nu):
        # the mass sits near 0, far inside a range that reaches past 200
        for x1 in (200.0, 300.0, 425.0):
            for x2 in (-3.0, 0.0, 4.725, 50.0):
                for r in (-0.88, 0.0, 0.6):
                    got = t_cdf([x1, x2], [[1.0, r], [r, 1.0]], nu)
                    assert got == pytest.approx(quad_t2_cdf(x1, x2, r, nu), abs=1e-10)

    def test_large_first_argument_hand_value(self):
        got = t_cdf([424.9, 4.725], [[1.0, -0.88], [-0.88, 1.0]], 4.0)
        assert got == pytest.approx(0.99543, abs=1e-5)

    def test_broadcasting_and_scalar_arguments(self):
        x1 = np.array([[-1.0, 0.5], [2.0, np.inf]])
        got = _t2_cdf(x1, 0.3, np.array([0.2, -0.4]), 3.0)
        assert got.shape == (2, 2)
        for i, j in np.ndindex(2, 2):
            one = _t2_cdf(x1[i, j], 0.3, [0.2, -0.4][j], 3.0)
            assert one.shape == ()
            assert one == got[i, j]

    def test_nan_propagates(self):
        assert np.isnan(_t2_cdf(np.nan, 1.0, 0.5, 3.0))
        assert np.isnan(_t2_cdf(1.0, np.nan, 0.5, 3.0))

    @pytest.mark.parametrize("nu", range(1, 31))
    def test_closed_form_matches_quadrature(self, nu):
        xs = (-1e3, -20.0, -2.5, -0.3, 0.0, 0.8, 4.0, 1e3)
        x1, x2, r = (g.ravel() for g in np.meshgrid(xs, xs, self.RS + (-0.146, 0.8),
                                                     indexing="ij"))
        # both sign ties, x1 = r x2 and x2 = r x1, where sign(0) = +1 decides
        x1, x2, r = (np.concatenate(v) for v in ((x1, r * x2, x1), (x2, x2, r * x1), (r, r, r)))
        got = tmodel._t2_cdf_closed(x1, x2, r, nu)
        want = tmodel._t2_cdf_block(x1, x2, r, float(nu))
        # at df 1 the quadrature itself is off by up to 1.5e-13 where |x| = 1e3
        # and |r| = 0.99; test_against_high_precision_integral holds the
        # closed form to 1e-13 there
        assert np.abs(got - want).max() <= (1e-14 if nu > 1 else 2e-13)

    @pytest.mark.parametrize("nu, kernel", [
        (1.0, "closed"), (4.0, "closed"), (5, "closed"),
        (tmodel._CLOSED_FORM_MAX_DF, "closed"), (2.5, "quadrature"), (7.5, "quadrature"),
        (tmodel._CLOSED_FORM_MAX_DF + 1.0, "quadrature")])
    def test_integer_df_takes_closed_form(self, nu, kernel, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"df {nu} reached the wrong kernel")

        other = "_t2_cdf_block" if kernel == "closed" else "_t2_cdf_closed"
        monkeypatch.setattr(tmodel, other, refuse)
        got = _t2_cdf(np.array([0.3, -1.0, np.inf]), np.array([1.2, 2.0, 0.5]), 0.4, nu)
        assert np.isfinite(got).all()

    def test_quadrature_step_follows_df_above_40(self):
        # one 141-node rule per part up to df 40, more nodes above it, and
        # never more than 2048 x 141 distribution functions times nodes per block
        sizes = {nu: tmodel._t2_cdf_rule(nu)[0].size
                 for nu in (0.7, 2.5, 40.0, 48.5, 100.5, 999.5, 1e9)}
        assert [sizes[nu] for nu in (0.7, 2.5, 40.0)] == [141] * 3
        assert 141 < sizes[48.5] < sizes[100.5] < sizes[999.5] < sizes[1e9]
        for size in sizes.values():
            assert 1 <= tmodel._BLOCK_NODES // size
            assert tmodel._BLOCK_NODES // size * size <= 2048 * 141

    def test_blocks_above_df_40_equal_single_calls(self):
        # 2100 arguments span two blocks at df 48.5, of 1863 and 237
        rng = np.random.default_rng(9)
        x1, x2 = rng.standard_normal((2, 2100)) * 3.0
        r = rng.uniform(-0.9, 0.9, 2100)
        nu = 48.5
        stacked = _t2_cdf(x1, x2, r, nu)
        for i in (0, 1862, 1863, 2099):
            assert _t2_cdf(x1[i], x2[i], r[i], nu) == stacked[i]

    @pytest.mark.parametrize("nu", (1.0, 2.0, 3.0, 4.0, 5.0, 12.0, 7.5))
    def test_stack_equals_single_calls(self, nu):
        rng = np.random.default_rng(8)
        x1, x2 = rng.standard_normal((2, 40)) * 5.0
        r = rng.uniform(-0.99, 0.99, 40)
        stacked = _t2_cdf(x1, x2, r, nu)
        for i in range(40):
            assert _t2_cdf(x1[i], x2[i], r[i], nu) == stacked[i]

    @pytest.mark.parametrize("nu", (1.0, 2.0, 3.0, 4.0, 5.0))
    def test_huge_arguments_reach_univariate_limits(self, nu):
        # the t mass beyond 1e20 is below 1e-20 for any df >= 1
        for big in (1e20, 1e100, 1e200, 1e300):
            for r in (-0.99, 0.0, 0.6, 0.99):
                for x2 in (-3.0, 0.0, 2.0):
                    want = special.stdtr(nu, x2)
                    assert abs(_t2_cdf(big, x2, r, nu) - want) <= 1e-15
                    assert abs(_t2_cdf(x2, big, r, nu) - want) <= 1e-15
                    assert _t2_cdf(-big, x2, r, nu) <= 1e-15
                assert _t2_cdf(big, big, r, nu) >= 1.0 - 1e-15
                assert _t2_cdf(-big, -big, r, nu) <= 1e-15

    def test_against_high_precision_integral(self):
        mp = pytest.importorskip("mpmath")

        def reference(x1, x2, r, nu):
            with mp.workdps(30):
                x1, x2, r, nu = (mp.mpf(v) for v in (x1, x2, r, nu))
                half = mp.mpf(1) / 2

                def cdf(x, df):
                    tail = mp.betainc(df / 2, half, 0, df / (df + x * x),
                                      regularized=True) / 2
                    return 1 - tail if x > 0 else tail

                c = mp.gamma((nu + 1) / 2) / (mp.gamma(nu / 2) * mp.sqrt(nu * mp.pi))
                scale = (nu + 1) / (1 - r * r)

                def integrand(s):
                    arg = (x2 - r * s) * mp.sqrt(scale / (nu + s * s))
                    return c * (1 + s * s / nu) ** (-(nu + 1) / 2) * cdf(arg, nu + 1)

                kink = [x2 / r] if r else []
                if x1 <= 0:
                    edges = [-mp.inf, *sorted(k for k in kink if k < x1), x1]
                    return float(mp.quad(integrand, edges))
                edges = [x1, *sorted(k for k in kink if k > x1), mp.inf]
                return float(cdf(x2, nu) - mp.quad(integrand, edges))

        for args in [(0.5, 1.2, 0.3, 4.0), (2.0, -0.7, -0.5, 3.0), (-1.5, 2.5, 0.9, 5.0),
                     (424.9, 4.725, -0.88, 4.0), (3.0, 3.0, -0.99, 1.0),
                     (0.0, 0.7, 0.6, 7.5),
                     # even and odd df of the closed form
                     (1e3, -2.0, -0.99, 2.0), (-0.4, 1e3, 0.99, 6.0), (-3.0, -4.0, 0.7, 10.0),
                     (1e3, -1e3, 0.99, 1.0), (8.0, -1.0, -0.95, 11.0),
                     # df where the quadrature is off by 1e-11 and 4e-7
                     (22.57, -2.26, -0.146, 128.0), (22.57, -2.26, -0.146, 256.0),
                     # non-integer df above 40, where the quadrature's step
                     # shrinks as 1/sqrt(df)
                     (1e3, 3.0, 0.0, 48.5), (1e3, 3.0, 0.0, 64.5), (1e3, 3.0, 0.0, 100.5)]:
            assert abs(float(_t2_cdf(*args)) - reference(*args)) <= 1e-13


class TestTStdf:
    def test_hand_value_2d_uncorrelated(self):
        # sum of two Frechet weights times T(2) at 4 degrees of freedom
        want = 2.0 * stats.t.cdf(2.0, 5 - 1)
        got = t_stdf(np.array([1.0, 1.0]), np.eye(2), 3.0)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(1.8839, abs=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.05, 20.0),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(-0.9, 0.9),
    )
    def test_homogeneity_2d(self, c, z1, z2, r):
        corr = np.array([[1.0, r], [r, 1.0]])
        z = np.array([z1, z2])
        lhs = c * t_stdf(c * z, corr, 3.0)
        rhs = t_stdf(z, corr, 3.0)
        assert abs(lhs - rhs) / rhs < 1e-8

    def test_homogeneity_3d(self, params_3d):
        corr = params_3d.correlation()
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = rng.uniform(0.2, 5.0, 3)
            c = rng.uniform(0.1, 10.0)
            lhs = c * t_stdf(c * z, corr, 4.0)
            rhs = t_stdf(z, corr, 4.0)
            assert abs(lhs - rhs) / rhs < 1e-8

    def test_dependence_bounds(self, params_3d):
        rng = np.random.default_rng(13)
        corr = params_3d.correlation()
        for _ in range(10):
            z = rng.uniform(0.2, 5.0, 3)
            val = t_stdf(z, corr, 4.0)
            assert (1.0 / z).max() <= val <= (1.0 / z).sum() + 1e-12

    def test_permutation_symmetry(self, params_3d):
        corr = params_3d.correlation()
        z = np.array([0.7, 1.3, 2.1])
        perm = [2, 0, 1]
        got = t_stdf(z[perm], corr[np.ix_(perm, perm)], 4.0)
        assert got == pytest.approx(t_stdf(z, corr, 4.0), rel=1e-9)

    def test_comonotone_rejected(self):
        with pytest.raises(DegenerateModelError):
            t_stdf(np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, 1.0]]), 3.0)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            t_stdf(np.array([1.0, 0.0]), np.eye(2), 3.0)


class TestTheoreticalRho:
    def test_hand_value_symmetric_angle(self):
        params = TParams(np.zeros(2), np.eye(2), 3.0)
        got = theoretical_rho(np.array([SQ2, SQ2]), params, diagonal_direction(2))
        want = 2.0 * math.sqrt(2.0) * stats.t.cdf(2.0, 4)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(2.664, abs=1e-3)

    def test_comonotone_limit(self):
        r = 1.0 - 1e-10
        params = TParams(np.zeros(2), np.array([[1.0, r], [r, 1.0]]), 3.0)
        got = theoretical_rho(np.array([SQ2, SQ2]), params, diagonal_direction(2))
        # perfect dependence leaves a single Frechet coordinate
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-4)

    @pytest.mark.parametrize("d", (2, 3))
    def test_stacked_rows_equal_single_calls(self, d, params_2d):
        params = params_2d if d == 2 else TParams(np.zeros(3), SIGMA_3D, 4.0)
        u = fpc_direction(params.sigma)
        thetas = theta_grid(d, 9 if d == 2 else 5, 0.01).thetas
        stacked = theoretical_rho(thetas, params, u)
        assert stacked.shape == (len(thetas),)
        for theta, rho in zip(thetas, stacked):
            single = theoretical_rho(theta, params, u)
            assert isinstance(single, float)
            assert single == rho

    @pytest.mark.parametrize("nu", (1.0, 1.5, 2.0, 4.0))
    def test_dependence_bounds_on_default_grid(self, nu):
        # large first arguments of the bivariate terms once broke these
        params = TParams(np.zeros(3), SIGMA_3D, nu)
        thetas = theta_grid(3, 16, 0.01).thetas
        rho = theoretical_rho(thetas, params, fpc_direction(SIGMA_3D))
        inv = 1.0 / thetas
        assert (inv.max(axis=1) <= rho + 1e-12).all()
        assert (rho <= inv.sum(axis=1) + 1e-12).all()

    def test_boundary_theta_rejected(self, params_2d):
        with pytest.raises(ValueError):
            theoretical_rho(np.array([1.0, 0.0]), params_2d, diagonal_direction(2))


class TestTheoreticalNormSequences:
    def test_t_equal_two_rejected_by_positivity(self):
        params = TParams(np.zeros(2), np.eye(2), 3.0)
        with pytest.raises(ValueError, match="not positive"):
            theoretical_norm_sequences(params, 2.0)

    @pytest.mark.parametrize("nu, t", [(3.0, 1000.0), (4.0, 50.0), (1.5, 200.0)])
    def test_unit_scale_quantile_equals_ppf(self, nu, t):
        params = TParams(np.zeros(2), np.eye(2), nu)
        a, b = theoretical_norm_sequences(params, t)
        assert a.shape == b.shape == (2,)
        assert (b == stats.t.ppf(1.0 - 1.0 / t, nu)).all()
        assert (a == params.gamma * b).all()

    def test_level_rounding_to_one_rejected(self):
        params = TParams(np.zeros(2), np.eye(2), 3.0)
        with pytest.raises(InversionError, match="not finite"):
            theoretical_norm_sequences(params, 1e17)

    def test_t_at_most_one_rejected(self):
        params = TParams(np.zeros(2), np.eye(2), 3.0)
        with pytest.raises(ValueError, match="must exceed 1"):
            theoretical_norm_sequences(params, 1.0)

    def test_scale_equivariance(self):
        p1 = TParams(np.zeros(2), np.diag([1.0, 1.0]), 3.0)
        p2 = TParams(np.zeros(2), np.diag([4.0, 1.0]), 3.0)
        a1, b1 = theoretical_norm_sequences(p1, 500.0)
        a2, b2 = theoretical_norm_sequences(p2, 500.0)
        assert b2 == pytest.approx(np.array([2.0, 1.0]) * b1, rel=1e-8)
        assert a2 == pytest.approx(np.array([2.0, 1.0]) * a1, rel=1e-8)

    def test_unit_scale_quantile_against_reference(self):
        params = TParams(np.zeros(2), np.eye(2), 3.0)
        a, b = theoretical_norm_sequences(params, 1000.0)
        assert b[0] == pytest.approx(stats.t.ppf(0.999, 3), abs=1e-6)
        assert b[0] == pytest.approx(10.215, abs=1e-3)
        assert a[0] == pytest.approx(b[0] / 3.0, rel=1e-12)


class TestAsymptoticQuantile:
    def test_unit_base_returns_location(self):
        params = TParams(np.zeros(2), np.eye(2), 3.0)
        u = diagonal_direction(2)
        theta = np.array([SQ2, SQ2])
        t = 800.0
        rho = theoretical_rho(theta, params, u)
        alpha = rho * theta[0] / t
        x = asymptotic_quantile(params, u, alpha, theta, t)
        _, b = theoretical_norm_sequences(params, t)
        assert np.abs(x - b).max() < 1e-9

    def test_matches_quantile_point_with_same_inputs(self, params_2d):
        u = diagonal_direction(2)
        theta = np.array([SQ2, SQ2])
        t = 400.0
        n, k = 20_000, 50
        assert n / k == t
        rotated = rotate_elliptical(params_2d, rotation_for(u))
        gamma = params_2d.gamma
        a, b = theoretical_norm_sequences(rotated, t)
        fit = TailFit(
            k=k,
            gamma_marginal=np.array([gamma, gamma]),
            gamma=gamma,
            a=a,
            b=b,
            n=n,
        )
        rho = theoretical_rho(theta, params_2d, u)
        alpha = 1.0 / n
        want = asymptotic_quantile(params_2d, u, alpha, theta, t)
        got = quantile_point(fit, rho, theta, alpha)
        assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("d", (2, 3))
    def test_stacked_rows_equal_single_calls(self, d, params_2d):
        params = params_2d if d == 2 else TParams(np.zeros(3), SIGMA_3D, 4.0)
        r = rotation_for(fpc_direction(params.sigma))
        thetas = theta_grid(d, 9 if d == 2 else 5, 0.01).thetas
        stacked = asymptotic_quantile(params, r, 1e-4, thetas, 50.0)
        assert stacked.shape == thetas.shape
        for theta, point in zip(thetas, stacked):
            single = asymptotic_quantile(params, r, 1e-4, theta, 50.0)
            assert single.shape == (d,)
            assert single.tolist() == point.tolist()


class TestRelativeError:
    def test_identical_vectors(self):
        assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_double_reference(self):
        assert relative_error([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)

    def test_first_order_perturbation(self):
        x = np.array([3.0, 4.0])
        eps = 1e-6
        unit = np.array([1.0, 0.0])
        assert relative_error(x, x + eps * unit) == pytest.approx(eps / 5.0, rel=1e-6)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error([0.0, 0.0], [1.0, 1.0])
