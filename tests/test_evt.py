import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant import (
    DegenerateMomentsError,
    PositivityError,
    TailFit,
    fit_tails,
    gamma_moment,
    joint_gamma,
    log_moment,
    norm_sequences,
)
from dirquant.errors import TailDisparityWarning
from dirquant.evt import _descending_logs, _profiles_from_logs

LN2 = math.log(2.0)


class TestLogMoment:
    def test_hand_value_r1(self):
        # (ln 4 + ln 2)/2 = 1.5 ln 2
        assert log_moment([1.0, 2.0, 4.0], 2, 1) == pytest.approx(1.5 * LN2, abs=1e-15)
        assert log_moment([1.0, 2.0, 4.0], 2, 1) == pytest.approx(1.0397, abs=1e-4)

    def test_hand_value_r2(self):
        # ((ln 4)^2 + (ln 2)^2)/2 = 2.5 (ln 2)^2
        assert log_moment([1.0, 2.0, 4.0], 2, 2) == pytest.approx(2.5 * LN2**2, abs=1e-15)
        assert log_moment([1.0, 2.0, 4.0], 2, 2) == pytest.approx(1.2011, abs=1e-4)

    def test_ties_give_zero(self):
        assert log_moment([5.0, 5.0, 5.0, 5.0], 3, 1) == 0.0
        assert log_moment([1.0, 7.0, 7.0, 7.0], 2, 2) == 0.0

    def test_nonpositive_threshold_raises(self):
        with pytest.raises(PositivityError, match="recenter"):
            log_moment([-1.0, 2.0, 4.0], 2, 1)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            log_moment([1.0, 2.0], 2, 1)


def log_moment_profiles(sorted_values):
    """M1 and M2 at k = 1, ..., n-1 (index k-1), by the bootstrap's kernel."""
    return _profiles_from_logs(_descending_logs(np.asarray(sorted_values, dtype=float)))


class TestLogMomentProfiles:
    def test_matches_direct_moments(self):
        s = np.sort(np.random.default_rng(5).uniform(size=40) ** -0.5)
        m1, m2 = log_moment_profiles(s)
        assert m1.shape == m2.shape == (39,)
        for k in range(1, 40):
            assert m1[k - 1] == pytest.approx(log_moment(s, k, 1), rel=1e-10, abs=1e-13)
            assert m2[k - 1] == pytest.approx(log_moment(s, k, 2), rel=1e-10, abs=1e-13)

    def test_batch_rows_equal_single_calls_bitwise(self):
        rng = np.random.default_rng(6)
        batch = np.sort(rng.uniform(size=(3, 5, 60)) ** -0.7, axis=-1)
        m1, m2 = log_moment_profiles(batch)
        assert m1.shape == m2.shape == (3, 5, 59)
        for i in range(3):
            for j in range(5):
                r1, r2 = log_moment_profiles(batch[i, j])
                assert np.array_equal(m1[i, j], r1)
                assert np.array_equal(m2[i, j], r2)


class TestGammaMoment:
    def test_hand_value_exponential_spacings(self):
        # spacings {2, 1}: M1 = 1.5, M2 = 2.5, gamma = 1.5 + 1 - 0.5/0.1
        sample = [1.0, math.e, math.e**2]
        assert gamma_moment(sample, 2) == pytest.approx(-2.5, abs=1e-12)

    def test_hand_value_powers_of_two(self):
        # M1 = 1.5 ln2, M2 = 2.5 (ln2)^2, ratio = 0.9 exactly
        assert gamma_moment([1.0, 2.0, 4.0], 2) == pytest.approx(
            1.5 * LN2 - 4.0, abs=1e-12
        )
        assert gamma_moment([1.0, 2.0, 4.0], 2) == pytest.approx(-2.9603, abs=1e-4)

    def test_pareto_monte_carlo_oracle(self):
        # pure Pareto with survival x^(-3), so the index is 1/3
        rng = np.random.default_rng(2024)
        x = np.sort(rng.uniform(size=100_000) ** (-1.0 / 3.0))
        assert abs(gamma_moment(x, 1000) - 1.0 / 3.0) < 0.1

    def test_degenerate_two_point_guard(self):
        # both spacings equal ln 4, so (M1)^2 == M2 exactly
        with pytest.raises(DegenerateMomentsError):
            gamma_moment([1.0, 4.0, 4.0], 2)

    def test_zero_m2_guard(self):
        with pytest.raises(DegenerateMomentsError):
            gamma_moment([1.0, 3.0, 3.0, 3.0], 2)


class TestJointGamma:
    def test_constant(self):
        assert joint_gamma([0.4, 0.4, 0.4]) == pytest.approx(0.4)

    def test_mean(self):
        assert joint_gamma([0.2, 0.4]) == pytest.approx(0.3)
        assert joint_gamma([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            joint_gamma([])


class TestNormSequences:
    def test_hand_value(self):
        a, b = norm_sequences([1.0, 2.0, 4.0], 2, 1.5)
        assert b == 1.0
        assert a == pytest.approx(1.5 * LN2, abs=1e-15)

    def test_gamma_zero_max_factor_one(self):
        a, b = norm_sequences([1.0, 2.0, 4.0], 2, 0.0)
        assert a == pytest.approx(b * 1.5 * LN2)

    def test_gamma_minus_one_max_factor_two(self):
        a, b = norm_sequences([1.0, 2.0, 4.0], 2, -1.0)
        assert a == pytest.approx(2.0 * b * 1.5 * LN2)

    def test_zero_scale_raises(self):
        with pytest.raises(DegenerateMomentsError):
            norm_sequences([1.0, 5.0, 5.0], 1, 0.5)


class TestFitTails:
    def test_single_marginal_reduction(self):
        rng = np.random.default_rng(1)
        x = rng.pareto(3.0, 500) + 1.0
        fit = fit_tails(x[:, None], 50)
        assert fit.gamma == pytest.approx(gamma_moment(np.sort(x), 50))
        assert fit.d == 1

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.pareto(2.0, (400, 3)) + 1.0
        fit1 = fit_tails(x, 40)
        fit2 = fit_tails(x[rng.permutation(400)], 40)
        assert np.array_equal(fit1.gamma_marginal, fit2.gamma_marginal)
        assert np.array_equal(fit1.a, fit2.a)
        assert np.array_equal(fit1.b, fit2.b)

    def test_error_names_marginal(self):
        x = np.column_stack([np.linspace(1, 5, 100), np.linspace(-2, -1, 100)])
        with pytest.raises(PositivityError, match="marginal 1"):
            fit_tails(x, 10)

    def test_disparity_warning(self):
        rng = np.random.default_rng(3)
        # one heavy marginal, one nearly-constant positive marginal
        x = np.column_stack(
            [rng.pareto(1.0, 2000) + 1.0, 10.0 + 0.1 * rng.uniform(size=2000)]
        )
        with pytest.warns(TailDisparityWarning):
            fit_tails(x, 200)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 50.0), st.integers(0, 1000))
    def test_scale_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.pareto(2.5, (300, 2)) + 1.0
        fit1 = fit_tails(x, 30)
        scaled = x.copy()
        scaled[:, 0] *= c
        fit2 = fit_tails(scaled, 30)
        assert fit2.gamma_marginal[0] == pytest.approx(fit1.gamma_marginal[0], rel=1e-9)
        assert fit2.a[0] == pytest.approx(c * fit1.a[0], rel=1e-9)
        assert fit2.b[0] == pytest.approx(c * fit1.b[0], rel=1e-9)
        assert fit2.gamma_marginal[1] == fit1.gamma_marginal[1]

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TailFit(k=1, gamma_marginal=np.array([0.5]), gamma=0.5,
                    a=np.array([1.0]), b=np.array([1.0]), n=10)
        with pytest.raises(PositivityError):
            TailFit(k=3, gamma_marginal=np.array([0.5]), gamma=0.5,
                    a=np.array([1.0]), b=np.array([-1.0]), n=10)
