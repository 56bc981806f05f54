import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant import (
    Direction,
    DirquantError,
    HeavyTailError,
    PositivityError,
    StdfContext,
    TailFit,
    diagonal_direction,
    estimate_surface,
    fit_tails,
    flag_outliers,
    quantile_point,
    rotate,
    rotation_for,
    sample_t,
    shift_surface,
    tail_levels,
    theta_grid,
)
from dirquant import quantile, stdf

from oracles import rho_hat, tail_level

SQ2 = math.sqrt(2.0) / 2.0


def fit1d(a=1.0, b=2.0, gamma=0.5, k=10, n=1000):
    return TailFit(k=k, gamma_marginal=np.array([gamma]), gamma=gamma,
                   a=np.array([a]), b=np.array([b]), n=n)


class TestThetaGrid:
    def test_counts(self):
        assert len(theta_grid(2, 8, 0.01)) == 8
        assert len(theta_grid(3, 5, 0.01)) == 25
        assert len(theta_grid(4, 3, 0.01)) == 27

    def test_d3_m2_unit_norm(self):
        g = theta_grid(3, 2, 0.05)
        assert len(g) == 4
        assert np.abs(np.linalg.norm(g.thetas, axis=1) - 1.0).max() <= 1e-12

    def test_small_delta_limit_matches_polar_map(self):
        g = theta_grid(2, 3, 1e-6)
        expected = np.array([[1.0, 0.0], [SQ2, SQ2], [0.0, 1.0]])
        assert np.abs(g.thetas - expected).max() < 2e-6

    def test_all_components_positive(self):
        for d in (2, 3, 4):
            g = theta_grid(d, 5, 0.02)
            assert (g.thetas > 0).all()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            theta_grid(2, 1, 0.01)
        with pytest.raises(ValueError):
            theta_grid(2, 4, 0.0)
        with pytest.raises(ValueError):
            theta_grid(2, 4, 1.0)

    def test_dimension_below_two_rejected(self):
        for d in (1, 0):
            with pytest.raises(ValueError, match=rf"^dimension must be >= 2, got {d}$"):
                theta_grid(d, 4, 0.01)

    def test_holds_unit_vectors_and_their_angles(self):
        g = theta_grid(3, 4, 0.05)
        assert [f.name for f in dataclasses.fields(g)] == ["thetas", "angles"]
        assert g.angles.shape == (16, 2) and not g.angles.flags.writeable
        phi1, phi2 = g.angles.T
        assert np.allclose(g.thetas, np.column_stack(
            [np.cos(phi1), np.sin(phi1) * np.cos(phi2), np.sin(phi1) * np.sin(phi2)]),
            rtol=0, atol=1e-15)

    def test_refinement_shares_angles_bitwise(self):
        for d in (2, 3):
            m = 9
            coarse = theta_grid(d, m, 0.03)
            fine = theta_grid(d, 2 * m - 1, 0.03)
            if d == 2:
                sel = fine.thetas[::2]
            else:
                idx = [(2 * i) * (2 * m - 1) + 2 * j for i in range(m) for j in range(m)]
                sel = fine.thetas[idx]
            assert np.array_equal(coarse.thetas, sel)


class TestQuantilePoint:
    def test_hand_value(self):
        got = quantile_point(fit1d(), 1.0, np.array([1.0]), 0.001)
        # base 10: (sqrt(10) - 1)/0.5 + 2 = 2 sqrt(10)
        assert got[0] == pytest.approx(2.0 * math.sqrt(10.0), abs=1e-12)
        assert got[0] == pytest.approx(6.3246, abs=1e-4)

    def test_unit_base_returns_threshold(self):
        got = quantile_point(fit1d(), 10.0, np.array([1.0]), 0.1)
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.05, 2.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
        st.floats(0.2, 4.0), st.floats(0.05, 1.0), st.floats(1e-5, 0.01),
    )
    def test_halving_alpha_increases_components(self, gamma, a, b, rho, theta, alpha):
        fit = fit1d(a=a, b=b, gamma=gamma)
        lo = quantile_point(fit, rho, np.array([theta]), alpha)
        hi = quantile_point(fit, rho, np.array([theta]), alpha / 2.0)
        assert (hi > lo).all()

    def test_monotone_in_rho(self):
        fit = fit1d()
        low = quantile_point(fit, 0.5, np.array([1.0]), 0.001)
        high = quantile_point(fit, 1.5, np.array([1.0]), 0.001)
        assert (high > low).all()

    def test_nonpositive_gamma_rejected(self):
        fit = TailFit(k=10, gamma_marginal=np.array([-0.5]), gamma=-0.5,
                      a=np.array([1.0]), b=np.array([2.0]), n=1000)
        with pytest.raises(HeavyTailError) as exc:
            quantile_point(fit, 1.0, np.array([1.0]), 0.001)
        assert "marginal 1 has tail index -0.5 <= 0" in str(exc.value)
        assert "np.float64" not in str(exc.value)

    def test_tail_levels_name_the_nonpositive_marginal(self):
        # the radius context's own fit is heavy tailed; the level's is not
        good = TailFit(k=10, gamma_marginal=np.array([0.4, 0.3]), gamma=0.35,
                       a=np.array([1.0, 1.0]), b=np.array([2.0, 2.0]), n=1000)
        bad = TailFit(k=10, gamma_marginal=np.array([0.4, -0.25]), gamma=0.1,
                      a=np.array([1.0, 1.0]), b=np.array([2.0, 2.0]), n=1000)
        ctx = StdfContext(np.full((1000, 2), 3.0), good)
        with pytest.raises(HeavyTailError) as exc:
            tail_levels(ctx, [[3.0, 3.0]], diagonal_direction(2), bad)
        assert "marginal 2 has tail index -0.25 <= 0" in str(exc.value)
        assert "np.float64" not in str(exc.value)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            quantile_point(fit1d(), 1.0, np.array([1.0]), 1.5)

    def test_stacked_rows_equal_single_angle_calls(self):
        fit = TailFit(k=150, gamma_marginal=np.array([0.21, 0.34, 0.57]), gamma=0.37,
                      a=np.array([0.9, 1.7, 0.4]), b=np.array([2.2, 3.1, 1.3]), n=3000)
        thetas = theta_grid(3, 17, 0.01).thetas
        rhos = np.random.default_rng(4).uniform(1.0 / 150, 3.0, len(thetas))
        stacked = quantile_point(fit, rhos, thetas, 1.0 / 5000)
        assert stacked.shape == thetas.shape
        for row, rho, theta in zip(stacked, rhos, thetas):
            assert np.array_equal(row, quantile_point(fit, float(rho), theta, 1.0 / 5000))


@pytest.fixture(scope="module")
def sample_2d(params_2d):
    return sample_t(params_2d, 5000, 314)


class TestEstimateSurface:
    def test_identity_direction_reproduces_quantile_point(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(size=(800, 2)) ** (-0.4) + 0.5
        grid = theta_grid(2, 6, 0.05)
        surf = estimate_surface(data, diagonal_direction(2), 1e-3, grid, k=80)
        fit = fit_tails(data, 80)
        ctx = StdfContext(data, fit)
        for x_rot, x_orig, rho_s, theta in zip(surf.x_rotated, surf.x_original, surf.rho,
                                               grid.thetas):
            rho = rho_hat(ctx, theta)
            manual = quantile_point(fit, rho.value, theta, 1e-3)
            assert np.array_equal(x_rot, manual)
            assert np.array_equal(x_orig, manual)
            assert rho_s == rho.value

    def test_rotation_path_equivalence_bitwise(self, sample_2d):
        u = Direction.from_vector([0.8, -0.6])
        grid = theta_grid(2, 5, 0.05)
        alpha = 1.0 / 5000
        r = rotation_for(u)
        direct = estimate_surface(sample_2d, u, alpha, grid, k=200)
        pre_rotated = rotate(r, sample_2d)
        via_e = estimate_surface(pre_rotated, diagonal_direction(2), alpha, grid, k=200)
        assert np.array_equal(direct.x_rotated, via_e.x_rotated)
        for xd, xe in zip(direct.x_original, via_e.x_original):
            assert np.array_equal(xd, r.entries.T @ xe)
        assert np.array_equal(direct.rho, via_e.rho)

    def test_rotation_path_equivalence_with_auto_k(self, sample_2d):
        u = Direction.from_vector([0.8, -0.6])
        grid = theta_grid(2, 4, 0.05)
        alpha = 1.0 / 5000
        r = rotation_for(u)
        direct = estimate_surface(sample_2d, u, alpha, grid, k="auto", b1=40, seed=5)
        via_e = estimate_surface(rotate(r, sample_2d), diagonal_direction(2),
                                 alpha, grid, k="auto", b1=40, seed=5)
        assert direct.k == via_e.k
        assert np.array_equal(direct.x_rotated, via_e.x_rotated)

    def test_inverse_rotation_invariant(self, sample_2d):
        u = Direction.from_vector([0.3, 0.954])
        surf = estimate_surface(sample_2d, u, 2e-4, theta_grid(2, 8, 0.05), k=150)
        r = rotation_for(u)
        for x_rot, x_orig in zip(surf.x_rotated, surf.x_original):
            assert np.abs(x_orig - r.entries.T @ x_rot).max() <= 1e-10

    def test_alpha_monotone_domination(self, sample_2d):
        grid = theta_grid(2, 6, 0.05)
        hi = estimate_surface(sample_2d, diagonal_direction(2), 1e-4, grid, k=200)
        lo = estimate_surface(sample_2d, diagonal_direction(2), 1e-3, grid, k=200)
        assert (hi.x_rotated > lo.x_rotated).all()

    def test_grid_refinement_bitwise_superset(self, sample_2d):
        alpha = 1.0 / 5000
        coarse = estimate_surface(sample_2d, diagonal_direction(2), alpha,
                                  theta_grid(2, 7, 0.05), k=200)
        fine = estimate_surface(sample_2d, diagonal_direction(2), alpha,
                                theta_grid(2, 13, 0.05), k=200)
        assert np.array_equal(coarse.thetas, fine.thetas[::2])
        assert np.array_equal(coarse.x_rotated, fine.x_rotated[::2])
        assert np.array_equal(coarse.rho, fine.rho[::2])

    def test_positivity_violation_suggests_centering(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((500, 2))
        with pytest.raises(PositivityError, match=r"rotated marginals \[1, 2\] .*median"):
            estimate_surface(data, diagonal_direction(2), 1e-3,
                             theta_grid(2, 4, 0.05), k=400)

    def test_min_rows_enforced(self):
        data = np.ones((20, 2))
        from dirquant import DataError

        with pytest.raises(DataError):
            estimate_surface(data, diagonal_direction(2), 1e-3, None, k=5)

    def test_rotation_built_once(self, sample_2d, monkeypatch):
        calls = []
        monkeypatch.setattr(quantile, "rotation_for",
                            lambda u: calls.append(u) or rotation_for(u))
        u = Direction.from_vector([0.8, -0.6])
        surf = estimate_surface(sample_2d, u, 1e-3, theta_grid(2, 5, 0.05), k=200,
                                k_rho=300)
        shift_surface(surf, np.array([1.0, 2.0]))
        assert len(calls) == 1
        assert surf.direction is calls[0]

    def test_k_rho_decouples_radius_fraction(self, sample_2d):
        grid = theta_grid(2, 5, 0.05)
        alpha = 1.0 / 5000
        base = estimate_surface(sample_2d, diagonal_direction(2), alpha, grid, k=200)
        tuned = estimate_surface(sample_2d, diagonal_direction(2), alpha, grid,
                                 k=200, k_rho=400)
        fit_rho = fit_tails(sample_2d, 400)
        ctx_rho = StdfContext(sample_2d, fit_rho)
        for rho, theta in zip(tuned.rho, grid.thetas):
            assert rho == rho_hat(ctx_rho, theta).value
        assert (base.rho != tuned.rho).any()

    def test_shift_surface_restores_raw_coordinates(self, sample_2d):
        offset = np.array([3.0, -1.0])
        shifted_sample = sample_2d + offset
        centered = shifted_sample - offset
        surf = estimate_surface(centered, diagonal_direction(2), 1e-3,
                                theta_grid(2, 5, 0.05), k=200)
        moved = shift_surface(surf, offset)
        assert np.abs(moved.x_original - (surf.x_original + offset)).max() < 1e-12
        assert np.array_equal(moved.center_offset, offset)

    def test_shift_by_large_offset_keeps_invariant(self, sample_2d):
        # the shifted coordinates round at the offset's size, about 1e-10
        # absolute at 1e6, so the invariant's tolerance scales with each row
        u = Direction.from_vector([0.3, 1.0])
        surf = estimate_surface(sample_2d, u, 1e-3, theta_grid(2, 5, 0.05), k=200)
        offset = np.array([1e6, 1e6])
        moved = shift_surface(surf, offset)
        assert np.array_equal(moved.x_original, surf.x_original + offset)
        # a row off by 1e-9 of its size still breaks it
        bad = moved.x_original.copy()
        bad[2, 1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match=r"^inverse-rotation invariant violated by "
                           r"[0-9.e-]+ in row 2$"):
            dataclasses.replace(moved, x_original=bad)


class TestFitDirection:
    def test_surfaces_and_levels_match_one_shot_calls(self, sample_2d):
        u = Direction.from_vector([0.8, -0.6])
        grid = theta_grid(2, 6, 0.05)
        fitted = quantile.fit_direction(sample_2d, u, k=200)
        for alpha in (1e-3, 1e-4):
            once = estimate_surface(sample_2d, u, alpha, grid, k=200)
            assert fitted.surface(alpha, grid).to_dict() == once.to_dict()
        new_points = sample_2d[:50] * 3.0
        assert np.array_equal(fitted.levels(new_points),
                              tail_levels(fitted.context, new_points, u))
        assert np.array_equal(fitted.levels(sample_2d),
                              flag_outliers(sample_2d, u, 0.01, k=200).alpha_z)

    @settings(max_examples=30, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=st.integers(512, 2000),
           k=st.sampled_from([20, 50, 100]), m=st.integers(-4, 4).filter(bool),
           explicit=st.booleans())
    def test_power_of_two_scaling_scales_fit_and_surface(
            self, params_2d, data_seed, n, k, m, explicit):
        # Scaling by 2^m is exact in the rotation, the order statistics and
        # b, but the moment estimator's logs move in the last bit: over
        # 124 draws and m in [-4, 4], gamma moved by a relative 7e-13, a by
        # 2.4e-15 and the surface points by 5.5e-12, and no radius changed.
        u = Direction.from_vector([0.8, -0.6]) if explicit else diagonal_direction(2)
        x = sample_t(params_2d, n, data_seed)
        grid = theta_grid(2, 128)
        try:
            base = quantile.fit_direction(x, u, k)
            surf = base.surface(1e-4, grid)
        except DirquantError:
            return
        c = 2.0 ** m
        scaled = quantile.fit_direction(c * x, u, k)
        scaled_surf = scaled.surface(1e-4, grid)
        assert np.array_equal(scaled.context.rotated_sample, c * base.context.rotated_sample)
        assert scaled.fit.k == k
        assert np.allclose(scaled.fit.gamma_marginal, base.fit.gamma_marginal,
                           rtol=1e-10, atol=1e-13)
        assert np.array_equal(scaled.fit.b, c * base.fit.b)
        assert np.allclose(scaled.fit.a, c * base.fit.a, rtol=1e-13, atol=0.0)
        assert np.array_equal(scaled_surf.rho, surf.rho)
        assert np.array_equal(scaled_surf.floored, surf.floored)
        assert np.allclose(scaled_surf.x_original, c * surf.x_original, rtol=1e-10, atol=0.0)

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1000, 2000]),
           m=st.integers(-4, 4).filter(bool))
    def test_power_of_two_scaling_keeps_auto_k(self, params_2d, data_seed, n, m):
        # held on 60 draws at every m in [-4, 4] when checked by hand
        from dirquant import select_k

        z = rotate(rotation_for(diagonal_direction(2)), sample_t(params_2d, n, data_seed))
        assert (select_k(2.0 ** m * z, b1=200, seed=7).k_hat
                == select_k(z, b1=200, seed=7).k_hat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry",
        ["estimate", "flag", "fit", "fit_tails", "select_k", "optimal_k_for_size", "levels"],
    )
    def test_non_finite_cell_named(self, entry, bad, sample_2d):
        from dirquant import DataError, optimal_k_for_size, select_k

        data = sample_2d.copy()
        data[2, 1] = bad
        u = diagonal_direction(2)
        with pytest.raises(DataError) as info:
            if entry == "estimate":
                estimate_surface(data, u, 1e-3, k=200)
            elif entry == "flag":
                flag_outliers(data, u, 0.01, k=200)
            elif entry == "fit":
                quantile.fit_direction(data, u, k=200)
            elif entry == "fit_tails":
                fit_tails(data, 200)
            elif entry == "select_k":
                select_k(data, b1=10, seed=0)
            elif entry == "optimal_k_for_size":
                optimal_k_for_size(data, 50, 5, seed=0)
            else:
                fitted = quantile.fit_direction(sample_2d, u, k=200)
                tail_levels(fitted.context, data[:5], fitted.rotation)
        what = "point coordinate" if entry == "levels" else "sample cell"
        assert str(info.value) == f"non-finite {what} at row 3, column 2: {bad!r}"

    @pytest.mark.parametrize("k", [20, "auto"])
    def test_rotation_overflow_named(self, k):
        # every cell is finite, but row 6's rotated first cell sums past the
        # float maximum; numpy's overflow warning is not let out either
        from dirquant import DataError

        sample = np.random.default_rng(0).uniform(size=(200, 2)) ** -0.5
        sample[5] = 1.7e308
        with pytest.raises(DataError) as info:
            quantile.fit_direction(sample, Direction.from_vector([0.3, 1.0]), k=k)
        assert str(info.value) == ("rotated sample cell at row 6, column 1 overflowed "
                                   "to inf; rescale the sample")

    def test_levels_refuse_rotated_overflow(self, params_2d):
        # the point is finite, but its rotated first cell sums past the float maximum
        from dirquant import DataError

        fitted = quantile.fit_direction(sample_t(params_2d, 2000, 1),
                                        Direction.from_vector([0.3, 1.0]), k=100)
        with pytest.raises(DataError) as info:
            fitted.levels([1.7e308, 1.7e308])
        assert str(info.value) == ("rotated sample cell at row 1, column 1 overflowed "
                                   "to inf; rescale the sample")

    def test_overflowed_frechet_weights_give_level_zero(self, params_2d, monkeypatch):
        # (1e150)^(1/gamma) overflows; (k/n) rho/||w|| has the float limit 0.0,
        # and the overflowed point sends no angle to the radius
        fitted = quantile.fit_direction(sample_t(params_2d, 2000, 1),
                                        diagonal_direction(2), k=100)
        real, angles = quantile.rho_hat_batch, []

        def spy(ctx, thetas):
            angles.append(thetas)
            return real(ctx, thetas)

        monkeypatch.setattr(quantile, "rho_hat_batch", spy)
        assert fitted.levels([1e150, 1e150]).tolist() == [0.0]
        assert angles == []
        both = fitted.levels([[1e150, 1e150], [40.0, 40.0]])
        assert both[0] == 0.0 and both[1] == fitted.levels([40.0, 40.0])[0]
        assert len(angles) == 2 and all(t.shape == (1, 2) for t in angles)
        assert all(np.isfinite(t).all() for t in angles)

    def test_weight_norm_overflow_with_finite_weights_is_rescaled(self, params_2d):
        # (1e80, 1) has weights near (5.6e200, 0.17): their squares overflow,
        # the weights do not, and the level is near 1e-201, not 0.0
        fitted = quantile.fit_direction(sample_t(params_2d, 2000, 1),
                                        diagonal_direction(2), k=100)
        fit, ctx = fitted.fit, fitted.context
        zr = rotate(fitted.rotation, np.array([[1e80, 1.0]]))
        w = quantile.frechet_weights(zr, fit.a, fit.b, fit.gamma_marginal)[0]
        with np.errstate(over="ignore"):
            assert np.isfinite(w).all() and np.linalg.norm(w) == np.inf
        top = w.max()
        norm = top * np.linalg.norm(w / top)
        rho, _ = quantile.rho_hat_batch(ctx, (w / norm)[None, :])
        level = fitted.levels([1e80, 1.0])
        assert level[0] > 0.0
        assert level.tolist() == [(fit.k / fit.n) * rho[0] / norm]
        levels = fitted.levels([[1e40, 1.0], [1e60, 1.0], [1e80, 1.0]])
        assert (np.diff(levels) < 0).all() and levels[-1] > 0.0

    @pytest.mark.parametrize("k", [0, -3, "n", "2n"])
    def test_k_outside_range_rejected(self, k, sample_2d):
        # the range check comes before the order statistic is read
        n = sample_2d.shape[0]
        k = {"n": n, "2n": 2 * n}.get(k, k)
        with pytest.raises(ValueError, match=rf"k={k} outside \[1, n-1\] for n={n}"):
            quantile.fit_direction(sample_2d, diagonal_direction(2), k=k)

    def test_flag_shares_estimate_input_checks(self, sample_2d):
        from dirquant import DataError

        with pytest.raises(DataError, match="need at least 50 rows, got 49"):
            flag_outliers(sample_2d[:49], diagonal_direction(2), 0.01, k=10)
        with pytest.raises(ValueError, match="direction dimension 3 does not match data d=2"):
            flag_outliers(sample_2d, diagonal_direction(3), 0.01, k=200)
        with pytest.raises(ValueError, match=r"expected an \(n, d\) sample"):
            flag_outliers(sample_2d[:, 0], diagonal_direction(2), 0.01, k=200)


class TestTailLevel:
    def test_inversion_identity_on_surface_points(self, sample_2d):
        alpha = 1.0 / 5000
        grid = theta_grid(2, 12, 0.05)
        surf = estimate_surface(sample_2d, diagonal_direction(2), alpha, grid, k=200)
        ctx = StdfContext(sample_2d, surf.fit)
        for x in surf.x_original:
            az = tail_level(ctx, x, diagonal_direction(2))
            assert abs(az - alpha) / alpha < 0.05

    def test_inversion_exact_when_rho_matches(self, sample_2d):
        alpha = 1.0 / 5000
        grid = theta_grid(2, 12, 0.05)
        surf = estimate_surface(sample_2d, diagonal_direction(2), alpha, grid, k=200)
        ctx = StdfContext(sample_2d, surf.fit)
        exact = 0
        for x, rho in zip(surf.x_original, surf.rho):
            az = tail_level(ctx, x, diagonal_direction(2))
            zr = rotate(rotation_for(diagonal_direction(2)), x)
            gam = surf.fit.gamma_marginal
            w = np.maximum(0.0, 1.0 + gam * (zr - surf.fit.b) / surf.fit.a) ** (1 / gam)
            theta_z = w / np.linalg.norm(w)
            if rho_hat(ctx, theta_z).value == rho:
                assert az == pytest.approx(alpha, rel=1e-12)
                exact += 1
        assert exact > 0

    @settings(max_examples=40, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=st.integers(512, 2000),
           m=st.integers(128, 300), k=st.sampled_from([20, 50, 100]),
           alpha=st.sampled_from([1e-5, 1e-4, 1e-3]), explicit=st.booleans())
    def test_unfloored_surface_points_invert_on_the_chain_path(
            self, params_2d, data_seed, n, m, k, alpha, explicit):
        # 512 rows or more and 128 angles or more count along the clamped
        # threshold chain. The inversion is not bit for bit: the round trip
        # through the rotation, the Frechet weights and their norm moves
        # alpha_z by a few ulps. A count off by one would move it by
        # 1/count >= 1/n.
        u = Direction.from_vector([0.8, -0.6]) if explicit else diagonal_direction(2)
        try:
            fitted = quantile.fit_direction(sample_t(params_2d, n, data_seed), u, k)
            with mock.patch.object(stdf, "_dominated_2d",
                                   wraps=stdf._dominated_2d) as kernel:
                surf = fitted.surface(alpha, theta_grid(2, m))
                levels = fitted.levels(surf.x_original)
        except DirquantError:
            return
        assert kernel.call_count == 2
        unfloored = ~surf.floored
        assert np.allclose(levels[unfloored], alpha, rtol=1e-12, atol=0.0)

    def test_outward_moves_never_increase_level(self, params_2d):
        data = sample_t(params_2d, 20_000, 77)
        e = diagonal_direction(2)
        fit = fit_tails(data, 400)
        ctx = StdfContext(data, fit)
        outward = rotation_for(e).entries.T @ (np.ones(2) / np.sqrt(2.0))
        order = np.argsort(np.linalg.norm(np.maximum(data, 0.0), axis=1))
        for i in range(10):
            z0 = data[order[-(i + 1)]]
            steps = z0[None, :] + np.linspace(0, 10, 21)[:, None] * outward[None, :]
            az = tail_levels(ctx, steps, e)
            assert (np.diff(az) <= 1e-12).all()

    def test_sample_maximum_is_deep_in_tail(self, params_2d):
        data = sample_t(params_2d, 20_000, 77)
        e = diagonal_direction(2)
        fit = fit_tails(data, 400)
        ctx = StdfContext(data, fit)
        zmax = data[np.argmax(data @ e.components)]
        az = tail_level(ctx, zmax, e)
        assert az < fit.k / fit.n

    def test_outside_extremal_region_is_inf_not_error(self, sample_2d):
        fit = fit_tails(sample_2d, 200)
        ctx = StdfContext(sample_2d, fit)
        z = np.array([-50.0, -50.0])
        assert tail_level(ctx, z, diagonal_direction(2)) == np.inf

    def test_separate_fit_preserves_inversion(self, sample_2d):
        # radius tuned at its own fraction still inverts the surface level
        alpha = 1.0 / 5000
        grid = theta_grid(2, 6, 0.05)
        surf = estimate_surface(sample_2d, diagonal_direction(2), alpha, grid,
                                k=200, k_rho=400)
        ctx_rho = StdfContext(sample_2d, fit_tails(sample_2d, 400))
        for x in surf.x_original:
            az = tail_level(ctx_rho, x, diagonal_direction(2), fit=surf.fit)
            assert abs(az - alpha) / alpha < 0.05


class TestFlagOutliers:
    def test_duplicated_rows_get_identical_flags(self, sample_2d):
        data = sample_2d.copy()
        data[20] = data[10]
        res = flag_outliers(data, diagonal_direction(2), 0.01, k=200)
        assert res.alpha_z[10] == res.alpha_z[20]
        assert res.flagged[10] == res.flagged[20]

    def test_rotation_built_once(self, sample_2d, monkeypatch):
        calls = []
        monkeypatch.setattr(quantile, "rotation_for",
                            lambda u: calls.append(u) or rotation_for(u))
        res = flag_outliers(sample_2d, diagonal_direction(2), 0.01, k=200)
        assert len(calls) == 1
        ctx = StdfContext(rotate(rotation_for(diagonal_direction(2)), sample_2d), res.fit)
        assert np.array_equal(res.alpha_z,
                              tail_levels(ctx, sample_2d, diagonal_direction(2)))

    def test_sample_checked_and_rotated_once(self, sample_2d, monkeypatch):
        calls = []
        for name in ("rotate", "_require_finite"):
            real = getattr(quantile, name)
            monkeypatch.setattr(quantile, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        flag_outliers(sample_2d, diagonal_direction(2), 0.01, k=200)
        assert sorted(calls) == ["_require_finite", "rotate"]

    def test_alpha_one_never_flags_interior_rows(self, sample_2d):
        res = flag_outliers(sample_2d, diagonal_direction(2), 1.0 - 1e-12, k=200)
        interior = res.alpha_z > res.fit.k / res.fit.n
        assert interior.any()
        assert not res.flagged[interior].any()

    def test_directional_outlier_demo_3d(self, params_3d):
        # a point stretched along the portfolio direction crosses that
        # direction's critical layer before the diagonal one does
        data = sample_t(params_3d, 1600, 3)
        u = Direction.from_vector([0.6, 0.35, 0.05])
        e = diagonal_direction(3)
        alpha = 1.0 / 1250
        z = 20.0 * u.components
        stacked = np.vstack([data, z])
        res_u = flag_outliers(stacked, u, alpha, k=120)
        res_e = flag_outliers(stacked, e, alpha, k=120)
        assert res_u.flagged[-1]
        assert not res_e.flagged[-1]
        assert res_u.alpha_z[-1] < res_e.alpha_z[-1]

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from(["2d-e", "2d-u", "3d-e"]),
        data_seed=st.integers(0, 2**32 - 1),
        perm_seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([8, 30, 100]),
    )
    def test_row_permutation_permutes_outputs(self, params_2d, params_3d, case,
                                              data_seed, perm_seed, k):
        # with a fixed k nothing depends on the row order; k="auto" is left
        # out, since the bootstrap draws row indices
        params, u = {
            "2d-e": (params_2d, diagonal_direction(2)),
            "2d-u": (params_2d, Direction.from_vector([0.8, -0.6])),
            "3d-e": (params_3d, diagonal_direction(3)),
        }[case]
        x = sample_t(params, 400, data_seed)
        p = np.random.default_rng(perm_seed).permutation(400)

        def flags(rows):
            try:
                return flag_outliers(rows, u, 0.01, k=k)
            except DirquantError as exc:
                return type(exc)

        res, res_p = flags(x), flags(x[p])
        if isinstance(res, type) or isinstance(res_p, type):
            assert res is res_p
        else:
            assert np.array_equal(res.alpha_z[p], res_p.alpha_z)
            assert np.array_equal(res.flagged[p], res_p.flagged)

    @pytest.mark.parametrize("alpha", [5.0, 1.0, 0.0, -1.0, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha, params_2d, monkeypatch):
        calls = []
        monkeypatch.setattr(quantile, "fit_direction", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got "
                           + re.escape(repr(alpha)) + "$"):
            flag_outliers(sample_t(params_2d, 2000, 1), diagonal_direction(2), alpha,
                          k=100)
        assert calls == []

    def test_auto_k_uses_bootstrap(self, sample_2d):
        res = flag_outliers(sample_2d, diagonal_direction(2), 0.01, k="auto",
                            b1=40, seed=7)
        assert res.k_selection is not None
        assert res.fit.k == res.k_selection.k_hat
