"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline). The heavy three-dimensional study runs a reduced profile by
default; set DIRQUANT_FULL_ACCEPTANCE=1 to run it at full scale.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from dirquant import (
    Direction,
    StdfContext,
    TParams,
    asymptotic_quantile,
    diagonal_direction,
    estimate_surface,
    fit_tails,
    flag_outliers,
    fpc_direction,
    quantile_point,
    relative_error,
    rotate,
    rotate_elliptical,
    rotation_for,
    sample_t,
    select_k,
    t_stdf,
    theoretical_rho,
    theta_grid,
)
from dirquant.cli import main
from dirquant.errors import HeavyTailError
from dirquant.evt import TailFit

from oracles import empirical_neg_log_G, rho_hat, tail_level

SIGMA_2D = np.array([[5.0, 0.1], [0.1, 1.0]])
SIGMA_3D = np.array([[5.0, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]])
FULL = os.environ.get("DIRQUANT_FULL_ACCEPTANCE", "") == "1"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def _seed_int(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def test_criterion_1_rotation_suite():
    with criterion(1, "rotations orthogonal and direction-aligned over 1e4 draws"):
        rng = np.random.default_rng(20260810)
        per_d = 2000
        for d in range(2, 7):
            e = np.ones(d) / np.sqrt(d)
            count = 0
            while count < per_d:
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                if np.abs(v).min() < 1e-3:
                    continue
                count += 1
                r = rotation_for(Direction(v)).entries
                assert np.abs(r @ r.T - np.eye(d)).max() <= 1e-10
                assert np.abs(r @ v - e).max() <= 1e-10
            r_e = rotation_for(diagonal_direction(d)).entries
            assert np.abs(r_e - np.eye(d)).max() <= 1e-12
        r_me = rotation_for(diagonal_direction(2, negative=True)).entries
        assert np.abs(r_me + np.eye(2)).max() <= 1e-12


def test_criterion_2_counting_oracle_equivalence():
    with criterion(2, "empirical tail counts match the naive counting oracle"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(3, 51))
            d = int(rng.integers(1, 5))
            sample = rng.standard_normal((n, d)) * rng.uniform(0.2, 4.0)
            k = int(rng.integers(2, n))
            a = rng.uniform(0.2, 2.0, d)
            b = rng.uniform(0.1, 2.0, d)
            fit = TailFit(k=k, gamma_marginal=np.full(d, 0.4), gamma=0.4,
                          a=a, b=b, n=n)
            ctx = StdfContext(sample, fit)
            x = rng.standard_normal(d)
            thr = a * x + b
            oracle = sum(
                1 for row in sample if any(row[j] > thr[j] for j in range(d))
            )
            assert empirical_neg_log_G(ctx, x) == oracle / k


def test_criterion_3_t_tail_function_suite():
    with criterion(3, "t tail function: homogeneity, bounds, hand value"):
        rng = np.random.default_rng(5)
        # two-dimensional draws
        for _ in range(700):
            r = rng.uniform(-0.9, 0.9)
            corr = np.array([[1.0, r], [r, 1.0]])
            z = rng.uniform(0.05, 10.0, 2)
            c = rng.uniform(0.05, 20.0)
            val = t_stdf(z, corr, 3.0)
            assert abs(c * t_stdf(c * z, corr, 3.0) - val) / val <= 1e-8
            assert (1.0 / z).max() <= val <= (1.0 / z).sum() + 1e-12
        # three-dimensional draws on the reference scale matrix
        corr3 = TParams(np.zeros(3), SIGMA_3D, 4.0).correlation()
        for _ in range(300):
            z = rng.uniform(0.1, 8.0, 3)
            c = rng.uniform(0.1, 10.0)
            val = t_stdf(z, corr3, 4.0)
            assert abs(c * t_stdf(c * z, corr3, 4.0) - val) / val <= 1e-8
            assert (1.0 / z).max() <= val <= (1.0 / z).sum() + 1e-12
        hand = 2.0 * stats.t.cdf(2.0, 4)
        got = t_stdf(np.array([1.0, 1.0]), np.eye(2), 3.0)
        assert abs(got - 1.8838834764831844) <= 1e-12
        assert abs(got - hand) <= 1e-4


def _gamma_ratio_run(params: TParams, n: int, master: int, replicates: int):
    ratios, k_hats = [], []
    for rep in range(replicates):
        sample = sample_t(params, n, _seed_int(master, n, rep, 0))
        sel = select_k(sample, epsilon=0.25, b1=1000,
                       seed=_seed_int(master, n, rep, 1))
        fit = fit_tails(sample, sel.k_hat)
        ratios.append(fit.gamma_marginal[0] / params.gamma)
        k_hats.append(sel.k_hat)
    return np.asarray(ratios), np.asarray(k_hats)


def test_criterion_4_tail_index_recovery():
    with criterion(4, "bootstrap-tuned tail index recovery, n=5000 vs n=500"):
        params = TParams(np.zeros(2), SIGMA_2D, 3.0)
        big, k_big = _gamma_ratio_run(params, 5000, 1, 100)
        small, _ = _gamma_ratio_run(params, 500, 1, 100)
        q_big = np.percentile(big, [25, 50, 75])
        q_small = np.percentile(small, [25, 50, 75])
        k_q = np.percentile(k_big, [25, 75])
        print(f"  n=5000 ratio median {q_big[1]:.3f}, IQR {q_big[2] - q_big[0]:.3f}; "
              f"n=500 IQR {q_small[2] - q_small[0]:.3f}; "
              f"k_hat IQR [{k_q[0]:.0f}, {k_q[1]:.0f}]")
        assert 0.85 <= q_big[1] <= 1.15
        assert (q_big[2] - q_big[0]) < (q_small[2] - q_small[0])
        # selected fractions concentrate well inside the admissible range
        assert 2 < k_q[0] and k_q[1] < 5000 / 4


def test_criterion_5_rho_consistency():
    with criterion(5, "empirical radius tracks the theoretical radius"):
        params = TParams(np.zeros(2), SIGMA_2D, 3.0)
        e = diagonal_direction(2)
        sample = sample_t(params, 100_000, 123)
        sel = select_k(sample, epsilon=0.25, b1=1000, seed=77)
        fit = fit_tails(sample, sel.k_hat)
        ctx = StdfContext(sample, fit)
        grid = theta_grid(2, 64, 0.05)
        rel = []
        for theta in grid.thetas:
            est = rho_hat(ctx, theta).value
            truth = theoretical_rho(theta, params, e)
            rel.append(abs(est - truth) / truth)
        med = float(np.median(rel))
        print(f"  k_hat={sel.k_hat}, median relative radius error {med:.4f}")
        assert med <= 0.15


def _re_study(params: TParams, u: Direction, n: int, master: int, replicates: int):
    r = rotation_for(u)
    theta_star = np.ones(params.d) / np.sqrt(params.d)
    alpha = 1.0 / n
    res = []
    failures = 0
    for rep in range(replicates):
        sample = sample_t(params, n, _seed_int(master, n, rep, 0))
        rotated = rotate(r, sample)
        sel = select_k(rotated, epsilon=0.25, b1=1000,
                       seed=_seed_int(master, n, rep, 1))
        try:
            fit = fit_tails(rotated, sel.k_hat)
            rho = rho_hat(StdfContext(rotated, fit), theta_star).value
            x_hat = quantile_point(fit, rho, theta_star, alpha)
        except HeavyTailError:
            failures += 1
            continue
        x_tilde = asymptotic_quantile(params, u, alpha, theta_star, n / fit.k)
        res.append(relative_error(x_tilde, x_hat))
    return np.asarray(res), failures


def test_criterion_6_re_improves_with_sample_size():
    label = "full" if FULL else "reduced"
    with criterion(6, f"relative error shrinks with sample size ({label} profile)"):
        params = TParams(np.zeros(3), SIGMA_3D, 4.0)
        u = fpc_direction(SIGMA_3D)
        n_small, reps_small = 500, 40
        n_big, reps_big = (50_000, 20) if FULL else (20_000, 10)
        re_small, fail_small = _re_study(params, u, n_small, 9, reps_small)
        re_big, fail_big = _re_study(params, u, n_big, 9, reps_big)
        print(f"  n={n_small}: {len(re_small)} valid of {reps_small}, "
              f"median RE {np.median(re_small):.3f}; "
              f"n={n_big}: {len(re_big)} valid of {reps_big}, "
              f"median RE {np.median(re_big):.3f}")
        assert len(re_small) >= 3
        assert len(re_big) >= reps_big // 2
        assert np.median(re_big) < np.median(re_small)


def test_criterion_7_inversion_identity():
    with criterion(7, "tail level inverts surface points back to alpha"):
        params = TParams(np.zeros(2), SIGMA_2D, 3.0)
        e = diagonal_direction(2)
        sample = sample_t(params, 5000, 314)
        alpha = 1.0 / 5000
        grid = theta_grid(2, 16, 0.05)
        surf = estimate_surface(sample, e, alpha, grid, k=200)
        ctx = StdfContext(sample, surf.fit)
        exact = 0
        for x_rot, x_orig, rho in zip(surf.x_rotated, surf.x_original, surf.rho):
            az = tail_level(ctx, x_orig, e)
            assert abs(az - alpha) / alpha <= 0.05
            gam = surf.fit.gamma_marginal
            w = np.maximum(0.0, 1.0 + gam * (x_rot - surf.fit.b)
                           / surf.fit.a) ** (1.0 / gam)
            theta_z = w / np.linalg.norm(w)
            if rho_hat(ctx, theta_z).value == rho:
                assert az == pytest.approx(alpha, rel=1e-12)
                exact += 1
        print(f"  {exact} of {len(grid)} grid points invert exactly")
        assert exact > 0


def test_criterion_8_flagged_fraction_at_moderate_level():
    with criterion(8, "flagged fraction near alpha at a moderate level"):
        # strong tail dependence keeps the mass beyond the directional
        # layer comparable to alpha; weak dependence would shrink it
        params = TParams(np.zeros(2), np.array([[1.0, 0.9], [0.9, 1.0]]), 3.0)
        sample = sample_t(params, 100_000, 11)
        res = flag_outliers(sample, diagonal_direction(2), 0.01, k=2000)
        frac = float(res.flagged.mean())
        print(f"  flagged fraction {frac:.5f}")
        assert 0.005 <= frac <= 0.02


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "bit-identical outputs across repeats"):
        rng = np.random.default_rng(4)
        sample = rng.uniform(size=(1200, 2)) ** (-0.5)
        s1 = select_k(sample, b1=60, seed=5)
        s2 = select_k(sample, b1=60, seed=5)
        assert s1.to_dict() == s2.to_dict()

        data = tmp_path / "d.csv"
        data.write_text(
            "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in sample) + "\n"
        )
        argv = ["estimate", "--input", str(data), "--alpha", "1/1200",
                "--k", "auto", "--b1", "60", "--seed", "5", "--grid", "6"]
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        mc = ["mc-study", "--mu", "0,0", "--sigma", "5,0.1,0.1,1", "--nu", "3",
              "--n", "5000", "--replicates", "2", "--b1", "1000",
              "--grid", "4", "--seed", "40"]
        assert main(mc + ["--output", str(tmp_path / "m1")]) == 0
        assert main(mc + ["--output", str(tmp_path / "m2")]) == 0
        for suffix in (".replicates.csv", ".rho.csv", ".bands.csv", ".summary.json"):
            assert (tmp_path / ("m1" + suffix)).read_bytes() == \
                (tmp_path / ("m2" + suffix)).read_bytes()


def test_criterion_10_principal_component_values():
    with criterion(10, "principal directions and rotated scale match references"):
        u2 = fpc_direction(SIGMA_2D)
        assert np.abs(u2.components - np.array([0.9997, 0.025])).max() <= 1e-3
        u3 = fpc_direction(SIGMA_3D)
        assert np.abs(
            u3.components - np.array([0.8417, 0.4202, -0.3392])
        ).max() <= 1e-3
        rotated = rotate_elliptical(
            TParams(np.zeros(2), SIGMA_2D, 3.0), rotation_for(u2)
        )
        expected = np.array([[3.0001, 2.0025], [2.0025, 2.9999]])
        assert np.abs(rotated.sigma - expected).max() <= 1e-3
