"""Output checks made apart from the program under test.

Every check recomputes what it compares against from the input and the
paper's definitions with numpy and scipy only; nothing here imports the
program. Each function returns a list of error messages, empty when the
output passes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy import stats

from reference import (ROUNDING, leading_direction, moment_fit, rotation, t_stdf_3d,
                       theta_grid, union_counts)
from workloads import ESTIMATE, FLAG, NU_3D, ORACLE, SIGMA_3D, load_sample

# Fixed subset of oracle angles compared with an independent evaluation
# of the t stable tail dependence function.
ORACLE_STDF_ANGLES = (0, 21, 42, 63)
# Every FLAG_STRIDE-th row gets a naive recount of its tail level.
FLAG_STRIDE = 100


def _rel_err(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x - y) / np.maximum(np.abs(y), 1e-300)))


def _close(errors: list, what: str, got, want, rtol: float) -> None:
    err = _rel_err(got, want)
    if not err <= rtol:
        errors.append(f"{what}: relative error {err:.3g} above {rtol:g}")


def _check_counts(errors, what, got, rotated, thresholds, want) -> None:
    """Compare counts; a mismatch is allowed only up to the number of rows
    within rounding distance of that threshold."""
    for i in np.flatnonzero(got != want):
        thr = thresholds[i]
        near = (np.abs(rotated - thr) <= ROUNDING * (np.abs(thr) + 1.0)).any(axis=1).sum()
        if abs(int(got[i]) - int(want[i])) > near:
            errors.append(f"{what}: program {got[i]} vs naive {want[i]} at index {i}")
            return


def _check_rotation_identities(errors, u, r, x_rot, x_orig) -> None:
    d = r.shape[0]
    e = np.ones(d) / math.sqrt(d)
    _close(errors, "x_original = R' x_rotated", x_orig, x_rot @ r, 1e-10)
    _close(errors, "|x_original| = |x_rotated|", np.linalg.norm(x_orig, axis=1),
           np.linalg.norm(x_rot, axis=1), 1e-12)
    scale = np.linalg.norm(x_rot, axis=1)
    dev = np.abs(x_orig @ u - x_rot @ e) / scale
    if not dev.max() <= 1e-12:
        errors.append(f"u.x_original = e.x_rotated violated by {dev.max():.3g}")


def _extrapolate(a, b, gam, rho, thetas, scale_over_alpha) -> np.ndarray:
    base = scale_over_alpha * rho[:, None] * thetas
    return a * (base ** gam - 1.0) / gam + b


def check_estimate(op: dict, doc: dict, report: dict) -> list[str]:
    errors: list[str] = []
    x = load_sample(op["input"])
    n, d = x.shape
    u = leading_direction(np.cov(x.T))
    _close(errors, "direction", doc["direction"], u, 1e-10)
    if doc["alpha"] != float(Fraction(ESTIMATE["alpha"])):
        errors.append(f"alpha {doc['alpha']!r} is not {ESTIMATE['alpha']}")
    k = doc["k"]
    fit = doc["fit"]
    sel = report["k_selection"]
    if not (2 <= k <= n - 1 and fit["k"] == k and fit["n"] == n and sel["k_hat"] == k):
        errors.append(f"k={k} inconsistent with fit {fit['k']}, n={n} or k_hat {sel['k_hat']}")
        return errors
    want = op["bootstrap"]
    got = {key: sel[key] for key in want}
    if got != want:
        errors.append(f"bootstrap choice {got} differs from the reference {want}")

    r = rotation(u)
    y = x @ r.T
    gam, a, b = moment_fit(y, k)
    _close(errors, "gamma_j", fit["gamma_marginal"], gam, 1e-10)
    _close(errors, "gamma", [fit["gamma"], doc["gamma"]], [gam.mean()] * 2, 1e-10)
    _close(errors, "b_j = X_(n-k)", fit["b"], b, 1e-12)
    _close(errors, "a_j", fit["a"], a, 1e-10)

    pts = doc["points"]
    thetas = np.array([p["theta"] for p in pts])
    rho = np.array([p["rho"] for p in pts])
    if thetas.shape != (ESTIMATE["grid"], d):
        errors.append(f"{len(pts)} points, expected {ESTIMATE['grid']}")
        return errors
    _close(errors, "theta grid", thetas, theta_grid(d, ESTIMATE["grid"]), 1e-12)
    got = np.rint(rho * k).astype(np.int64)
    if _rel_err(rho, got / k) > 1e-14:
        errors.append("rho is not a multiple of 1/k")
    thresholds = a * (thetas ** gam - 1.0) / gam + b
    counts = union_counts(y, thresholds)
    _check_counts(errors, "rho*k", got, y, thresholds, np.maximum(counts, 1))
    floored = np.array([p["floored"] for p in pts])
    _check_counts(errors, "floored", floored.astype(np.int64), y, thresholds,
                  (counts == 0).astype(np.int64))

    x_rot = np.array([p["x_rotated"] for p in pts])
    x_orig = np.array([p["x_original"] for p in pts])
    _close(errors, "x_rotated", x_rot,
           _extrapolate(a, b, gam, rho, thetas, k / (n * doc["alpha"])), 1e-9)
    _check_rotation_identities(errors, u, r, x_rot, x_orig)
    return errors


def parse_flag_csv(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "row,alpha_z,flagged":
        raise ValueError("flag output lacks the row,alpha_z,flagged header")
    rows = [ln.split(",") for ln in lines[1:]]
    idx = np.array([int(c[0]) for c in rows])
    alpha_z = np.array([float(c[1]) for c in rows])
    flagged = np.array([c[2] == "true" for c in rows])
    if not all(c[2] in ("true", "false") for c in rows):
        raise ValueError("flagged column holds values other than true/false")
    return idx, alpha_z, flagged


def check_flag(op: dict, text: str) -> list[str]:
    errors: list[str] = []
    x = load_sample(op["input"])
    n, d = x.shape
    alpha, k = float(FLAG["alpha"]), FLAG["k"]
    try:
        idx, alpha_z, flagged = parse_flag_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable flag output: {exc}"]
    if idx.size != n or not np.array_equal(idx, np.arange(n)):
        return [f"output has {idx.size} rows numbered out of order; input has {n}"]
    want_flag = (alpha_z < alpha) & (alpha_z <= k / n)
    if not np.array_equal(flagged, want_flag):
        errors.append(f"{int((flagged != want_flag).sum())} rows flagged against "
                      "alpha_z < alpha and alpha_z <= k/n")
    frac = float(flagged.mean())
    if not alpha / 2 <= frac <= 2 * alpha:
        errors.append(f"flagged fraction {frac:.5f} outside [{alpha / 2}, {2 * alpha}]")

    r = rotation(np.ones(d) / math.sqrt(d))
    y = x @ r.T
    gam, a, b = moment_fit(y, k)
    arg = 1.0 + gam * (y - b) / a
    w = np.maximum(0.0, arg) ** (1.0 / gam)
    norms = np.linalg.norm(w, axis=1)
    decided = np.abs(arg).min(axis=1) > ROUNDING
    outside = norms == 0
    if not np.array_equal(np.isinf(alpha_z)[decided], outside[decided]):
        errors.append(f"{int((np.isinf(alpha_z) != outside)[decided].sum())} rows "
                      "have alpha_z = inf where Frechet weights do not all vanish, "
                      "or the reverse")
    subset = np.union1d(np.arange(0, n, FLAG_STRIDE), np.flatnonzero(flagged))
    subset = subset[~outside[subset] & ~np.isinf(alpha_z[subset])]
    thetas = w[subset] / norms[subset, None]
    thresholds = a * (thetas ** gam - 1.0) / gam + b
    counts = union_counts(y, thresholds)
    got = np.rint(alpha_z[subset] * n * norms[subset]).astype(np.int64)
    _check_counts(errors, "alpha_z * n * |w|", got, y, thresholds, np.maximum(counts, 1))
    want = np.maximum(counts, 1) / (n * norms[subset])
    ok = got == np.maximum(counts, 1)
    _close(errors, "alpha_z", alpha_z[subset][ok], want[ok], 1e-9)
    return errors


def oracle_direction(spec: str) -> np.ndarray:
    if spec == "fpc":
        return leading_direction(SIGMA_3D)
    v = np.array([float(c) for c in spec.split(",")])
    return v / np.linalg.norm(v)


def check_oracle(op: dict, doc: dict) -> list[str]:
    errors: list[str] = []
    nu, n, k = NU_3D, ORACLE["n"], ORACLE["k"]
    alpha, t = float(Fraction(ORACLE["alpha"])), n / k
    u = oracle_direction(op["direction"])
    _close(errors, "direction", doc["direction"], u, 1e-12)
    fit = doc["fit"]
    if doc["alpha"] != alpha or doc["k"] != k or fit["k"] != k or fit["n"] != n:
        errors.append("alpha, k or n differ from the request")
    _close(errors, "gamma", [doc["gamma"], fit["gamma"], *fit["gamma_marginal"]],
           [1.0 / nu] * 5, 1e-15)
    r = rotation(u)
    cov = r @ np.asarray(SIGMA_3D) @ r.T
    scale = np.sqrt(np.diag(cov))
    b = stats.t.ppf(1.0 - k / n, nu) * scale
    a = b / nu
    fa, fb = np.array(fit["a"]), np.array(fit["b"])
    _close(errors, "b_j", fb, b, 1e-8)
    _close(errors, "a_j = b_j / nu", fa, fb / nu, 1e-14)

    pts = doc["points"]
    thetas = np.array([p["theta"] for p in pts])
    rho = np.array([p["rho"] for p in pts])
    if thetas.shape != (ORACLE["grid"] ** 2, 3):
        return errors + [f"{len(pts)} points, expected {ORACLE['grid'] ** 2}"]
    _close(errors, "theta grid", thetas, theta_grid(3, ORACLE["grid"]), 1e-12)
    if any(p["floored"] for p in pts):
        errors.append("oracle points marked floored")
    inv = 1.0 / thetas
    tol = 1e-12 * inv.sum(axis=1)
    if (rho < inv.max(axis=1) - tol).any() or (rho > inv.sum(axis=1) + tol).any():
        errors.append("rho outside [max_j 1/theta_j, sum_j 1/theta_j]")
    corr = cov / np.outer(scale, scale)
    for g in ORACLE_STDF_ANGLES:
        _close(errors, f"rho at angle {g}", rho[g], t_stdf_3d(thetas[g], corr, nu), 1e-6)

    x_rot = np.array([p["x_rotated"] for p in pts])
    x_orig = np.array([p["x_original"] for p in pts])
    gam = np.full(3, 1.0 / nu)
    _close(errors, "x_rotated (scipy normalisation)", x_rot,
           _extrapolate(a, b, gam, rho, thetas, 1.0 / (t * alpha)), 1e-8)
    _close(errors, "x_rotated (reported normalisation)", x_rot,
           _extrapolate(fa, fb, gam, rho, thetas, 1.0 / (t * alpha)), 1e-12)
    _check_rotation_identities(errors, u, r, x_rot, x_orig)
    return errors


def check_output(workload: str, op: dict) -> list[str]:
    """Check the output files one operation left behind."""
    try:
        with open(op["out"], encoding="utf-8") as fh:
            text = fh.read()
        if workload == "flag-large":
            return check_flag(op, text)
        doc = json.loads(text)
        if workload == "estimate-auto":
            with open(op["out"] + ".report.json", encoding="utf-8") as fh:
                return check_estimate(op, doc, json.load(fh))
        return check_oracle(op, doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output {op['out']}: {type(exc).__name__}: {exc}"]
