"""Quantile surface assembly: angular grids, extrapolated points, inversion.

A surface point along angle theta at level alpha is obtained by scaling
the empirical radius into the per-marginal extrapolation formula, then
rotating back to original coordinates. The inversion (tail_level) maps
an arbitrary point to the level alpha_z at which it would sit on the
surface; flagging compares alpha_z against a target level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bootstrap import KSelection, select_k
from .errors import DataError, HeavyTailError, PositivityError
from .evt import TailFit, fit_tails
from .geometry import Direction, RotationMatrix, rotate, rotation_for
from .stdf import StdfContext, rho_hat_batch

DEFAULT_GRID_M = 64
DEFAULT_GRID_DELTA = 0.01
DEFAULT_MIN_ROWS = 50


@dataclass(frozen=True)
class ThetaGrid:
    """Unit angular grid with all components bounded away from the axes."""

    thetas: np.ndarray
    m: int
    delta: float
    angles: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.array(self.thetas, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "thetas", t)
        if self.angles is not None:
            a = np.array(self.angles, dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, "angles", a)
        if (np.abs(np.linalg.norm(t, axis=1) - 1.0) > 1e-12).any():
            raise ValueError("grid angles must have unit norm within 1e-12")
        if (t <= 0).any():
            raise ValueError("grid angles must have strictly positive components")

    @property
    def d(self) -> int:
        return self.thetas.shape[1]

    def __len__(self) -> int:
        return self.thetas.shape[0]


def theta_grid(d: int, m: int = DEFAULT_GRID_M, delta: float = DEFAULT_GRID_DELTA) -> ThetaGrid:
    """Spherical grid of m^(d-1) unit vectors with angles in [delta, pi/2 - delta].

    Angles are spaced as delta + span * i/(m-1), which makes refinement
    from m to 2m-1 points reproduce the original angles bit-identically.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if m < 2:
        raise ValueError(f"need m >= 2 grid values per angle, got {m}")
    if not (0.0 < delta < np.pi / 4):
        raise ValueError(f"delta must lie in (0, pi/4), got {delta!r}")
    if d == 1:
        return ThetaGrid(np.ones((1, 1)), m, delta, angles=np.zeros((1, 0)))
    span = np.pi / 2 - 2.0 * delta
    angles = delta + span * (np.arange(m) / (m - 1))
    mesh = np.meshgrid(*([angles] * (d - 1)), indexing="ij")
    phis = np.stack([g.ravel() for g in mesh], axis=1)
    out = np.ones((phis.shape[0], d))
    sin_prod = np.ones(phis.shape[0])
    for i in range(d - 1):
        out[:, i] = sin_prod * np.cos(phis[:, i])
        sin_prod = sin_prod * np.sin(phis[:, i])
    out[:, d - 1] = sin_prod
    # renormalize: trigonometric products stay within 1e-15 of unit norm,
    # the division pins the invariant exactly
    out /= np.linalg.norm(out, axis=1)[:, None]
    return ThetaGrid(out, m, delta, angles=phis)


def quantile_point(fit: TailFit, rho: float, theta, alpha: float) -> np.ndarray:
    """Extrapolated surface point (rotated coordinates) along one angle."""
    theta = np.asarray(theta, dtype=float)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    gam = fit.gamma_marginal
    if (gam <= 0).any():
        j = int(np.argmax(gam <= 0))
        raise HeavyTailError(
            f"marginal {j} tail index {float(gam[j])!r} <= 0; out-sample extrapolation "
            "requires heavy tails"
        )
    base = (fit.k * rho * theta) / (fit.n * alpha)
    if (base <= 0).any() or not np.isfinite(base).all():
        raise ValueError(f"non-positive extrapolation base {base!r}")
    return fit.a * (base**gam - 1.0) / gam + fit.b


@dataclass(frozen=True)
class SurfacePoint:
    theta: np.ndarray
    x_rotated: np.ndarray
    x_original: np.ndarray
    rho: float
    floored: bool


@dataclass(frozen=True)
class QuantileSurface:
    """Estimated quantile surface at level alpha in one direction."""

    alpha: float
    direction: Direction
    k: int
    points: list[SurfacePoint]
    fit: TailFit
    k_selection: Optional[KSelection] = None
    center_offset: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        r = rotation_for(self.direction)
        for p in self.points:
            dev = np.abs(p.x_original - r.entries.T @ p.x_rotated).max()
            if dev > 1e-10:
                raise ValueError(f"inverse-rotation invariant violated by {dev!r}")

    @property
    def gamma(self) -> float:
        return self.fit.gamma

    def to_dict(self) -> dict:
        return {
            "alpha": float(self.alpha),
            "direction": [float(c) for c in self.direction.components],
            "k": int(self.k),
            "gamma": float(self.gamma),
            "points": [
                {
                    "theta": [float(v) for v in p.theta],
                    "x_rotated": [float(v) for v in p.x_rotated],
                    "x_original": [float(v) for v in p.x_original],
                    "rho": float(p.rho),
                    "floored": bool(p.floored),
                }
                for p in self.points
            ],
            "fit": self.fit.to_dict(),
            "center_offset": None
            if self.center_offset is None
            else [float(v) for v in self.center_offset],
        }


def _rotated_positive_or_raise(rotated: np.ndarray, k: int) -> None:
    n = rotated.shape[0]
    thresholds = np.sort(rotated, axis=0)[n - 1 - k, :]
    bad = np.flatnonzero(thresholds <= 0)
    if bad.size:
        med = np.median(rotated, axis=0)
        raise PositivityError(
            f"rotated marginals {bad.tolist()} have non-positive upper order "
            f"statistics at k={k}; recenter the data first (for instance subtract "
            f"the componentwise median {np.round(med, 6).tolist()})"
        )


def estimate_surface(
    sample,
    u: Direction,
    alpha: float,
    grid: Optional[ThetaGrid] = None,
    k="auto",
    *,
    k_rho: Optional[int] = None,
    epsilon: float = 0.25,
    b1: int = 1000,
    seed: int = 0,
    min_rows: int = DEFAULT_MIN_ROWS,
) -> QuantileSurface:
    """Estimate the quantile surface of a sample at level alpha in direction u.

    With k="auto" the bootstrap selection supplies the sample fraction.
    k_rho optionally decouples the fraction used by the radius estimator
    from the one used by the marginal extrapolation.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2:
        raise ValueError(f"expected an (n, d) sample, got shape {sample.shape}")
    n, d = sample.shape
    if n < min_rows:
        raise DataError(f"need at least {min_rows} rows, got {n}")
    if not isinstance(u, Direction):
        u = Direction(np.asarray(u, dtype=float))
    if u.d != d:
        raise ValueError(f"direction dimension {u.d} does not match data d={d}")
    if grid is None:
        grid = theta_grid(d)
    if grid.d != d:
        raise ValueError(f"grid dimension {grid.d} does not match data d={d}")

    r = rotation_for(u)
    rotated = rotate(r, sample)

    selection = None
    if isinstance(k, str):
        if k != "auto":
            raise ValueError(f"k must be an integer or 'auto', got {k!r}")
        selection = select_k(rotated, epsilon=epsilon, b1=b1, seed=seed)
        k = selection.k_hat
    k = int(k)

    _rotated_positive_or_raise(rotated, k)
    fit = fit_tails(rotated, k)
    ctx = StdfContext(rotated, fit)
    ctx_rho = ctx if k_rho is None else StdfContext(rotated, fit_tails(rotated, int(k_rho)))

    rhos, floored = rho_hat_batch(ctx_rho, grid.thetas)
    points = []
    for theta, rho, flo in zip(grid.thetas, rhos, floored):
        x_rot = quantile_point(fit, float(rho), theta, alpha)
        x_orig = r.entries.T @ x_rot
        points.append(
            SurfacePoint(
                theta=theta.copy(), x_rotated=x_rot, x_original=x_orig,
                rho=float(rho), floored=bool(flo),
            )
        )
    return QuantileSurface(
        alpha=alpha, direction=u, k=k, points=points, fit=fit, k_selection=selection
    )


def shift_surface(surface: QuantileSurface, offset) -> QuantileSurface:
    """Translate a surface estimated on centered data back to raw coordinates.

    Both coordinate systems move consistently (the rotated points shift
    by R offset), so the inverse-rotation invariant is preserved.
    """
    offset = np.asarray(offset, dtype=float)
    r = rotation_for(surface.direction)
    rot_off = r.entries @ offset
    points = [
        SurfacePoint(
            theta=p.theta,
            x_rotated=p.x_rotated + rot_off,
            x_original=p.x_original + offset,
            rho=p.rho,
            floored=p.floored,
        )
        for p in surface.points
    ]
    return QuantileSurface(
        alpha=surface.alpha, direction=surface.direction, k=surface.k,
        points=points, fit=surface.fit, k_selection=surface.k_selection,
        center_offset=offset,
    )


def tail_levels(
    ctx: StdfContext, zs, u: Direction | RotationMatrix, fit: Optional[TailFit] = None
) -> np.ndarray:
    """Vectorized tail levels alpha_z for points in original coordinates.

    ``u`` is the direction or its already built rotation. Points whose
    Frechet weights all vanish are outside the extremal region and get
    alpha_z = +inf.
    """
    fit = ctx.fit if fit is None else fit
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    r = rotation_for(u) if not isinstance(u, RotationMatrix) else u
    zr = rotate(r, zs)
    gam = fit.gamma_marginal
    if (gam <= 0).any():
        raise HeavyTailError("tail levels require positive marginal tail indexes")
    w = np.maximum(0.0, 1.0 + gam * (zr - fit.b) / fit.a) ** (1.0 / gam)
    norms = np.linalg.norm(w, axis=1)
    out = np.full(zs.shape[0], np.inf)
    inside = norms > 0
    if inside.any():
        thetas = w[inside] / norms[inside, None]
        rhos, _ = rho_hat_batch(ctx, thetas)
        # the prefactor pairs with the fit that produced w, not with the
        # (possibly separately tuned) radius context
        out[inside] = (fit.k / fit.n) * rhos / norms[inside]
    return out


def tail_level(ctx: StdfContext, z, u: Direction, fit: Optional[TailFit] = None) -> float:
    """Level alpha_z at which point z would lie on the quantile surface."""
    return float(tail_levels(ctx, np.asarray(z, dtype=float)[None, :], u, fit)[0])


@dataclass(frozen=True)
class OutlierFlags:
    """Per-row tail levels and flags for one direction and target level."""

    alpha: float
    alpha_z: np.ndarray
    flagged: np.ndarray
    fit: TailFit
    k_selection: Optional[KSelection] = None


def flag_outliers(
    sample,
    u: Direction,
    alpha: float,
    k="auto",
    *,
    epsilon: float = 0.25,
    b1: int = 1000,
    seed: int = 0,
) -> OutlierFlags:
    """Flag sample rows lying beyond the level-alpha surface in direction u.

    A row is flagged when its tail level is below alpha and the row lies
    in the extremal region (alpha_z <= k/n); rows with larger levels are
    interior and never flagged.
    """
    sample = np.asarray(sample, dtype=float)
    if not isinstance(u, Direction):
        u = Direction(np.asarray(u, dtype=float))
    r = rotation_for(u)
    rotated = rotate(r, sample)
    selection = None
    if isinstance(k, str):
        if k != "auto":
            raise ValueError(f"k must be an integer or 'auto', got {k!r}")
        selection = select_k(rotated, epsilon=epsilon, b1=b1, seed=seed)
        k = selection.k_hat
    k = int(k)
    _rotated_positive_or_raise(rotated, k)
    fit = fit_tails(rotated, k)
    ctx = StdfContext(rotated, fit)
    alpha_z = tail_levels(ctx, sample, r)
    flagged = (alpha_z < alpha) & (alpha_z <= fit.k / fit.n)
    return OutlierFlags(
        alpha=alpha, alpha_z=alpha_z, flagged=flagged, fit=fit, k_selection=selection
    )
