"""Quantile surface assembly: angular grids, extrapolated points, inversion.

A surface point along angle theta at level alpha is obtained by scaling
the empirical radius into the per-marginal extrapolation formula, then
rotating back to original coordinates. The inversion (tail_levels) maps
arbitrary points to the levels alpha_z at which they would sit on the
surface; flagging compares alpha_z against a target level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bootstrap import KSelection, select_k
from .errors import DataError, HeavyTailError, PositivityError, _require_finite
from .evt import TailFit, extrapolate, fit_tails, frechet_weights
from .geometry import Direction, RotationMatrix, rotate, rotation_for
from .stdf import StdfContext, rho_hat_batch

DEFAULT_GRID_M = 64
DEFAULT_GRID_DELTA = 0.01
MIN_ROWS = 50


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


def quantile_point(fit: TailFit, rho, theta, alpha: float) -> np.ndarray:
    """Extrapolated surface points (rotated coordinates).

    One radius and angle (d,) give one point; g radii and angles (g, d) give g rows.
    """
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
    base = (fit.k * np.asarray(rho, dtype=float)[..., None] * theta) / (fit.n * alpha)
    if (base <= 0).any() or not np.isfinite(base).all():
        raise ValueError(f"non-positive extrapolation base {base!r}")
    return extrapolate(base, fit.a, fit.b, gam)


@dataclass(frozen=True)
class QuantileSurface:
    """Quantile surface at level alpha in one direction.

    ``thetas``, ``x_rotated``, ``x_original``, ``rho`` and ``floored`` hold
    one row per grid angle. ``fit`` is the estimate's TailFit, or another
    object with its fields and ``to_dict`` (the t-model oracle's ModelFit).
    """

    alpha: float
    rotation: RotationMatrix
    thetas: np.ndarray
    x_rotated: np.ndarray
    x_original: np.ndarray
    rho: np.ndarray
    floored: np.ndarray
    fit: TailFit
    k_selection: Optional[KSelection] = None
    center_offset: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        dev = np.abs(self.x_original - self.x_rotated @ self.rotation.entries).max()
        if dev > 1e-10:
            raise ValueError(f"inverse-rotation invariant violated by {dev!r}")

    @classmethod
    def from_rotated(cls, alpha, rotation, thetas, x_rotated, rho, floored, fit,
                     k_selection=None) -> "QuantileSurface":
        # one matrix-vector product R' x per row, as for a single point: one
        # matrix product over the stack would regroup the sums
        x_original = np.matmul(x_rotated[:, None, :], rotation.entries)[:, 0, :]
        return cls(alpha, rotation, thetas, x_rotated, x_original, rho, floored, fit,
                   k_selection)

    @property
    def direction(self) -> Direction:
        return self.rotation.source_direction

    @property
    def k(self) -> int:
        return self.fit.k

    @property
    def gamma(self) -> float:
        return self.fit.gamma

    def to_dict(self) -> dict:
        columns = (self.thetas, self.x_rotated, self.x_original, self.rho, self.floored)
        return {
            "alpha": float(self.alpha),
            "direction": self.direction.components.tolist(),
            "k": int(self.k),
            "gamma": float(self.gamma),
            "points": [
                {"theta": t, "x_rotated": xr, "x_original": xo, "rho": r, "floored": f}
                for t, xr, xo, r, f in zip(*(c.tolist() for c in columns))
            ],
            "fit": self.fit.to_dict(),
            "center_offset": None
            if self.center_offset is None
            else self.center_offset.tolist(),
        }


@dataclass(frozen=True)
class DirectionalFit:
    """A sample rotated into one direction with its marginal tails fitted.

    ``context`` holds the rotated sample and the TailFit; surfaces at any
    level and tail levels of any points are read from it without refitting.
    """

    rotation: RotationMatrix
    context: StdfContext
    k_selection: Optional[KSelection] = None

    @property
    def fit(self) -> TailFit:
        return self.context.fit

    def surface(self, alpha: float, grid: Optional[ThetaGrid] = None,
                k_rho: Optional[int] = None) -> QuantileSurface:
        """Quantile surface at level alpha over the grid (default theta_grid(d)).

        k_rho optionally gives the radius estimator its own sample fraction.
        """
        ctx = self.context
        grid = theta_grid(ctx.d) if grid is None else grid
        if grid.d != ctx.d:
            raise ValueError(f"grid dimension {grid.d} does not match data d={ctx.d}")
        if k_rho is not None:
            ctx = StdfContext(ctx.rotated_sample, fit_tails(ctx.rotated_sample, int(k_rho)))
        rhos, floored = rho_hat_batch(ctx, grid.thetas)
        x_rot = quantile_point(self.fit, rhos, grid.thetas, alpha)
        return QuantileSurface.from_rotated(alpha, self.rotation, grid.thetas, x_rot, rhos,
                                            floored, self.fit, self.k_selection)

    def levels(self, points) -> np.ndarray:
        """Tail levels alpha_z of points in original coordinates (see tail_levels)."""
        return tail_levels(self.context, points, self.rotation)


def fit_direction(sample, u: Direction | RotationMatrix, k="auto", *,
                  epsilon: float = 0.25, b1: int = 1000, seed: int = 0) -> DirectionalFit:
    """Rotate a finite (n, d) sample into direction u and fit its marginal tails.

    ``u`` is the direction or its already built rotation. With k="auto" the
    bootstrap selection (epsilon, b1, seed) supplies the sample fraction.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2:
        raise ValueError(f"expected an (n, d) sample, got shape {sample.shape}")
    n, d = sample.shape
    if n < MIN_ROWS:
        raise DataError(f"need at least {MIN_ROWS} rows, got {n}")
    _require_finite(sample)
    if not isinstance(u, (Direction, RotationMatrix)):
        u = Direction(np.asarray(u, dtype=float))
    if u.d != d:
        raise ValueError(f"direction dimension {u.d} does not match data d={d}")

    r = u if isinstance(u, RotationMatrix) else rotation_for(u)
    rotated = rotate(r, sample)
    selection = None
    if isinstance(k, str):
        if k != "auto":
            raise ValueError(f"k must be an integer or 'auto', got {k!r}")
        selection = select_k(rotated, epsilon=epsilon, b1=b1, seed=seed)
        k = selection.k_hat
    k = int(k)
    bad = np.flatnonzero(np.sort(rotated, axis=0)[n - 1 - k, :] <= 0)
    if bad.size:
        med = np.median(rotated, axis=0)
        raise PositivityError(
            f"rotated marginals {bad.tolist()} have non-positive upper order "
            f"statistics at k={k}; recenter the data first (for instance subtract "
            f"the componentwise median {np.round(med, 6).tolist()})"
        )
    return DirectionalFit(r, StdfContext(rotated, fit_tails(rotated, k)), selection)


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
) -> QuantileSurface:
    """Estimate the quantile surface of a sample at level alpha in direction u.

    With k="auto" the bootstrap selection supplies the sample fraction.
    k_rho optionally decouples the fraction used by the radius estimator
    from the one used by the marginal extrapolation.
    """
    fitted = fit_direction(sample, u, k, epsilon=epsilon, b1=b1, seed=seed)
    return fitted.surface(alpha, grid, k_rho)


def shift_surface(surface: QuantileSurface, offset) -> QuantileSurface:
    """Translate a surface estimated on centered data back to raw coordinates.

    Both coordinate systems move consistently (the rotated points shift
    by R offset), so the inverse-rotation invariant is preserved.
    """
    offset = np.asarray(offset, dtype=float)
    return replace(
        surface,
        x_rotated=surface.x_rotated + surface.rotation.entries @ offset,
        x_original=surface.x_original + offset,
        center_offset=offset,
    )


def tail_levels(
    ctx: StdfContext, zs, u: Direction | RotationMatrix, fit: Optional[TailFit] = None
) -> np.ndarray:
    """Vectorized tail levels alpha_z for points in original coordinates.

    ``u`` is the direction or its already built rotation. Points whose
    Frechet weights all vanish are outside the extremal region and get
    alpha_z = +inf; a non-finite coordinate raises DataError.
    """
    fit = ctx.fit if fit is None else fit
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    _require_finite(zs, "point coordinate")
    r = rotation_for(u) if not isinstance(u, RotationMatrix) else u
    zr = rotate(r, zs)
    gam = fit.gamma_marginal
    if (gam <= 0).any():
        raise HeavyTailError("tail levels require positive marginal tail indexes")
    w = frechet_weights(zr, fit.a, fit.b, gam)
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
    fitted = fit_direction(sample, u, k, epsilon=epsilon, b1=b1, seed=seed)
    fit = fitted.fit
    alpha_z = fitted.levels(sample)
    flagged = (alpha_z < alpha) & (alpha_z <= fit.k / fit.n)
    return OutlierFlags(alpha, alpha_z, flagged, fit, fitted.k_selection)
