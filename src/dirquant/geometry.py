"""Directions and their QR-oriented rotations.

A direction is a unit vector u with non-null components. Its rotation
R_u is the unique orthogonal matrix built from positive-diagonal QR
factorizations that maps u onto the diagonal unit vector
e = (1, ..., 1)/sqrt(d). The oriented orthant of u with vertex x is the
set of points z with R_u (z - x) >= 0 componentwise, so in rotated
coordinates it is the ordinary upper orthant, where the estimator works.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, FactorizationError, InvalidDirectionError, _readonly

NONNULL_TOL = 1e-8
UNIT_TOL = 1e-12
ORTHO_TOL = 1e-10
RCOND_MIN = 1e-12


def _require_finite_components(v: np.ndarray) -> None:
    flat = v.ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        # numbered from 1, as rows, columns and model components are
        raise InvalidDirectionError(
            f"direction component {bad[0] + 1} is not finite (value {float(flat[bad[0]])!r})"
        )


@dataclass(frozen=True)
class Direction:
    """Unit vector with non-null components selecting an analysis perspective."""

    components: np.ndarray

    def __post_init__(self):
        comp = _readonly(np.atleast_1d(self.components))
        object.__setattr__(self, "components", comp)
        if comp.ndim != 1 or comp.size < 2:
            raise InvalidDirectionError(
                f"direction must be a vector of dimension >= 2, got shape {comp.shape}"
            )
        _require_finite_components(comp)
        norm = float(np.linalg.norm(comp))
        if abs(norm - 1.0) > UNIT_TOL:
            raise InvalidDirectionError(
                f"direction must have unit norm within {UNIT_TOL}; got norm {norm!r}"
            )
        small = np.abs(comp) < NONNULL_TOL
        if small.any():
            idx = int(np.argmax(small))
            raise InvalidDirectionError(
                f"direction component {idx + 1} is below the non-null threshold "
                f"{NONNULL_TOL} (value {float(comp[idx])!r})"
            )

    @property
    def d(self) -> int:
        return self.components.size

    @classmethod
    def from_vector(cls, v) -> "Direction":
        """Normalize an arbitrary non-zero vector into a Direction."""
        v = np.asarray(v, dtype=float)
        _require_finite_components(v)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise InvalidDirectionError("cannot normalize the zero vector")
        return cls(v / norm)


def diagonal_direction(d: int, negative: bool = False) -> Direction:
    """The diagonal unit direction e = (1, ..., 1)/sqrt(d), or its negative."""
    e = np.ones(d) / np.sqrt(d)
    return Direction(-e if negative else e)


@dataclass(frozen=True)
class RotationMatrix:
    """Orthogonal matrix R_u with R_u u = e, derived from QR factorizations."""

    entries: np.ndarray
    source_direction: Direction

    def __post_init__(self):
        r = _readonly(self.entries)
        object.__setattr__(self, "entries", r)
        d = self.source_direction.d
        if r.shape != (d, d):
            raise InvalidDirectionError(f"rotation shape {r.shape} does not match d={d}")
        dev = np.abs(r @ r.T - np.eye(d)).max()
        if dev > ORTHO_TOL:
            raise FactorizationError(f"rotation is not orthogonal: max deviation {float(dev)!r}")
        e = np.ones(d) / np.sqrt(d)
        dev_u = np.abs(r @ self.source_direction.components - e).max()
        if dev_u > ORTHO_TOL:
            raise FactorizationError(f"rotation does not map u to e: deviation {float(dev_u)!r}")

    @property
    def d(self) -> int:
        return self.source_direction.d


def qr_positive_diag(m: np.ndarray):
    """QR factorization with the diagonal of the triangular factor positive.

    Parameters
    ----------
    m : (d, d) array
        Full-rank square matrix.

    Returns
    -------
    q, t : (d, d) arrays
        Orthogonal and upper-triangular factors with m = q @ t and
        diag(t) > 0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    sv = np.linalg.svd(m, compute_uv=False)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if not np.isfinite(rcond) or rcond <= RCOND_MIN:
        raise FactorizationError(
            f"matrix is singular or near-singular (rcond={float(rcond)!r}): {m.tolist()}"
        )
    q, t = np.linalg.qr(m)
    # Householder QR fixes the factorization only up to column signs;
    # flip (Q column, T row) pairs so that diag(T) > 0.
    signs = np.sign(np.diag(t))
    signs[signs == 0] = 1.0
    return q * signs, t * signs[:, None]


def rotation_for(u: Direction | RotationMatrix) -> RotationMatrix:
    """Rotation R_u = Q_e Q_u' mapping direction u onto the diagonal e.

    An already built rotation is returned unchanged.
    """
    if isinstance(u, RotationMatrix):
        return u
    if not isinstance(u, Direction):
        u = Direction(np.asarray(u, dtype=float))
    d = u.d
    comp = u.components
    if comp[0] > 0 and np.all(comp == comp[0]):
        # u equals e exactly: the factorizations coincide and R is the identity.
        return RotationMatrix(np.eye(d), u)
    m_u = np.eye(d) * np.sign(comp)
    m_u[:, 0] = comp
    m_e = np.eye(d)
    m_e[:, 0] = 1.0 / np.sqrt(d)
    q_u, _ = qr_positive_diag(m_u)
    q_e, _ = qr_positive_diag(m_e)
    return RotationMatrix(q_e @ q_u.T, u)


def rotate(r: RotationMatrix, points) -> np.ndarray:
    """Apply a rotation to one point (counted as row 1) or to rows of points. DataError
    names the first overflowed cell of a finite row; a non-finite row passes through."""
    entries = r.entries if isinstance(r, RotationMatrix) else np.asarray(r, dtype=float)
    pts = np.asarray(points, dtype=float)
    d = entries.shape[0]
    if pts.shape[-1] != d:
        raise ValueError(f"points have dimension {pts.shape[-1]}, rotation expects {d}")
    if (entries == np.eye(d)).all():
        return pts.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        out = pts @ entries.T
    if not np.isfinite(out).all():
        rows = out.reshape(-1, d)
        bad = ~np.isfinite(rows) & np.isfinite(pts.reshape(-1, d)).all(axis=1, keepdims=True)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(f"rotated sample cell at row {i + 1}, column {j + 1} overflowed to "
                            f"{float(rows[i, j])!r}; rescale the sample")
    return out

