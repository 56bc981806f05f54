"""Exception and warning taxonomy shared across the package.

Two error families matter to callers: ``DataError`` covers violated
distributional assumptions or malformed inputs (CLI exit code 3), while
``NumericalError`` covers failures of numeric procedures such as
factorizations or root finding (CLI exit code 4). Every entry point
that takes a sample reads it through one coercion, ``_sample_columns``.
"""

import numpy as np


class DirquantError(Exception):
    """Base class for all package-specific errors."""


class DataError(DirquantError):
    """Input data or model assumptions are violated."""


class NumericalError(DirquantError):
    """A numeric routine failed to produce a reliable result."""


class InvalidDirectionError(DataError):
    """Direction vector is not unit norm or has (near-)null components."""


class PositivityError(DataError):
    """Order statistics used as thresholds are not strictly positive."""


class HeavyTailError(DataError):
    """A tail-index estimate is non-positive where a heavy tail is required."""


class DegenerateMomentsError(DataError):
    """Log-moment statistics are degenerate (zero or collinear)."""


class DegenerateModelError(DataError):
    """Model parameters are degenerate (non-finite values, eigenvalue ties,
    |r| = 1, ...)."""


class UnsupportedDimensionError(DataError):
    """Requested dimension is outside the supported range of an oracle."""


class ResamplingError(DataError):
    """Bootstrap resampling could not retain enough usable rows."""


def _require_finite(cells: np.ndarray, what: str = "sample cell") -> None:
    """Raise DataError naming the first non-finite cell of a 2-D array,
    with its 1-based row and column."""
    finite = np.isfinite(cells)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataError(
            f"non-finite {what} at row {i + 1}, column {j + 1}: {float(cells[i, j])!r}"
        )


def _sample_columns(values) -> np.ndarray:
    """``values`` as a finite float (n, d) sample; a 1-D sample is n rows of
    one marginal. DataError names the first non-finite cell."""
    sample = np.asarray(values, dtype=float)
    if sample.ndim == 1:
        sample = sample[:, None]
    _require_finite(sample)
    return sample


def _readonly(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` as a ``dtype`` array (None infers it)."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class FactorizationError(NumericalError):
    """Matrix factorization failed (singular or near-singular input)."""


class InversionError(NumericalError):
    """Numeric inversion (quantile root finding) did not converge."""


class EstimationWarning(UserWarning):
    """Base class for diagnostic warnings emitted by the pipeline."""


class TailDisparityWarning(EstimationWarning):
    """Marginal tail-index estimates are suspiciously far apart."""


class SmallSampleWarning(EstimationWarning):
    """Sample too small for the full bootstrap procedure; degraded path used."""
