"""Exception hierarchy shared across the package.

Every check on a caller-supplied value (parameters, settings, series, spec
strings, config and CSV files) raises ``InputError``, also a ``ValueError``,
where the check lives. ``NumericalError`` covers failures on valid input
(a matrix singular by its eigenvalues, failed estimation). A plain
``ValueError`` from a numeric kernel (``eigh_batch`` and ``invert``, the
chi-square tail, the shape checks of ``assemble_W`` and ``build_K``) is a
bug in its caller. The command line exits 2 on ``InputError`` or
``OSError`` and 3 on ``NumericalError``; anything else surfaces with its
traceback.
"""

import numbers


class GinarError(Exception):
    """Base class for all package errors."""


class InputError(GinarError, ValueError):
    """Malformed or out-of-range caller input: parameters, specs, series, config."""


class NumericalError(GinarError):
    """Base class for numerical failures (singularity, estimation)."""


class SingularMatrixError(NumericalError):
    """A matrix to invert has its smallest |eigenvalue| at or below
    ``numerics.EIG_RTOL`` times its largest."""


class EstimationError(NumericalError):
    """Least squares estimation failed (e.g. singular Gram matrix)."""


class TestError(NumericalError):
    """Test statistic could not be formed (e.g. singular W matrix)."""


def require_int(what, value, low, high=None):
    """Raise ``InputError`` unless ``value`` is a Python or numpy integer in
    ``[low, high)`` (no upper bound when ``high`` is None); a bool is refused."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value < high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InputError(f"{what} must be an integer {bounds}, got {value!r}")


def require_level(level):
    """Raise ``InputError`` unless ``level`` is a real number in (0, 1)."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise InputError(f"level must lie in (0, 1), got {level!r}")
