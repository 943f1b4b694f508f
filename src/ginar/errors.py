"""Exception hierarchy shared across the package.

Every check on a caller-supplied value (parameters, settings, series, spec
strings, config and CSV files) raises ``InputError``, also a ``ValueError``,
where the check lives. ``NumericalError`` covers failures on valid input
(singular matrices, failed estimation). A plain ``ValueError`` from a numeric
kernel (``invert``, the chi-square tail, the shape checks of ``assemble_W``
and ``build_K``) is a bug in its caller. The command line exits 2 on
``InputError`` or ``OSError`` and 3 on ``NumericalError``; anything else
surfaces with its traceback.
"""


class GinarError(Exception):
    """Base class for all package errors."""


class InputError(GinarError, ValueError):
    """Malformed or out-of-range caller input: parameters, specs, series, config."""


class NumericalError(GinarError):
    """Base class for numerical failures (singularity, estimation)."""


class SingularMatrixError(NumericalError):
    """Matrix inversion hit a pivot below the singularity threshold."""

    def __init__(self, pivot_index):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular to working precision at pivot {pivot_index}")


class EstimationError(NumericalError):
    """Least squares estimation failed (e.g. singular Gram matrix)."""


class TestError(NumericalError):
    """Test statistic could not be formed (e.g. singular W matrix)."""
