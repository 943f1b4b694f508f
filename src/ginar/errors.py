"""Exception hierarchy shared across the package.

The split matters for the command line front end: ``InputError`` covers
malformed user input (config strings, CSV files, bad flag combinations),
everything deriving from ``NumericalError`` covers runtime linear-algebra
and estimation failures (typically degenerate data).
"""


class GinarError(Exception):
    """Base class for all package errors."""


class InputError(GinarError):
    """Malformed user input: config text, series files, spec strings."""


class NumericalError(GinarError):
    """Base class for numerical failures (singularity, estimation)."""


class SingularMatrixError(NumericalError):
    """Matrix inversion hit a pivot below the singularity threshold."""

    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(
            message or f"matrix is singular to working precision at pivot {pivot_index}"
        )


class EstimationError(NumericalError):
    """Least squares estimation failed (e.g. singular Gram matrix)."""


class TestError(NumericalError):
    """Test statistic could not be formed (e.g. singular W matrix)."""
