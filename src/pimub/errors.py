"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the command line
front end can emit structured diagnostics on stderr.
"""


class PimubError(Exception):
    """Base class for all package errors."""

    code = "error"


class UnsupportedFieldSizeError(PimubError):
    """Requested field degree outside the supported range."""

    code = "unsupported-n"


class ContextMismatchError(PimubError):
    """Field elements from different field contexts were combined."""

    code = "context-mismatch"


class InvalidIndexError(PimubError):
    """Qubit index out of range, or p == q for a swap."""

    code = "invalid-index"


class InvalidSpinError(PimubError):
    """Total spin value outside the allowed range for the qubit count."""

    code = "invalid-j"


class DimensionOverflowError(PimubError):
    """Operation requested above the practical dense-matrix qubit cap."""

    code = "dimension-overflow"


class DimensionMismatchError(PimubError):
    """Two matrices of different dimensions were combined."""

    code = "dimension-mismatch"


class MissingOrbitError(PimubError):
    """An orbit has no measured representative to expand from."""

    code = "missing-orbit"


class NotNormalizedError(PimubError):
    """A measured basis distribution does not sum to one."""

    code = "not-normalized"


class MissingBasisError(PimubError):
    """Measurement records do not cover the required minimal bases."""

    code = "missing-basis"


class SchemaError(PimubError):
    """A JSON artifact does not conform to its interchange schema."""

    code = "schema"
