"""Exception types shared across the package, and the JSON value rules.

Every error carries a short machine-readable ``code`` so the command line
front end can emit structured diagnostics on stderr.  ``json_int`` and
``json_number`` are the type rules every file reader applies to its fields.
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
    """An orbit of an orbit expansion has no measured representative."""

    code = "missing-orbit"


class NotNormalizedError(PimubError):
    """A measured basis distribution does not sum to one."""

    code = "not-normalized"


class MissingBasisError(PimubError):
    """Records miss a required minimal basis, or a family lacks a requested basis."""

    code = "missing-basis"


class SchemaError(PimubError):
    """A JSON artifact does not conform to its interchange schema."""

    code = "schema"


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string), else ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value, what: str) -> int | float:
    """``value`` if it is a JSON number, int or float (not a bool or string), else ``ValueError``."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return value
