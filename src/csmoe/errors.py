"""Exception hierarchy shared by all modules."""


class CsmoeError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CsmoeError):
    """Shapes are incompatible for the requested operation."""


class ParameterError(CsmoeError):
    """A numeric argument is outside its legal range."""


class ConfigError(CsmoeError):
    """A configuration violates its invariants."""


class FormatError(CsmoeError):
    """A binary or JSON artifact on disk is malformed."""


class DataError(CsmoeError):
    """Input data files are missing, unpaired, or inconsistent."""


class EvaluationError(CsmoeError):
    """A function evaluation produced a non-finite or unusable result."""


class NormalizationError(CsmoeError):
    """A vector that must be normalized has zero length."""


def require(checks, error=ConfigError):
    """Raise ``error`` with the message of the first failing (ok, message) check."""
    for ok, message in checks:
        if not ok:
            raise error(message)
