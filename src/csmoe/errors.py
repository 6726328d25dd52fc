"""Exception hierarchy shared by all modules."""

import contextlib


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


@contextlib.contextmanager
def open_utf8(path, error=DataError, newline=None):
    """``path`` open as UTF-8 text. A byte that is not UTF-8 raises ``error``
    naming the file and its line; it is never replaced, so a mangled id
    cannot load."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                data = raw.read()
            start = exc.start  # counted from the chunk being decoded: decode the whole file for its offset
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                start = whole.start
            line = data.count(b"\n", 0, start) + 1
            raise error(f"{path}: line {line} is not UTF-8 text") from exc
