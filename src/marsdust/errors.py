"""Exception types shared across the package, and the form of their messages."""


def printable(text: str) -> str:
    """``text`` with each character ``str.isprintable()`` rejects as its Python escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class MarsdustError(Exception):
    """Base class for all errors raised by marsdust."""


class ValidationError(MarsdustError):
    """Invalid argument, parameter, or shape."""


class DecodeError(MarsdustError):
    """A file could not be decoded (bad format, corruption, unsupported feature)."""


class EstimationError(MarsdustError):
    """A statistical estimate could not be formed from the given data."""


class ManifestError(MarsdustError):
    """A dataset manifest is missing, malformed, or inconsistent."""


class WeightsFormatError(MarsdustError):
    """A model weights file is corrupt or has an unsupported layout."""
