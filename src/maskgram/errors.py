"""Exception hierarchy shared across the package.

CLI exit-code mapping: file format errors and OS errors map to exit code 3,
every other MaskgramError maps to exit code 4 (validation).
"""


class MaskgramError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MaskgramError):
    """A value, config, or argument violates a documented contract."""


class ShapeMismatchError(ValidationError):
    """Grid/feature shapes disagree; names the offending dimension."""

    def __init__(self, dimension: str, expected, actual):
        self.dimension = dimension
        self.expected = expected
        self.actual = actual
        super().__init__(f"shape mismatch on {dimension}: expected {expected}, got {actual}")


class MissingStreamError(ValidationError):
    """A conditioning stream required by the chosen structure is absent."""


class NonFiniteError(MaskgramError):
    """A parameter or activation became non-finite; names the block."""

    def __init__(self, where: str):
        self.where = where
        super().__init__(f"non-finite values detected in {where}")


class FileFormatError(MaskgramError):
    """Base class for binary file format violations."""


class CorruptHeaderError(FileFormatError):
    """Magic/version/field check of a file header failed."""


class TokenRangeError(FileFormatError):
    """A stored token index falls outside [0, vocab_size)."""


class TruncatedPayloadError(FileFormatError):
    """File ended before the declared payload was read."""


class TrailingBytesError(FileFormatError):
    """File holds bytes after the declared payload."""


class MalformedJsonError(FileFormatError):
    """A JSON side file (checkpoint config, dataset manifest) does not parse."""
