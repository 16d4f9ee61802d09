"""Exception types shared across the package."""


class RlslpError(Exception):
    """Base class for all errors raised by this package."""


class BadLevelError(RlslpError):
    """A level the operation does not permit: a shrink round of the wrong
    parity, or a level string outside the grammar's rounds."""


class UnknownSymbolError(RlslpError):
    """Symbol id not present in the grammar."""


class EmptyTextError(RlslpError):
    """The builder requires a non-empty input text."""


class OutOfRangeError(RlslpError):
    """Position or index outside the valid range."""


class EmptyFragmentError(RlslpError):
    """Operation requires a non-empty fragment."""


class EmptyPatternError(RlslpError):
    """Pattern matching requires a non-empty pattern."""


class RatioViolationError(RlslpError):
    """IPM queries require the text window to be shorter than twice the pattern."""


class IndexFormatError(RlslpError):
    """Serialized index file is malformed."""


class InternalInvariantError(RlslpError):
    """An internal consistency check failed: a bug, not bad input.

    Raised explicitly, so it does not vanish under ``python -O``.
    """
