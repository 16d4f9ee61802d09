"""Exception types shared across the package."""


class RlslpError(Exception):
    """Base class for all errors raised by this package."""


class EqualChildrenError(RlslpError):
    """Pair production with identical left and right children."""


class BadLevelError(RlslpError):
    """Symbol level outside the range permitted by its arguments."""


class BadExponentError(RlslpError):
    """Power production with exponent below 2."""


class UnknownSymbolError(RlslpError):
    """Symbol id not present in the grammar."""


class EmptyTextError(RlslpError):
    """The builder requires a non-empty input text."""


class UnclassifiedSymbolError(RlslpError):
    """Pair compression met a symbol missing from the partition."""


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


class InternalInvariantError(RlslpError, AssertionError):
    """An internal consistency check failed: a bug, not bad input.

    Also an AssertionError, so it reads as the failed check it is, but it is
    raised explicitly and does not vanish under ``python -O``.
    """
