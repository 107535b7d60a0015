"""Exception hierarchy shared by all modules, and the one integer check."""

import operator


class BurstCodesError(Exception):
    """Base class for errors raised by this package."""


class DomainError(BurstCodesError, ValueError):
    """Input outside an operation's domain: bad length, divisibility, cap, range."""


class DecodeFailure(BurstCodesError):
    """Received word has no (or no unique) valid preimage under the given code."""


class CodeIntegrityError(BurstCodesError):
    """A codebook that was assumed verified produced ambiguous decoding."""


def integer(value, name: str) -> int:
    """value as a Python int, taken through operator.index (bools and numpy
    ints pass); DomainError for anything else, such as a float or a string."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
