"""Binary words, run decompositions, and the b x (n/b) column-major array view.

A word is an immutable tuple of bits. Positions are 1-indexed in every public
contract, so ``x[i-1]`` is the bit at position ``i``. Words compare and sort
lexicographically (tuple order), which is also the order used in codebook
files. The text form is an ASCII string of ``'0'``/``'1'`` with the leftmost
character at position 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator

from . import _enum
from .errors import DomainError, integer

Word = tuple[int, ...]

# Full-space sweeps iterate 2^n words; beyond this the space is not iterable.
MAX_ENUM_BITS = 30


# One byte per bit, and back to the '0'/'1' text form.
BITS = bytes.maketrans(b"01", b"\0\1")
DIGITS = bytes.maketrans(b"\0\1", b"01")


def _octets(x: Iterable[int]) -> bytes:
    """x with one byte per entry; DomainError unless every entry is 0 or 1.
    Bools and integers of any type pass, strings and floats do not. A tuple
    or list is read by bytes() directly (twice as fast), anything else through
    an iterator, so a numpy array gives its values, not its buffer's bytes."""
    try:
        y = bytes(x if type(x) in (tuple, list) else iter(x))
        if not y.lstrip(b"\0\1"):  # empty exactly when every byte is 0 or 1
            return y
    except (TypeError, ValueError):
        pass
    raise DomainError(f"word bits must be 0 or 1, got {x!r}")


def as_word(x: Iterable[int]) -> Word:
    """x as a tuple of Python ints 0 and 1, of any length; DomainError for
    any other entry."""
    return tuple(_octets(x))


def parse_word(text: str) -> Word:
    """Parse the ASCII '0'/'1' text form (leftmost character = position 1)."""
    if not text or text.strip("01"):
        raise DomainError(f"not a binary word: {text!r}")
    return tuple(text.encode().translate(BITS))


def format_word(x: Word) -> str:
    """The text form of x; DomainError for an entry other than 0 or 1."""
    return _octets(x).translate(DIGITS).decode()


def to_int(x: Word) -> int:
    """Pack a word into an integer, position 1 the least significant bit; its
    entries are checked by _octets (DomainError for one other than 0 or 1)."""
    return int(_octets(x).translate(DIGITS)[::-1] or b"0", 2)


def from_int(v: int, n: int) -> Word:
    """The length-n word packed in v, inverse to to_int; DomainError unless
    0 <= v < 2^n (_enum.word), so that no bit of v is dropped or made up."""
    v = _enum.word(v, n)
    return tuple((v >> i) & 1 for i in range(n))


def enumerate_words(n: int) -> Iterator[Word]:
    """Yield all words of length n in lexicographic order (n <= 30 enforced)."""
    n = integer(n, "word length n")
    if not 1 <= n <= MAX_ENUM_BITS:
        raise DomainError(f"enumeration requires 1 <= n <= {MAX_ENUM_BITS}, got {n}")
    yield from product((0, 1), repeat=n)


@dataclass(frozen=True)
class Run:
    value: int
    start: int
    length: int


def runs(x: Word) -> tuple[Run, ...]:
    """Maximal-run decomposition of x; its length is the run count r(x)."""
    out: list[Run] = []
    start = 1
    for i in range(1, len(x) + 1):
        if i == len(x) or x[i] != x[i - 1]:
            out.append(Run(value=x[start - 1], start=start, length=i - start + 1))
            start = i + 1
    return tuple(out)


def run_count(x: Word) -> int:
    """r(x): 1 + number of positions where adjacent bits differ; 0 for the
    empty word."""
    return 1 + sum(1 for i in range(len(x) - 1) if x[i] != x[i + 1]) if x else 0


def array_view(x: Word, b: int) -> tuple[Word, ...]:
    """The column-major b x (n/b) array of x as its rows, requiring b | n:
    entry (r, j) = x_{(j-1)b + r} is rows[r-1][j-1]."""
    n, b = len(x), integer(b, "row count b")
    if b < 1 or n % b != 0:
        raise DomainError(f"row count {b} does not divide word length {n}")
    return tuple(x[r::b] for r in range(b))


def flatten(rows: tuple[Word, ...]) -> Word:
    """Inverse of array_view: read the rows column by column."""
    if len({len(r) for r in rows}) != 1:
        raise DomainError("ragged array")
    return tuple(chain.from_iterable(zip(*rows)))
