"""Run-length-limited machinery.

Three pieces live here: counting of the set S_n(f) of words whose longest run
is at most f (a recurrence, with a full sweep kept as its oracle), the
universal constraint that applies a shared run cap to the first row of every
array view A_i(x) for 3 <= i <= b (counted by the class counter of _enum,
one capped row per level), and a systematic single-redundancy-bit encoder that
maps any length-n word to a length-(n+1) word with maximum run
ceil(log2 n) + 3.

The encoder appends a sentinel 0, then repeatedly excises ceil(log2 n) + 3
bits from any run still longer than that and appends a fixed-width marker
block (1, position, 0, 1) on the right; the decoder pops marker blocks off the
right and reinserts the excised runs. A run long enough to fire k times simply
produces k identical marker blocks. Both work on byte strings of 0s and 1s:
bytes.find locates the runs that fire, and slicing excises and reinserts them.
A word in which no run fires costs only its conversions: the encoder returns
it with its sentinel, and the decoder accepts a word ending in 0 exactly when
no run fires in it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from . import _enum
from .bitseq import BITS, DIGITS, Word, array_view, as_word
from .errors import DecodeFailure, DomainError, integer


def max_run(x: Word) -> int:
    """Length of the longest run in x."""
    return max((sum(1 for _ in run) for _, run in groupby(x)), default=0)


def ceil_log2(k: int) -> int:
    k = integer(k, "ceil_log2's argument")
    if k < 1:
        raise DomainError("ceil_log2 needs a positive argument")
    return (k - 1).bit_length()


@dataclass(frozen=True)
class RllSpec:
    """Words of length n whose longest run is at most f."""

    n: int
    f: int

    def __post_init__(self) -> None:
        for name in ("n", "f"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if not 1 <= self.f <= self.n:
            raise DomainError(f"run cap must satisfy 1 <= f <= n, got f={self.f}, n={self.n}")


def rll_count(spec: RllSpec) -> int:
    """|S_n(f)| via the composition recurrence: runs alternate values, so the
    count is twice the number of compositions of n into parts of size <= f.
    Exact in Python ints at any n, in O(n * f) additions."""
    n, f = spec.n, spec.f
    comps = [0] * (n + 1)
    comps[0] = 1
    for ln in range(1, n + 1):
        comps[ln] = sum(comps[ln - k] for k in range(1, min(f, ln) + 1))
    return 2 * comps[n]


def rll_count_enumerated(spec: RllSpec) -> int:
    """|S_n(f)| by sweeping all 2^n words; oracle for rll_count."""
    if spec.n > 24:
        raise DomainError("enumeration capped at n <= 24")
    return _enum.count_max_run_le(spec.n, spec.f)


# ---------------------------------------------------------------------------
# Systematic encoder (one redundancy bit, output run cap ceil(log2 n) + 3).
# ---------------------------------------------------------------------------


def _as_bytes(x: Word, layout: struct.Struct) -> bytes:
    """x packed by layout, one byte per entry; DomainError unless every entry
    is 0 or 1."""
    try:
        y = layout.pack(*x)
        if not y.lstrip(b"\0\1"):  # empty exactly when every byte is 0 or 1
            return y
    except (struct.error, TypeError, ValueError):
        pass
    raise DomainError(f"RLL words take entries 0 and 1 only, got {tuple(x)!r}")


@lru_cache(maxsize=256)
def _layout(n: int) -> tuple[int, int, bytes, bytes, struct.Struct, struct.Struct]:
    """Marker position width, block size ceil(log2 n) + 3 and the two runs
    that fire, for length n; and the byte layouts of a source word x (n
    entries then the sentinel 0) and of a code word (n + 1 entries), which
    pack a word into bytes and unpack bytes into a tuple of ints."""
    width = ceil_log2(n)
    block = width + 3
    zeros, ones = b"\0" * (block + 1), b"\1" * (block + 1)
    return width, block, zeros, ones, struct.Struct(f"{n}Bx"), struct.Struct(f"{n + 1}B")


def _encode(y: bytes, steps: list[Word] | None = None) -> bytes:
    """The encoder on a byte string y that already ends in its sentinel 0.
    Each excision takes the leftmost run of more than block equal bytes that
    starts at a position <= i_end: runs starting left of the previous
    excision are all shorter, so bytes.find from there gives the same
    position as a bit-by-bit scan."""
    n = len(y) - 1
    width, block, zeros, ones, _, _ = _layout(n)
    p, i_end = 0, n
    while True:
        # a run firing at position <= i_end has its first block + 1 bytes
        # inside y[:i_end + block]
        hit0, hit1 = y.find(zeros, p, i_end + block), y.find(ones, p, i_end + block)
        if hit0 == hit1:  # both -1
            return y
        p = min(h for h in (hit0, hit1) if h >= 0)
        marker = b"\1" + format(p + 1, f"0{width}b").encode().translate(BITS) + b"\0\1"
        y = y[:p] + y[p + block :] + marker
        i_end -= block
        if steps is not None:
            steps.append(tuple(y))


def rll_encode(x: Word, trace: bool = False):
    """Encode x (length n >= 2) into a length-(n+1) word with max run <=
    ceil(log2 n) + 3. With trace=True also returns the intermediate word after
    each excision."""
    n = len(x)
    if n < 2:
        raise DomainError("encoding needs length >= 2")
    _, _, zeros, ones, source, code = _layout(n)
    y = _as_bytes(x, source)
    # the first search of _encode spans all of y, so if no run fires there
    # the output is x and its sentinel
    if y.find(zeros) < 0 and y.find(ones) < 0:
        return (code.unpack(y), []) if trace else code.unpack(y)
    steps: list[Word] | None = [] if trace else None
    y = code.unpack(_encode(y, steps))
    return (y, steps) if trace else y


def rll_decode(y: Word) -> Word:
    """Invert rll_encode: pop marker blocks off the right while the last bit is
    1, reinserting the excised run each time; then strip the sentinel. Words
    the encoder never outputs are rejected: the result must re-encode to y.

    A word ending in 0 has no marker block and is its own candidate x + (0,).
    The encoder returns that unchanged if no run fires in it, and otherwise
    appends a marker, which ends in 1; so such a word is accepted exactly when
    no run fires, and only words ending in 1 are re-encoded."""
    n = len(y) - 1
    if n < 2:
        raise DomainError("decoding needs length >= 3")
    _, block, zeros, ones, source, code = _layout(n)
    word = buf = _as_bytes(y, code)
    if word[-1] == 0:
        if word.find(zeros) < 0 and word.find(ones) < 0:
            return source.unpack(word)
        raise DecodeFailure("word is not an encoder output")
    while buf[-1] == 1:
        if len(buf) < block + 1:
            raise DecodeFailure("trailing marker block truncated")
        pos = int(buf[1 - block : -2].translate(DIGITS), 2)
        buf = buf[:-block]
        if not 1 <= pos <= len(buf):
            raise DecodeFailure(f"marker names position {pos} outside the word")
        buf = buf[: pos - 1] + buf[pos - 1 : pos] * block + buf[pos - 1 :]
    # buf is x + (0,): the loop stopped on a final 0
    if _encode(buf) != word:
        raise DecodeFailure("word is not an encoder output")
    return source.unpack(buf)


# ---------------------------------------------------------------------------
# Universal constraint across array views.
# ---------------------------------------------------------------------------


def urll_cap(n: int, b: int) -> int:
    """Default run cap for the universal constraint: ceil(log2(n log2 b)) + 1;
    DomainError where n log2 b is past the float range."""
    n, b = integer(n, "n"), integer(b, "b")
    if b < 3:
        raise DomainError("universal constraint applies for b >= 3")
    if n < 1:
        raise DomainError(f"universal constraint needs length n >= 1, got n={n}")
    try:
        return math.ceil(math.log2(n * math.log2(b))) + 1
    except OverflowError:
        raise DomainError(f"universal constraint needs n log2 b in the float range, got n={n}, b={b}") from None


@dataclass(frozen=True)
class UrllSpec:
    """Run cap f on the first row of A_i(x) for every 3 <= i <= b."""

    n: int
    b: int
    f: int | None = None

    def __post_init__(self) -> None:
        for name in ("n", "b") if self.f is None else ("n", "b", "f"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        cap = urll_cap(self.n, self.b)  # refuses b < 3 and n < 1
        for i in range(3, self.b + 1):
            if self.n % i != 0:
                raise DomainError(f"level {i} does not divide n={self.n}")
        if self.f is None:
            object.__setattr__(self, "f", cap)


def urll_member(x: Word, spec: UrllSpec) -> bool:
    if len(x := as_word(x)) != spec.n:
        raise DomainError(f"expected length {spec.n}, got {len(x)}")
    return all(max_run(array_view(x, i)[0]) <= spec.f for i in range(3, spec.b + 1))


@lru_cache(maxsize=64)
def _urll_table(b: int, f: int):
    """Run cap f on row 1 of A_i for every 3 <= i <= b."""
    return _enum._Table(caps=tuple((i, lambda n: f) for i in range(3, b + 1)))


def urll_count(spec: UrllSpec) -> int:
    """|U_{n,b}(f)|, counted by _enum._class_sizes: the one class of a table
    of capped rows and no key form."""
    return sum(_enum._class_sizes(_urll_table(spec.b, spec.f), spec.n).values())
