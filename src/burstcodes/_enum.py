"""Bit-level helpers on packed words.

Every function here treats a word as an integer with position 1 at the least
significant bit, and is polymorphic over a plain Python int and a numpy array
of packed words. ``iter_chunks`` draws the parts of a split word for the
builds and class counts of codes.py. ``max_run_le`` serves codes.member, the
boundary tables of the parts and ``count_max_run_le``, the full sweep kept
as the oracle for rll.rll_count; the row kernels serve only perfbench's
kernel timing. ``pack`` turns codebook rows (``np.packbits`` of each word,
position 1 at the most significant bit of byte 0) into such an array,
``unpack`` turns packed words back into rows, and ``words`` checks that
values are packed words of a length.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError

# log2 of the words per chunk in sweeps and in the parts of a split word, and
# of the cells in one grid of codes._transfer (a larger grid takes the join or
# is refused). At n = 24 a build plus parameter search peaks at 29-114 MB RSS,
# the interpreter included: 29 MB for burst-exact at b = 3, on the transfer,
# 114 MB for noncons3, whose pair join sorts about 1.66M pairs of part bins.
CHUNK_BITS = 20


def iter_chunks(n: int):
    """Yield uint64 arrays that together cover all 2^n packed words (the one
    empty word at n = 0)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    total = 1 << n
    step = 1 << CHUNK_BITS
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total), dtype=np.uint64)


# Every byte value with its bits in reverse order: it turns the bytes of a
# row (position 1 at the most significant bit) into the bytes of a packed word
# (position 1 at the least significant bit), and back.
_REVERSED = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little"
).ravel()


def pack(rows: np.ndarray, n: int) -> np.ndarray:
    """Pack the rows of length-n words (n <= 64) into a uint64 array, position
    1 at the least significant bit as in bitseq.to_int."""
    if n > 64:
        raise DomainError(f"{n}-bit words do not fit in a uint64")
    out = np.zeros((len(rows), 8), dtype=np.uint8)
    out[:, : rows.shape[1]] = _REVERSED[rows]
    return out.view("<u8").ravel()


def words(vs, n: int) -> np.ndarray:
    """vs (an integer array, or ints of any size) as an array of packed
    length-n words; DomainError unless all lie in [0, 2^n). One pass: their
    OR is negative or reaches 2^n exactly when one of them does."""
    try:
        vs = vs if isinstance(vs, np.ndarray) else np.fromiter(map(operator.index, vs), dtype=object)
        if vs.dtype.kind in "iuO" and not int(np.bitwise_or.reduce(vs, axis=None)) >> n:
            return vs
    except TypeError:
        pass
    raise DomainError(f"packed words must be integers in [0, 2^{n})")


def unpack(vs, n: int) -> np.ndarray:
    """The rows of packed length-n words (n <= 64): np.packbits of each word,
    shape (len(vs), ceil(n/8)), position 1 at the most significant bit."""
    if n > 64:
        raise DomainError(f"{n}-bit words do not fit in a uint64")
    octets = np.ascontiguousarray(vs, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return _REVERSED[octets[:, : (n + 7) // 8]]


def bit(v, pos: int):
    """Bit at 1-indexed position pos."""
    return (v >> (pos - 1)) & 1


def row_int(v, n: int, b: int, r: int):
    """Row r of the b x (n/b) array view, packed with column 1 at the LSB."""
    m = n // b
    t = bit(v, r)
    for k in range(1, m):
        t = t | (bit(v, r + k * b) << k)
    return t


def row_weight_mod(v, n: int, b: int, r: int, mod: int):
    m = n // b
    s = bit(v, r)
    for k in range(1, m):
        s = s + bit(v, r + k * b)
    return s % mod


def row_weighted_sum_mod(v, n: int, b: int, r: int, mod: int):
    """VT checksum of row r (weights are the column indices 1..n/b)."""
    m = n // b
    s = bit(v, r)
    for k in range(1, m):
        s = s + bit(v, r + k * b) * (k + 1)
    return s % mod


def max_run_le(v, n: int, f: int):
    """Whether every run in the low n bits has length <= f.

    Shift-and trick: an n-bit word has a run of 1s of length >= f+1 iff
    v & (v >> 1) & ... & (v >> f) is nonzero; runs of 0s are checked on the
    masked complement.
    """
    if f >= n:
        return (v & 0) == 0
    mask = (1 << n) - 1
    ones = v & mask
    zeros = ~v & mask
    for _ in range(f):
        ones = ones & (ones >> 1)
        zeros = zeros & (zeros >> 1)
    return (ones == 0) & (zeros == 0)


def count_max_run_le(n: int, f: int) -> int:
    """Number of n-bit words whose longest run is <= f, by full enumeration."""
    if f >= n:
        return 1 << n
    if f < 1:
        return 0
    total = 0
    for chunk in iter_chunks(n):
        total += int(np.count_nonzero(max_run_le(chunk, n, f)))
    return total
