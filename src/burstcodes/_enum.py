"""Bit-level helpers for full-space sweeps.

Every function here treats a word as an integer with position 1 at the least
significant bit, and is polymorphic over a plain Python int and a numpy array
of packed words: the same expression drives both per-word checks and the
chunked vectorized counting sweeps of vt, svt and rll. Keeping one
implementation for both paths is what the cross-validation tests rely on.
Codebook builds and parameter searches (codes.py) no longer sweep the full
space: they take the low and the high part of a split word from
``iter_chunks`` (one call per part, of 2^L and 2^(n-L) values) and
evaluate the code families' tabulated forms there, so the row and residue
kernels below serve vt, svt and rll, not those searches. ``pack`` turns
codebook rows (``np.packbits`` of each word, position 1 at the most
significant bit of byte 0) into such an array, and ``unpack`` turns packed
words back into rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# log2 of the words per chunk in full-space sweeps and in the parts of a split
# word. At n = 24, a codebook build plus parameter search tabulates parts of at
# most 2^20 values and peaks at 40-113 MB RSS, the interpreter included (40 MB
# for burst-exact at b = 3; 113 MB for noncons3, whose join visits about 1.5M
# pairs of part bins).
CHUNK_BITS = 20


def iter_chunks(n: int):
    """Yield uint64 arrays that together cover all 2^n packed words."""
    if n < 1:
        raise DomainError("n must be >= 1")
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


def weight_mod(v, n: int, mod: int):
    """Hamming weight of the low n bits, reduced mod `mod`."""
    s = bit(v, 1)
    for i in range(2, n + 1):
        s = s + bit(v, i)
    return s % mod


def weighted_sum_mod(v, n: int, mod: int):
    """VT checksum sum(i * x_i) over the low n bits, reduced mod `mod`."""
    s = bit(v, 1)
    for i in range(2, n + 1):
        s = s + bit(v, i) * i
    return s % mod


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
