"""Bit-level helpers on packed words.

Every function here treats a word as an integer with position 1 at the least
significant bit, and is polymorphic over a plain Python int and a numpy array
of packed words. ``Linear`` is the one evaluator of a linear form on them and
``row`` gives the weights of one row of an array view: codes.py's tables and
perfbench's row kernels are made of the two. ``iter_chunks`` draws the parts
of a split word for codes.py. ``max_run_le`` serves codes.member, the parts'
boundary tables and ``count_max_run_le``, the oracle for rll.rll_count.
``pack`` and ``unpack`` turn codebook rows (``np.packbits`` of each word) into
such arrays and back; ``words`` (``word`` for one value) checks packed words.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError, integer

# log2 of the words per chunk in sweeps and in the parts of a split word, and
# of the cells in one grid of codes._transfer (a larger grid takes the join or
# is refused). At n = 24 a build plus parameter search peaks at 29-114 MB RSS,
# the interpreter included: 29 MB for burst-exact at b = 3, on the transfer,
# 114 MB for noncons3, whose pair join sorts about 1.66M pairs of part bins.
CHUNK_BITS = 20

# Entries per block of the blocked kernels (verify_code's ball keys, _join's
# pairs, ball_size_tally's ball keys, write_codebook's characters): 1 MB per
# 64-bit temporary, small enough that the allocator keeps a block's pages
# between calls instead of handing them back to the OS and faulting them in
# again on the next call.
BLOCK = 1 << 17


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


def word(v, n: int) -> int:
    """v as a Python int, the one scalar twin of words; DomainError unless v
    and n are integers and v is a packed length-n word, in [0, 2^n)."""
    if type(v) is not int or type(n) is not int:  # Python ints, as most are, skip two calls
        v, n = integer(v, "packed word"), integer(n, "word length")
    if n < 0 or v >> n:  # v >> n is -1 for a negative v, nonzero past 2^n
        raise DomainError(f"packed word {v} outside [0, 2^{n})")
    return v


def unpack(vs, n: int) -> np.ndarray:
    """The rows of packed length-n words (n <= 64): np.packbits of each word,
    shape (len(vs), ceil(n/8)), position 1 at the most significant bit."""
    if n > 64:
        raise DomainError(f"{n}-bit words do not fit in a uint64")
    octets = np.ascontiguousarray(vs, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return _REVERSED[octets[:, : (n + 7) // 8]]


def row(n: int, b: int, r: int, weight) -> list[int]:
    """The weights of row r of the b x (n/b) array view, one per position:
    weight(k) at column k + 1 (position r + k b), 0 off the row."""
    w = [0] * n
    w[r - 1 : n // b * b : b] = [weight(k) for k in range(n // b)]
    return w


def octets(vs: np.ndarray, n: int) -> list[np.ndarray]:
    """Byte i of each packed length-n word as the i-th array, for Linear.at."""
    return [vs >> i & 0xFF for i in range(0, max(n, 1), 8)]


class Linear:
    """A linear form on packed words: per-position weights summed mod `mod`,
    kept as the residue of every value of each byte."""

    def __init__(self, weights: list[int], mod: int) -> None:
        self.weights, self.mod, self.bytes = weights, mod, []
        for i in range(0, max(len(weights), 1), 8):  # a form on no positions is 0
            t = [0]
            for w in weights[i : i + 8]:
                t += [(s + w) % mod for s in t]
            self.bytes.append(t)
        # The narrowest dtype that holds a sum over all bytes keeps lookups fast.
        dtype = np.min_scalar_type(max(len(self.bytes) * (mod - 1), mod))
        self.tables = [np.array(t, dtype=dtype) for t in self.bytes]

    def __call__(self, v: int) -> int:
        s = 0
        for t in self.bytes:
            s += t[v & 0xFF]
            v >>= 8
        return s % self.mod

    def at(self, octets: list[np.ndarray]) -> np.ndarray:
        """The residue of every word of an array given by its bytes (octets)."""
        return sum(np.take(t, o) for t, o in zip(self.tables, octets)) % self.mod


def _row_kernel(v, n: int, b: int, r: int, weight, mod: int):
    """The form of row r under weight, mod `mod`, at an int or an array."""
    form = Linear(row(n, b, r, weight), mod)
    return form(v) if isinstance(v, int) else form.at(octets(v, n))


def row_int(v, n: int, b: int, r: int):
    """Row r of the b x (n/b) array view, packed with column 1 at the LSB."""
    return _row_kernel(v, n, b, r, lambda k: 1 << k, 1 << n // b)


def row_weight_mod(v, n: int, b: int, r: int, mod: int):
    return _row_kernel(v, n, b, r, lambda k: 1, mod)


def row_weighted_sum_mod(v, n: int, b: int, r: int, mod: int):
    """VT checksum of row r (weights are the column indices 1..n/b)."""
    return _row_kernel(v, n, b, r, lambda k: k + 1, mod)


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
    return sum(int(np.count_nonzero(max_run_le(chunk, n, f))) for chunk in iter_chunks(n))
