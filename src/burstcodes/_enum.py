"""Bit-level helpers on packed words, and the engine of linear forms on them.

Every function here treats a word as an integer with position 1 at the least
significant bit, and is polymorphic over a plain Python int and a numpy array
of packed words. ``Linear`` is the one evaluator of a linear form on them and
``row`` gives the weights of one row of an array view. ``max_run_le`` serves
codes.member, the parts' boundary tables and ``count_max_run_le``, the oracle
for rll.rll_count. ``pack`` and ``unpack`` turn codebook rows (``np.packbits``
of each word) into such arrays and back; ``words`` (``word`` for one value)
checks packed words. Tables of forms (``_Table``) are compiled to ``Linear``
forms (``_compiled``); the split join finds a class's members (``_members``),
and ``_classes`` counts every class, by a transfer over positions or a join.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, integer

# log2 of the words per chunk in sweeps and in the parts of a split word, of
# the cells in one grid of _transfer (a larger grid takes the join or is
# refused), and of the residues a family's table may compile to
# (codes._validate_structure, which reads it once, at import). At n = 24 a
# build plus parameter search peaks at 29-114 MB RSS, the interpreter
# included: 29 MB for burst-exact at b = 3, on the transfer, 114 MB for
# noncons3, whose pair join sorts about 1.66M pairs of part bins.
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


# ---------------------------------------------------------------------------
# Tables of linear residue forms on the rows of array views: key forms, tie
# forms and run caps, which codes, vt and rll declare.
# ---------------------------------------------------------------------------

# sum_k w_k * A_lev(x)[row][k] mod mod(n), where w_k is the column index k (a
# VT checksum) or 1 (a row weight); A_1(x) is x itself.
_Form = namedtuple("_Form", "lev row weighted mod")


# Hashed by identity: the tables come from cached constructors, so a lookup in
# _compiled's cache need not hash every nested form.
@dataclass(frozen=True, eq=False)
class _Table:
    keys: tuple = ()  # (name, form): the parameters, in order
    ties: tuple = ()  # (form, name of the key form it equals, or None for 0)
    caps: tuple = ()  # (lev, cap(n)): no run in row 1 of A_lev is longer than cap(n)

    def __add__(self, other: _Table) -> _Table:
        return _Table(self.keys + other.keys, self.ties + other.ties, self.caps + other.caps)


def _vt_word(name: str) -> _Table:
    return _Table(((name, _Form(1, 1, True, lambda n: n + 1)),))


@functools.lru_cache(maxsize=128)
def _compiled(table: _Table, n: int, lo: int = 0, hi: int | None = None):
    """The table at length n: the ties as forms that must be 0, the caps as
    (packed row, its number of columns, run cap), and the key forms in
    parameter order. Restricted to positions lo+1..hi, packed from bit 0, a
    form gives that part's share of its residue and a packed row that part's
    columns, its first column at bit 0."""
    hi = n if hi is None else hi
    weights = lambda f: row(n, f.lev, f.row, lambda k: k + 1 if f.weighted else 1) if f else [0] * n
    keys = dict(table.keys)
    zeros = [  # a tie to a key form is their difference (a tie to 0, to no form)
        Linear([x - y for x, y in zip(weights(f), weights(keys.get(key)))][lo:hi], f.mod(n))
        for f, key in table.ties
    ]
    caps = []
    for lev, cap in table.caps:
        top = cap(n)
        if top < n // lev:  # otherwise no row can break the cap
            first = -(-lo // lev)  # the part's first column, at bit 0
            bits = row(n, lev, 1, lambda k: 1 << k >> first)[lo:hi]
            cols = len(range(first * lev, hi, lev))
            caps.append((Linear(bits, 1 << cols), cols, top))
    return zeros, caps, [Linear(weights(f)[lo:hi], f.mod(n)) for f in keys.values()]


# ---------------------------------------------------------------------------
# The split join. Every form adds across a split of the word into its low
# part lo (positions 1..L) and high part hi, and a capped row breaks its cap
# exactly when one part does or the two runs meeting at the split are of one
# bit and together too long. So both parts are tabulated once and joined
# where their residues cancel.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)  # 2^cols bytes each, no more than the part tabulated
def _edges(cols: int, cap: int, low: bool) -> np.ndarray:
    """The boundary state of one part of a capped row at every value of its
    `cols` columns, packed from bit 0, read-only: -1 where the part has a
    run longer than cap, else 2 * length + bit of its run at the split. The
    split meets the low part at its top column and the high part at its
    bottom one; the low part holds column 1 of every row, and a part of no
    columns has state 0."""
    v = np.arange(1 << cols)
    edge, run, same = v >> (max(cols, 1) - 1 if low else 0) & 1, 0, True
    for k in range(cols - 1, -1, -1) if low else range(cols):
        same &= (v >> k & 1) == edge
        run += same
    states = np.where(max_run_le(v, cols, cap), 2 * run + edge, -1).astype(np.int8)
    states.flags.writeable = False
    return states


def _fit(caps, lo_states, hi_states, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Whether the joined parts (lo i, hi j) keep every cap: the runs meeting
    at the split differ in bit or together stay within the cap."""
    ok = np.ones(len(i), dtype=bool)
    for (_, _, cap), s, t in zip(caps, lo_states, hi_states):
        s, t = s[i], t[j]
        ok &= ((s ^ t) & 1 == 1) | ((s >> 1) + (t >> 1) <= cap)
    return ok


def _parts(table: _Table, n: int, lo: int, hi: int):
    """The parts on positions lo+1..hi of all words, one chunk of
    iter_chunks at a time: the parts, the residues of the tie and then
    the key forms at each, and the boundary state of every capped row."""
    zeros, caps, keys = _compiled(table, n, lo, hi)
    edges = [(row, _edges(cols, cap, lo == 0)) for row, cols, cap in caps]
    for chunk in iter_chunks(hi - lo):
        words = chunk.astype(np.intp)
        columns = octets(words, hi - lo)
        yield words, [f.at(columns) for f in zeros + keys], [np.take(t, row.at(columns)) for row, t in edges]


def _tabulate(table: _Table, n: int, lo: int, hi: int):
    """The parts of _parts that keep the cap on their own part of every
    capped row, with their residues and boundary states."""
    parts = []
    for words, residues, states in _parts(table, n, lo, hi):
        keep = np.ones(len(words), dtype=bool)
        for s in states:
            keep &= s >= 0
        parts.append([words[keep], *(d[keep] for d in residues + states)])
    words, *columns = map(np.concatenate, zip(*parts))
    return words, columns[: len(residues)], columns[len(residues) :]


def _ravel(digits, radices, count: int) -> np.ndarray:
    """`count` digit tuples as mixed-radix ints, the first digit most
    significant, so that packed values sort like the tuples."""
    if math.prod(radices) > np.iinfo(np.intp).max:
        raise DomainError("parameter space too wide to pack")
    return np.ravel_multi_index(digits, radices) if digits else np.zeros(count, dtype=np.intp)


def _unravel(values: np.ndarray, radices) -> tuple:
    """The digits of packed values, inverse to _ravel; no radices, no digits."""
    return np.unravel_index(values, radices) if radices else ()


def _dense(size: int, total: int) -> bool:
    """Whether `total` values below size are counted in one slot per value
    (np.bincount) rather than sorted: where size is at most total, or 2^16.
    _tally and _matches both read it."""
    return size <= max(total, 1 << 16)


def _tally(blocks, size: int, total: int):
    """The distinct values, all below size, in ascending order, with how
    often each occurs (or the sum of its weights), over blocks of (values,
    weights or None), `total` values in all. Where they are _dense the
    blocks add into one count per value, one block at a time; else the
    values are sorted, and they must come as one block."""
    if _dense(size, total):
        counts = None  # the first block's counts take the others
        for values, weights in blocks:
            count = np.bincount(values, weights, minlength=size)
            counts = count if counts is None else counts + count  # an empty block counts in int64
        found = np.flatnonzero(counts)
        return found, counts[found].astype(np.int64)
    ((values, weights),) = blocks
    found, where = np.unique(values, return_inverse=True)
    return found, np.bincount(where, weights).astype(np.int64)


@functools.lru_cache(maxsize=32)
def _key_groups(mods: tuple[int, ...]):
    """Runs of consecutive key moduli whose sums of two residues, packed in
    radices 2m - 1, index a table of at most 2^16 entries (or one key),
    each as (its slice, those radices, the table from such a sum to the
    run's share of the packed class, read-only, the first key most
    significant)."""
    groups, start, place = [], 0, math.prod(mods)
    while start < len(mods):
        stop = start + 1
        while stop < len(mods) and math.prod(2 * m - 1 for m in mods[start : stop + 1]) <= 1 << 16:
            stop += 1
        run, wide = mods[start:stop], [2 * m - 1 for m in mods[start:stop]]
        place //= math.prod(run)
        digits = np.unravel_index(np.arange(math.prod(wide)), wide)
        table = np.ravel_multi_index([d % m for d, m in zip(digits, run)], run) * place
        table.flags.writeable = False
        groups.append((slice(start, stop), wide, table))
        start = stop
    return groups


def _matches(keys: np.ndarray, want: np.ndarray, size: int):
    """The positions of keys, all below size, in ascending order of key, and
    for each want[j] (below size too) the first of them whose key equals it
    and how many do: by one count per key where the keys are _dense, else
    by searching the sorted keys."""
    order = np.argsort(keys, kind="stable")
    if _dense(size, len(keys)):
        counts = np.bincount(keys, minlength=size)
        count = counts[want]
        return order, np.cumsum(counts)[want] - count, count
    ordered = keys[order]
    first = np.searchsorted(ordered, want, "left")
    return order, first, np.searchsorted(ordered, want, "right") - first


def _expand(order: np.ndarray, first: np.ndarray, count: np.ndarray):
    """The pairs (i, j) with keys[i] == want[j] that _matches found, grouped
    by j."""
    j = np.repeat(np.arange(len(first)), count)
    return order[np.arange(len(j)) + np.repeat(first - np.cumsum(count) + count, count)], j


# ---------------------------------------------------------------------------
# Members by the split join; class counts by a transfer over the positions
# where its grids fit one chunk, else by the pair join.
# ---------------------------------------------------------------------------

BUILD_MAX_N = 26  # the longest word whose halves the split join tabulates


def _members(table: _Table, n: int, params) -> np.ndarray:
    """The packed members of the class `params` of the table at n: each high
    part looks up the low parts, sorted by residues, that complete it to the
    parameters, so the work follows the members found."""
    zeros, caps, keys = _compiled(table, n)
    mods = [f.mod for f in zeros + keys]
    targets = [0] * len(zeros) + list(params)
    # One bucket per high part at any L, so the parts balance at n // 2.
    L = n // 2
    (w_lo, r_lo, s_lo), (w_hi, r_hi, s_hi) = (
        _tabulate(table, n, lo, hi) for lo, hi in ((0, L), (L, n))
    )
    want = [(t + m - r) % m for t, r, m in zip(targets, r_hi, mods)]
    i, j = _expand(*_matches(_ravel(r_lo, mods, len(w_lo)), _ravel(want, mods, len(w_hi)), math.prod(mods)))
    fit = _fit(caps, s_lo, s_hi, i, j)
    return w_hi[j[fit]] << L | w_lo[i[fit]]


@functools.lru_cache(maxsize=128)
def _groups(table: _Table, n: int) -> tuple:
    """The table at length n as axes, its tie forms, key forms and capped
    rows numbered in that order, in groups that share no position: each
    group as (its axes, ascending, their radices, its positions,
    ascending). A form's radix is its modulus, a capped row's the 2 cap + 2
    boundary states of _edges, and a form on no position is a group of its
    own."""
    zeros, caps, keys = _compiled(table, n)
    forms = zeros + keys + [row for row, _, _ in caps]
    radices = [f.mod for f in zeros + keys] + [2 * cap + 2 for _, _, cap in caps]
    groups = []
    for axis, f in enumerate(forms):
        axes, mask = [axis], sum(1 << p for p, w in enumerate(f.weights) if w % f.mod)
        for g in [g for g in groups if g[1] & mask]:
            groups.remove(g)
            axes, mask = g[0] + axes, g[1] | mask
        groups.append((sorted(axes), mask))
    return tuple(
        (tuple(axes), tuple(radices[a] for a in axes), tuple(p for p in range(n) if mask >> p & 1))
        for axes, mask in groups
    )


def _step(grid: np.ndarray, axis: int, cap: int, bit: int) -> np.ndarray:
    """The counts after one more column of a capped row, of the given bit,
    its boundary state on `axis` as _edges has it, 2 * run + bit of the
    last run: the low part that starts the grid holds the row's column 1. A
    run of cap + 1 bits leaves the grid, and at cap 0 so does every word."""
    at = lambda states: (slice(None),) * axis + (states,)
    new = np.zeros_like(grid)
    if cap:
        new[at(2 + bit)] = grid[at(slice(3 - bit, None, 2))].sum(axis=axis)
        new[at(slice(4 + bit, None, 2))] = grid[at(slice(2 + bit, 2 * cap + bit, 2))]
    return new


def _transfer(table: _Table, n: int):
    """_classes by a pass over the positions of each group (_groups), with
    a dense int64 grid of counts over the group's axes. The grid starts from
    the parts on positions 1..L, L = min(n, BUILD_MAX_N) // 2, tabulated as
    _members tabulates them: each part that keeps the group's caps adds to the
    cell of its residues and states, once per value of the other low
    positions. Then the grid takes the group's later positions in order: a 1
    bit rolls the residues by the forms' weights there, and at a column of a
    capped row each bit steps its state (_step). Each group keeps tie residue
    0 and sums out its states. The groups vary independently, so the classes
    are the outer product of their key grids, in parameter order, times 2
    for each position that no form covers."""
    zeros, caps, keys = _compiled(table, n)
    t, residues, L = len(zeros), len(zeros) + len(keys), min(n, BUILD_MAX_N) // 2
    forms, groups = zeros + keys + [row for row, _, _ in caps], _groups(table, n)
    grids = [np.zeros(math.prod(radices), dtype=np.int64) for _, radices, _ in groups]
    for _, low, states in _parts(table, n, 0, L):
        digits = low + states
        for grid, (axes, radices, _) in zip(grids, groups):
            alive = np.all([digits[a] >= 0 for a in axes], axis=0)
            cells = np.ravel_multi_index([digits[a][alive] for a in axes], radices)
            grid += np.bincount(cells, minlength=len(grid))
    total, free = np.ones((1,) * len(keys), dtype=np.int64), n
    for grid, (axes, radices, positions) in zip(grids, groups):
        seen = sum(p < L for p in positions)
        grid = (grid >> (L - seen)).reshape(radices)
        for p in positions[seen:]:
            one, steps = grid, []
            for j, a in enumerate(axes):
                w = forms[a].weights[p] % forms[a].mod
                if w and a < residues:
                    one = np.take(one, np.arange(-w, radices[j] - w), axis=j, mode="wrap")
                elif w:
                    steps.append((j, caps[a - residues][2]))
            zero = grid
            for j, cap in steps:
                zero, one = _step(zero, j, cap, 0), _step(one, j, cap, 1)
            grid = zero + one
        ties = sum(a < t for a in axes)
        at = [a - t for a in axes[ties:] if a < residues]  # the group's keys
        kept = grid[(0,) * ties].sum(axis=tuple(range(len(at), len(axes) - ties)))
        radix = dict(zip(at, kept.shape))
        total = total * kept.reshape([radix.get(i, 1) for i in range(len(keys))])
        free -= len(positions)
    sizes = total.ravel() << free
    classes = np.flatnonzero(sizes)
    return classes, sizes[classes]


def _join(table: _Table, n: int, L: int):
    """_classes by the pair join of the parts on positions 1..L and L+1..n.
    Each part is binned by its tie residues, boundary states and key
    residues. A low and a high bin join when their ties cancel and their
    boundary runs keep every cap; the pair adds the product of their counts
    to the class of their summed key residues."""
    zeros, caps, keys = _compiled(table, n)
    ties, mods = [f.mod for f in zeros], [f.mod for f in keys]
    t, c = len(ties), len(caps)
    groups = _key_groups(tuple(mods))
    radices = ties + [2 * cap + 2 for _, _, cap in caps] + mods  # ties, states, keys
    parts = []
    for lo, hi in ((0, L), (L, n)):
        words, residues, runs = _tabulate(table, n, lo, hi)
        bins = _ravel(residues[:t] + runs + residues[t:], radices, len(words))
        bins, counts = _tally([(bins, None)], math.prod(radices), len(bins))
        digits = _unravel(bins, radices)
        states = [d.astype(np.uint8) for d in digits[t : t + c]]  # cheap gathers in _fit
        keys = [np.ravel_multi_index(digits[t + c :][run], wide) for run, wide, _ in groups]
        parts.append((digits[:t], states, keys, counts))
    (t_lo, s_lo, k_lo, n_lo), (t_hi, s_hi, k_hi, n_hi) = parts
    low = _ravel(t_lo, ties, len(n_lo))
    want = _ravel([(m - d) % m for d, m in zip(t_hi, ties)], ties, len(n_hi))
    # The high bins join in blocks of about `step` pairs (BLOCK), each
    # made when the tally takes it. A block of fewer pairs than classes saves
    # nothing: a dense tally passes over every class per block, and a sparse
    # one (more classes than pairs) sorts all pairs at once, so it gets one block.
    order, first, count = _matches(low, want, math.prod(ties))
    ends, size = np.cumsum(count), math.prod(mods)
    total = int(ends[-1]) if len(ends) else 0  # pairs before the caps are checked
    step = max(BLOCK, size)
    cuts = np.searchsorted(ends, np.arange(step, total, step))

    def block(start: int, stop: int):
        i, j = _expand(order, first[start:stop], count[start:stop])
        j += start
        fit = _fit(caps, s_lo, s_hi, i, j)
        i, j = i[fit], j[fit]
        classes, sizes = np.zeros(len(i), dtype=np.intp), n_lo[i] * n_hi[j]
        for (_, _, table), x, y in zip(groups, k_lo, k_hi):
            classes += table[x[i] + y[j]]
        return classes, sizes

    return _tally(map(block, [0, *cuts], [*cuts, len(want)]), size, total)


def _classes(table: _Table, n: int):
    """Every non-empty parameter class as its packed key residues (ascending,
    the first key most significant) and its size, and the key moduli.

    The one place that decides what can be counted, from the radices alone,
    before any part is tabulated: the transfer where 2^n fits an int64 and
    every group's grid holds at most 2^CHUNK_BITS cells (one chunk); else the
    pair join at n // 2 up to BUILD_MAX_N, on _members' halves; else
    DomainError. Where 2^n does not fit, the table is not compiled at n."""
    fits = n < np.iinfo(np.int64).bits - 1 and all(
        math.prod(radices) <= 1 << CHUNK_BITS for _, radices, _ in _groups(table, n)
    )
    if not fits and n > BUILD_MAX_N:
        raise DomainError(f"cannot count the classes at n={n}: the pair join stops at n = {BUILD_MAX_N}, "
                          f"the transfer needs 2^n in int64 and grids of <= 2^{CHUNK_BITS} cells")
    count = _transfer(table, n) if fits else _join(table, n, n // 2)
    return count, [f.mod for f in _compiled(table, n)[2]]


def _class_sizes(table: _Table, n: int) -> dict[tuple[int, ...], int]:
    """Every non-empty class of the table at n >= 1 as {key residues: size} in
    Python ints, by _classes; a table of no key forms has the one class ()."""
    if n < 1:
        raise DomainError(f"count needs n >= 1, got n={n}")
    (classes, sizes), mods = _classes(table, n)
    residues = zip(*(d.tolist() for d in _unravel(classes, mods))) if mods else [()] * len(classes)
    return dict(zip(residues, sizes.tolist()))
