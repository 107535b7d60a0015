"""Composite code constructions over the array view.

Every family is one record (``_FAMILIES``) that holds all of its facts: its
constraint table at b, the error model it corrects, its domain and its column
of ``bounds.reference_redundancies``. Nothing else switches on the family.

A family's table is made of linear residue forms (``_family_table``): its
parameters are the residues of the key forms, in the order ``param_fields``
lists, and a word qualifies when its tie forms equal their key forms (or 0)
and row 1 of an array view keeps its run cap. Membership evaluates the table
on one word. Builds and best-parameter searches never visit the 2^n words
one by one. Every form adds across a split of the word into hi * 2^L + lo,
and a capped row only needs the two runs that meet at the split, so
``build`` tabulates both parts once (2^L and 2^(n-L) entries, drawn from
``_enum.iter_chunks``, at L = n // 2) and looks up, for each hi, the one low
residue vector that completes it to the parameters. ``best_params``, the
CLI's tabulate (``_best``) and vt and rll (``_class_sizes``) count classes
exactly with ``_classes``, which alone decides how: by a transfer over
positions (``_transfer``), by a join of the parts of the split word
(``_join``), or not at all.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import IO, Callable, Iterable

import numpy as np

from . import _enum, balls
from .balls import ErrorKind
from .bitseq import Word, array_view, as_word, flatten, from_int, to_int
from .errors import DecodeFailure, DomainError, integer
from .rll import ceil_log2, urll_cap
from .vt import DecodeResult, SvtParams, VtParams, svt_decode, vt_decode


class Family(Enum):
    CHENG1 = "cheng1"
    BURST_EXACT = "burst-exact"
    CL2 = "cl2"
    AT_MOST_CONSECUTIVE = "at-most-consecutive"
    C21 = "c21"
    NONCONS3 = "noncons3"
    NONCONS4 = "noncons4"


def parse_family(name: str) -> Family:
    for fam in Family:
        if fam.value == name:
            return fam
    raise DomainError(f"unknown code family {name!r}")


@dataclass(frozen=True)
class CodeSpec:
    family: Family
    n: int
    b: int
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Python ints, so that specs equal in value share cached constants
        n, b = _validate_structure(self.family, self.n, self.b)
        try:
            params = tuple(integer(p, "parameter") for p in self.params)
        except TypeError:
            raise DomainError(f"params must be a sequence of integers, got {self.params!r}") from None
        for name, value in (("n", n), ("b", b), ("params", params)):
            object.__setattr__(self, name, value)
        keys = _family_table(self.family, b).keys
        if len(params) != len(keys):
            raise DomainError(f"{self.family.value} expects {len(keys)} parameters "
                              f"({','.join(name for name, _ in keys)}), got {len(params)}")
        for (name, form), value in zip(keys, params):
            if value not in range(mod := form.mod(n)):
                raise DomainError(f"parameter {name}={value} outside [0, {mod - 1}]")


def _burst_consts(n: int, b: int) -> tuple[int, int, int]:
    """(row length, row-1 run cap, shifted-VT span) for the burst-exact family."""
    m = n // b
    return m, ceil_log2(2 * m), ceil_log2(m) + 2


# ---------------------------------------------------------------------------
# Constraint tables. A family is one table of linear residue forms on the rows
# of array views: named key forms, whose residues are the parameters; tie
# forms, each of which must equal a key form or 0; and run caps on row 1 of an
# array view. Fields, ranges, membership, builds, searches and the decoders'
# constants all read it.
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


def _burst_rows(
    lev: int, tag: str, cap: Callable | None = None, span: Callable | None = None
) -> _Table:
    """The burst-exact array code on A_lev: row 1 a VT code under a run cap,
    rows 2..lev in one shifted-VT class (checksum mod span, weight mod 2).
    The cap and span default to the burst-exact family's (_burst_consts)."""
    cap = cap or (lambda n: _burst_consts(n, lev)[1])
    span = span or (lambda n: _burst_consts(n, lev)[2])
    c, d = _Form(lev, 2, True, span), _Form(lev, 2, False, lambda n: 2)
    vt = _Form(lev, 1, True, lambda n: n // lev + 1)
    keys = ((f"a{tag}", vt), (f"c{tag}", c), (f"d{tag}", d))
    ties = [(f._replace(row=r), k) for r in range(3, lev + 1) for k, f in keys[1:]]
    return _Table(keys, tuple(ties), ((lev, cap),))


def _row_keys(lev: int, tag: str) -> _Table:
    """The (2,1)-burst code on every row r of A_lev, with row length m: its
    checksum mod 2m - 1 as {tag}{r}_a and its weight mod 4 as {tag}{r}_c."""
    a = ("a", _Form(lev, 0, True, lambda n: 2 * (n // lev) - 1))
    c = ("c", _Form(lev, 0, False, lambda n: 4))
    return _Table(
        tuple((f"{tag}{r}_{k}", f._replace(row=r)) for r in range(1, lev + 1) for k, f in (a, c))
    )


def _vt_word(name: str) -> _Table:
    return _Table(((name, _Form(1, 1, True, lambda n: n + 1)),))


def _cheng1(b: int) -> _Table:
    vt0 = lambda n: n // b + 1
    return _Table(ties=tuple((_Form(b, r, True, vt0), None) for r in range(1, b + 1)))


def _at_most_consecutive(b: int) -> _Table:
    cap = lambda n: urll_cap(n, b)
    table = _vt_word("a_vt") + _burst_rows(2, "2")
    for lev in range(3, b + 1):
        table += _burst_rows(lev, str(lev), cap, lambda n: cap(n) + 1)
    return table


def _factorial(b: int, n: int) -> int | None:
    """b!, the divisor of n != 0, one factor at a time: None once the product
    passes |n|, which b! then cannot divide, and the ints that str prints."""
    d, top = 1, None
    for k in range(2, b + 1):
        d *= k
        if d > abs(n) and d >= (top := top or 10 ** sys.get_int_max_str_digits()):
            return None
    return d


@dataclass(frozen=True)
class _Record:
    """A family: its table at b, the kind of error it corrects, its column of
    bounds.reference_redundancies, and its domain: b equal to `b` when fixed,
    else at least `b`; n a multiple of divisor(b, n) (None where it cannot be
    and is too long to print) and at least least_n(b)."""

    table: Callable[[int], _Table]
    model: ErrorKind
    bound: str
    b: int
    fixed: bool = True
    divisor: Callable[[int, int], int | None] = lambda b, n: 1
    least_n: Callable[[int], int] = lambda b: 1


_FAMILIES = {
    # every row of A_b a VT_0 code (the baseline)
    Family.CHENG1: _Record(
        _cheng1, ErrorKind.DEL_EXACT, "cheng_baseline",
        b=1, fixed=False, divisor=lambda b, n: b, least_n=lambda b: 2 * b,
    ),
    # row 1 of A_b a run-length-limited VT code, rows 2..b one shifted-VT code
    Family.BURST_EXACT: _Record(
        lambda b: _burst_rows(b, ""), ErrorKind.DEL_EXACT, "burst_exact_bound",
        b=2, fixed=False, divisor=lambda b, n: b, least_n=lambda b: 2 * b,
    ),
    # a whole-word VT residue with burst-exact at b = 2 (see the report's note)
    Family.CL2: _Record(
        lambda b: _vt_word("a_vt") + _burst_rows(2, "2"), ErrorKind.DEL_AT_MOST_CONSECUTIVE,
        "two_burst_reference", b=2, divisor=lambda b, n: 2, least_n=lambda b: 4,
    ),
    # cl2 with burst-exact-style codes for levels 3..b under a universal run cap
    Family.AT_MOST_CONSECUTIVE: _Record(
        _at_most_consecutive, ErrorKind.DEL_AT_MOST_CONSECUTIVE, "at_most_consecutive_bound",
        b=3, fixed=False, divisor=_factorial,
    ),
    # weight mod 4 (c) and checksum mod 2n - 1 (a): one (2,1)-burst or deletion
    Family.C21: _Record(
        lambda b: _Table(tuple((k[-1], f) for k, f in _row_keys(1, "").keys)),
        ErrorKind.BURST_2_1, "burst21_bound", b=2, least_n=lambda b: 4,
    ),
    # VT, burst-exact and (2,1)-burst codes on the rows of A_2 (and A_3 at b = 4)
    Family.NONCONS3: _Record(
        lambda b: _vt_word("a1") + _burst_rows(3, "3") + _row_keys(2, "h"),
        ErrorKind.DEL_AT_MOST_NONCONSECUTIVE, "noncons3_bound",
        b=3, divisor=_factorial, least_n=lambda b: 8,
    ),
    Family.NONCONS4: _Record(
        lambda b: _vt_word("a1") + _burst_rows(4, "4") + _row_keys(2, "h") + _row_keys(3, "t"),
        ErrorKind.DEL_AT_MOST_NONCONSECUTIVE, "noncons4_bound",
        b=4, divisor=_factorial, least_n=lambda b: 12,
    ),
}


@functools.lru_cache(maxsize=64)
def _family_table(family: Family, b: int) -> _Table:
    """The family's table at burst parameter b; moduli and caps take n."""
    return _FAMILIES[family].table(b)


def _record(family: Family) -> _Record:
    """The family's record; DomainError for anything but a Family."""
    if not isinstance(family, Family):
        raise DomainError(f"family must be a Family, got {family!r}")
    return _FAMILIES[family]


def default_burst(family: Family) -> int | None:
    """The burst parameter a family fixes on its own, if any."""
    rec = _record(family)
    return rec.b if rec.fixed else None


def _validate_structure(family: Family, n: int, b: int) -> tuple[int, int]:
    """n and b as Python ints; DomainError unless family is a Family, n and b
    are integers, and (n, b) lies in the family's domain."""
    rec, name = _record(family), family.value
    n, b = integer(n, "code length n"), integer(b, "burst size b")
    if b != rec.b and (rec.fixed or b < rec.b):
        raise DomainError(f"{name} needs b {'=' if rec.fixed else '>='} {rec.b}, got b={b}")
    if n and ((d := rec.divisor(b, n)) is None or n % d):  # 0 is a multiple of every divisor
        raise DomainError(f"{name} needs n a multiple of {'b!' if d is None else d} at b={b}, got n={n}")
    if n < rec.least_n(b):
        raise DomainError(f"{name} needs n >= {rec.least_n(b)} at b={b}, got n={n}")
    return n, b


@functools.lru_cache(maxsize=64)
def param_fields(family: Family, b: int) -> tuple[str, ...]:
    return tuple(name for name, _ in _family_table(family, b).keys)


def param_ranges(family: Family, n: int, b: int) -> tuple[int, ...]:
    """Inclusive upper bound of every parameter, in param_fields order."""
    n, b = _validate_structure(family, n, b)
    return tuple(form.mod(n) - 1 for _, form in _family_table(family, b).keys)


@functools.lru_cache(maxsize=128)
def _compiled(table: _Table, n: int, lo: int = 0, hi: int | None = None):
    """The table at length n: the ties as forms that must be 0, the caps as
    (packed row, its number of columns, run cap), and the key forms in
    parameter order. Restricted to positions lo+1..hi, packed from bit 0, a
    form gives that part's share of its residue and a packed row that part's
    columns, its first column at bit 0."""
    hi = n if hi is None else hi
    weights = lambda f: _enum.row(n, f.lev, f.row, lambda k: k + 1 if f.weighted else 1) if f else [0] * n
    keys = dict(table.keys)
    zeros = [  # a tie to a key form is their difference (a tie to 0, to no form)
        _enum.Linear([x - y for x, y in zip(weights(f), weights(keys.get(key)))][lo:hi], f.mod(n))
        for f, key in table.ties
    ]
    caps = []
    for lev, cap in table.caps:
        top = cap(n)
        if top < n // lev:  # otherwise no row can break the cap
            first = -(-lo // lev)  # the part's first column, at bit 0
            row = _enum.row(n, lev, 1, lambda k: 1 << k >> first)[lo:hi]
            cols = len(range(first * lev, hi, lev))
            caps.append((_enum.Linear(row, 1 << cols), cols, top))
    return zeros, caps, [_enum.Linear(weights(f)[lo:hi], f.mod(n)) for f in keys.values()]


def member(spec: CodeSpec, x: Word) -> bool:
    """Per-word membership predicate."""
    if len(x) != spec.n:
        raise DomainError(f"expected length {spec.n}, got {len(x)}")
    return _member(spec, to_int(x))


def _member(spec: CodeSpec, v: int) -> bool:
    """member of the length-n word packed in v."""
    zeros, caps, keys = _compiled(_family_table(spec.family, spec.b), spec.n)
    return (
        all(f(v) == 0 for f in zeros)
        and all(_enum.max_run_le(row(v), m, cap) for row, m, cap in caps)
        and all(f(v) == p for f, p in zip(keys, spec.params))
    )


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
    states = np.where(_enum.max_run_le(v, cols, cap), 2 * run + edge, -1).astype(np.int8)
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
    _enum.iter_chunks at a time: the parts, the residues of the tie and then
    the key forms at each, and the boundary state of every capped row."""
    zeros, caps, keys = _compiled(table, n, lo, hi)
    edges = [(row, _edges(cols, cap, lo == 0)) for row, cols, cap in caps]
    for chunk in _enum.iter_chunks(hi - lo):
        words = chunk.astype(np.intp)
        octets = _enum.octets(words, hi - lo)
        yield words, [f.at(octets) for f in zeros + keys], [np.take(t, row.at(octets)) for row, t in edges]


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


def _pack(digits, radices, count: int) -> np.ndarray:
    """`count` digit tuples as mixed-radix ints, the first digit most
    significant, so that packed values sort like the tuples."""
    if math.prod(radices) > np.iinfo(np.intp).max:
        raise DomainError("parameter space too wide to pack")
    return np.ravel_multi_index(digits, radices) if digits else np.zeros(count, dtype=np.intp)


def _unpack(values: np.ndarray, radices) -> tuple:
    """The digits of packed values, inverse to _pack; no radices, no digits."""
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
# Codebooks.
# ---------------------------------------------------------------------------

BUILD_MAX_N = 26


@dataclass(frozen=True, eq=False)
class Codebook:
    """Distinct length-n words as `rows`, one read-only row per word in
    lexicographic order: np.packbits of its bits, shape (k, ceil(n/8)),
    uint8, position 1 at the most significant bit of byte 0. Word tuples are
    made only when `words` is read."""

    n: int
    rows: np.ndarray
    spec: CodeSpec | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"codebook length must be >= 1, got n={self.n}")
        self.rows.flags.writeable = False

    @functools.cached_property
    def words(self) -> tuple[Word, ...]:
        bits = np.unpackbits(self.rows, axis=1, count=self.n)
        return tuple(struct.iter_unpack(f"{self.n}B", bits.tobytes()))

    def _identity(self) -> tuple:
        return self.n, self.spec, self.rows.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def redundancy(self) -> float:
        if not self.cardinality:
            return math.inf
        return self.n - math.log2(self.cardinality)

    @property
    def label(self) -> str:
        if self.spec is None:
            return f"adhoc(n={self.n},size={self.cardinality})"
        s = self.spec
        return f"{s.family.value}(n={s.n},b={s.b},params={','.join(map(str, s.params))})"


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in the lexicographic order of their bytes, which is
    the lexicographic order of the words they pack. Rows of at most 8 bytes
    sort as one big-endian uint64 each."""
    count, width = rows.shape
    if count > 1 and width <= 8:
        values = np.zeros(count, dtype=np.uint64)
        for column in rows.T:
            values <<= 8
            values |= column
        values.sort()
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        rows = np.empty((len(values), width), dtype=np.uint8)
        for i in range(width):
            rows[:, i] = values >> 8 * (width - 1 - i)  # uint8 keeps the low byte
    elif count > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
        rows = rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]
    return rows


def _codebook(n: int, spec: CodeSpec | None, words, rows: Callable[[], np.ndarray]) -> Codebook:
    """The one constructor: words all of length n >= 1, rows() put in order."""
    if n < 1:
        raise DomainError(f"codebook length must be >= 1, got n={n}")
    if any(len(w) != n for w in words):
        raise DomainError("codebook words must share one length")
    return Codebook(n, _distinct(rows()), spec)


def codebook_from_words(words: Iterable[Word], n: int, spec: CodeSpec | None = None) -> Codebook:
    """The codebook of the words, each taken through as_word."""
    words = list(map(as_word, words))
    return _codebook(n, spec, words, lambda: np.packbits(np.array(words, np.uint8).reshape(-1, n), axis=1))


def codebook_from_ints(vs, n: int, spec: CodeSpec | None = None) -> Codebook:
    """The codebook of packed length-n words (n <= 64, position 1 at the
    least significant bit); DomainError for a value outside [0, 2^n)."""
    return _codebook(n, spec, (), lambda: _enum.unpack(_enum.words(vs, n), n))


def build(spec: CodeSpec) -> Codebook:
    """Enumerate all members of spec: the low parts are sorted by their
    residues, and each high part looks up the one residue vector that
    completes it to the parameters, so the work follows the members found."""
    if spec.n > BUILD_MAX_N:
        raise DomainError(f"build capped at n <= {BUILD_MAX_N}")
    n, table = spec.n, _family_table(spec.family, spec.b)
    zeros, caps, keys = _compiled(table, n)
    mods = [f.mod for f in zeros + keys]
    targets = [0] * len(zeros) + list(spec.params)
    # One bucket per high part at any L, so the parts balance at n // 2.
    L = n // 2
    (w_lo, r_lo, s_lo), (w_hi, r_hi, s_hi) = (
        _tabulate(table, n, lo, hi) for lo, hi in ((0, L), (L, n))
    )
    want = [(t + m - r) % m for t, r, m in zip(targets, r_hi, mods)]
    i, j = _expand(*_matches(_pack(r_lo, mods, len(w_lo)), _pack(want, mods, len(w_hi)), math.prod(mods)))
    fit = _fit(caps, s_lo, s_hi, i, j)
    return codebook_from_ints(w_hi[j[fit]] << L | w_lo[i[fit]], n, spec)


# ---------------------------------------------------------------------------
# Class counts: a transfer over the positions where its grids fit one chunk,
# else the pair join of the two parts of a split word.
# ---------------------------------------------------------------------------


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
    build tabulates them: each part that keeps the group's caps adds to the
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
        bins = _pack(residues[:t] + runs + residues[t:], radices, len(words))
        bins, counts = _tally([(bins, None)], math.prod(radices), len(bins))
        digits = _unpack(bins, radices)
        states = [d.astype(np.uint8) for d in digits[t : t + c]]  # cheap gathers in _fit
        keys = [np.ravel_multi_index(digits[t + c :][run], wide) for run, wide, _ in groups]
        parts.append((digits[:t], states, keys, counts))
    (t_lo, s_lo, k_lo, n_lo), (t_hi, s_hi, k_hi, n_hi) = parts
    low = _pack(t_lo, ties, len(n_lo))
    want = _pack([(m - d) % m for d, m in zip(t_hi, ties)], ties, len(n_hi))
    # The high bins join in blocks of about `step` pairs (_enum.BLOCK), each
    # made when the tally takes it. A block of fewer pairs than classes saves
    # nothing: a dense tally passes over every class per block, and a sparse
    # one (more classes than pairs) sorts all pairs at once, so it gets one block.
    order, first, count = _matches(low, want, math.prod(ties))
    ends, size = np.cumsum(count), math.prod(mods)
    total = int(ends[-1]) if len(ends) else 0  # pairs before the caps are checked
    step = max(_enum.BLOCK, size)
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
    every group's grid holds at most 2^_enum.CHUNK_BITS cells (one chunk);
    else the pair join at n // 2, up to BUILD_MAX_N, where it tabulates the
    halves that build does; else DomainError."""
    fits = n < np.iinfo(np.int64).bits - 1 and all(
        math.prod(radices) <= 1 << _enum.CHUNK_BITS for _, radices, _ in _groups(table, n))
    if not fits and n > BUILD_MAX_N:
        raise DomainError(f"cannot count the classes at n={n}: the pair join stops at n = {BUILD_MAX_N}, "
                          f"the transfer needs 2^n in int64 and grids of <= 2^{_enum.CHUNK_BITS} cells")
    count = _transfer(table, n) if fits else _join(table, n, n // 2)
    return count, [f.mod for f in _compiled(table, n)[2]]


def _class_sizes(table: _Table, n: int) -> dict[tuple[int, ...], int]:
    """Every non-empty class of the table at n >= 1 as {key residues: size} in
    Python ints, by _classes; a table of no key forms has the one class ()."""
    if n < 1:
        raise DomainError(f"count needs n >= 1, got n={n}")
    (classes, sizes), mods = _classes(table, n)
    residues = zip(*(d.tolist() for d in _unpack(classes, mods))) if mods else [()] * len(classes)
    return dict(zip(residues, sizes.tolist()))


def _best(family: Family, n: int, b: int) -> tuple[tuple[int, ...], int]:
    """The parameter tuple with the largest class, ties broken by the
    lexicographically smallest tuple, and the size of that class."""
    n, b = _validate_structure(family, n, b)
    (classes, sizes), mods = _classes(_family_table(family, b), n)
    if not len(classes):
        raise DomainError(f"{family.value} has no non-empty parameter class at n={n}")
    best = np.argmax(sizes)  # the first, smallest, of the largest classes
    return tuple(int(d) for d in _unpack(classes[best], mods)), int(sizes[best])


def best_params(family: Family, n: int, b: int) -> CodeSpec:
    """The spec of _best's parameters; a family of none has nothing to search, at any n."""
    n, b = _validate_structure(family, n, b)
    return CodeSpec(family, n, b, _best(family, n, b)[0] if param_fields(family, b) else ())


# ---------------------------------------------------------------------------
# Codebook files: one header line, then one word per line, sorted.
# ---------------------------------------------------------------------------


def write_codebook(cb: Codebook, out: IO[str]) -> None:
    """The header, then the words in blocks of about _enum.BLOCK characters:
    the bits of a block's rows become the characters 0 and 1 of its lines in
    one reused buffer, whose newlines stay in place."""
    if cb.spec is None:
        header = f"# family=adhoc n={cb.n} b=0 params=-\n"
    else:
        p = ",".join(map(str, cb.spec.params)) or "-"
        header = f"# family={cb.spec.family.value} n={cb.spec.n} b={cb.spec.b} params={p}\n"
    out.write(header)
    step = max(1, _enum.BLOCK // (cb.n + 1))
    lines = np.full((min(step, cb.cardinality), cb.n + 1), ord("\n"), dtype=np.uint8)
    for start in range(0, cb.cardinality, step):
        rows = cb.rows[start : start + step]
        block = lines[: len(rows)]
        np.add(np.unpackbits(rows, axis=1, count=cb.n), ord("0"), out=block[:, :-1])
        out.write(str(block.data, "ascii"))


def read_codebook(lines: Iterable[str]) -> Codebook:
    it = iter(lines)
    try:
        header = next(it).strip()
    except StopIteration:
        raise DomainError("empty codebook file") from None
    if not header.startswith("#"):
        raise DomainError("codebook file must start with a '# family=...' header")
    try:
        kv = dict(part.split("=", 1) for part in header[1:].split())
        n = int(kv["n"])
        spec = None
        if kv.get("family", "adhoc") != "adhoc":
            text = kv.get("params", "-")
            params = () if text == "-" else tuple(int(t) for t in text.split(","))
            spec = CodeSpec(parse_family(kv["family"]), n, int(kv["b"]), params)
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed codebook header {header!r}: {exc!r}") from None
    words = [line for line in map(str.strip, it) if line]
    bits = np.frombuffer("".join(words).encode(), dtype=np.uint8) - ord("0")
    if (bits > 1).any():
        bad = next(w for w in words if w.strip("01"))
        raise DomainError(f"not a binary word: {bad!r}")
    return _codebook(n, spec, words, lambda: np.packbits(bits.reshape(-1, n), axis=1))


# ---------------------------------------------------------------------------
# Decoding.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _decoder_params(spec: CodeSpec, a: int) -> tuple[VtParams, SvtParams | None]:
    """The constants of the algebraic decoders for a deletions, built once
    per (spec, a) from the key forms on A_a by their place, not their names:
    the VT code of row 1 (its checksum) and, for a > 1, the shifted-VT code
    of the other rows (row 2's checksum, its modulus the span, and row 2's
    weight). A table of no key forms makes each row of A_b a VT_0 code."""
    n, m = spec.n, spec.n // a
    if not spec.params:
        return VtParams(n // spec.b, 0), None
    keys = _family_table(spec.family, spec.b).keys
    on = {(f.lev, f.row, f.weighted): (p, f.mod(n)) for (_, f), p in zip(keys, spec.params)}
    if a == 1:
        return VtParams(m, on[1, 1, True][0]), None
    (r, _), (c, span), (d, _) = on[a, 1, True], on[a, 2, True], on[a, 2, False]
    return VtParams(m, r), SvtParams(m, span, c, d)


def _decode_array_burst(spec: CodeSpec, a: int, y: Word) -> DecodeResult:
    """Construction core on A_a: VT-decode row 1 to localize the lost column,
    then shifted-VT-decode the other rows inside the localized window."""
    vt_params, svt_params = _decoder_params(spec, a)
    n = spec.n
    rows = array_view(y, a)
    first = vt_decode(rows[0], vt_params)
    j1, j2 = first.window
    u = max(1, j1 - 1)
    x = flatten((first.word, *(svt_decode(row, svt_params, u).word for row in rows[1:])))
    return DecodeResult(
        word=x,
        window=((u - 1) * a + 1, min(j2 * a, n)),
        detail={"kind": "burst-deletion", "size": a, "columns": (j1, j2)},
    )


def _search(spec: CodeSpec, received: tuple[int, int], models: tuple) -> tuple[Word, int, tuple[int, ...]]:
    """The unique member among the words whose ball under one of the models
    holds the received word, given as (length, packed value), that is among
    its ball under their inverse events (balls._inverse), with the model
    index and refilled positions of the first event that gives it. Each
    distinct candidate is tested with member."""
    n, (m, v) = spec.n, received
    first: dict[int, tuple] = {}
    for step, model in enumerate(models):
        for ev, x in balls.walk(v, balls._inverse(n, model, m)):
            first.setdefault(x, (step, ev.inserted))  # the refilled positions
    survivors = [x for x in first if member(spec, from_int(x, n))]
    if not survivors:
        raise DecodeFailure("no codeword explains the received word")
    if len(survivors) > 1:
        raise DecodeFailure(f"{len(survivors)} codewords explain the received word")
    return from_int(survivors[0], n), *first[survivors[0]]


def decode(spec: CodeSpec, y: Word) -> DecodeResult:
    """Recover the unique codeword whose target-model ball contains y.

    y may be any sequence of 0/1 entries (bools and numpy ints included); it
    is checked once, on entry, and any other entry raises DomainError. The
    number of deletions a = n - |y| follows from the received length; a = 0 is
    a pass-through for codewords. VT and array-view decoders rebuild the word,
    with constants read from the key forms once per (spec, a); c21 and the
    windowed patterns of noncons3/noncons4 search y's inverse ball. Every path
    ends in one check on y and the decoded word, each packed once: the word
    is a member and y lies in its ball under the path's model (balls.in_ball).
    """
    y = as_word(y)
    n = spec.n
    a = n - len(y)
    if a == 0:
        if member(spec, y):
            return DecodeResult(word=y, window=(1, n), detail={"kind": "none"})
        raise DecodeFailure("length-n input is not a codeword of this code")
    if a < 0:
        raise DecodeFailure("received word longer than the code length")
    received = (len(y), to_int(y))
    kind, model = _FAMILIES[spec.family].model, balls.del_exact(a)
    if kind is ErrorKind.BURST_2_1:
        if a != 1:
            raise DecodeFailure(f"{spec.family.value} expects received length {n - 1}, got {len(y)}")
        model = balls.burst21()
        x, step, refilled = _search(spec, received, (balls.del_exact(1), model))
        detail = {"kind": ("single-deletion", "burst-2-1")[step], "position": refilled[0]}
        result = DecodeResult(word=x, window=(refilled[0], refilled[-1]), detail=detail)
    elif kind is ErrorKind.DEL_EXACT and a != spec.b:
        raise DecodeFailure(f"{spec.family.value} expects exactly {spec.b} deletions, got {a}")
    elif a > spec.b:
        raise DecodeFailure(f"at most {spec.b} deletions supported, got {a}")
    elif not spec.params:  # a table of no key forms: every row of A_b is a VT_0 code
        result = _decode_cheng1(spec, y)
    elif a == 1:  # the whole-word VT component, on A_1
        result = vt_decode(y, _decoder_params(spec, a)[0])
    elif kind is ErrorKind.DEL_AT_MOST_NONCONSECUTIVE and a < spec.b:
        model = balls.del_at_most_noncons(spec.b)
        x, _, refilled = _search(spec, received, (model,))
        detail = {"kind": "windowed-deletion", "positions": refilled}
        result = DecodeResult(word=x, window=(refilled[0], refilled[-1]), detail=detail)
    else:
        result = _decode_array_burst(spec, a, y)
    x = to_int(result.word)
    if not _member(spec, x) or not balls.in_ball(received, x, n, model):
        raise DecodeFailure("decoded word does not explain the received word")
    return result


def _decode_cheng1(spec: CodeSpec, y: Word) -> DecodeResult:
    row_params = _decoder_params(spec, spec.b)[0]
    rows = [vt_decode(row, row_params) for row in array_view(y, spec.b)]
    x = flatten(tuple(r.word for r in rows))
    lo = min(r.window[0] for r in rows)
    hi = max(r.window[1] for r in rows)
    return DecodeResult(
        word=x,
        window=((lo - 1) * spec.b + 1, min(hi * spec.b, spec.n)),
        detail={"kind": "burst-deletion", "size": spec.b},
    )


# ---------------------------------------------------------------------------
# Target models and reporting.
# ---------------------------------------------------------------------------


def target_model(spec: CodeSpec) -> balls.ErrorModel:
    return balls.ErrorModel(_FAMILIES[spec.family].model, spec.b)


def redundancy_report(cb: Codebook) -> dict:
    """JSON-ready measured-vs-formula redundancy summary for a built codebook."""
    from . import bounds

    spec = cb.spec
    if spec is None:
        raise DomainError("redundancy report needs a family codebook")
    rec = _FAMILIES[spec.family]
    refs = bounds.reference_redundancies(spec.n, spec.b)
    report = {
        "family": spec.family.value,
        "n": spec.n,
        "b": spec.b,
        "params": list(spec.params),
        "cardinality": cb.cardinality,
        "redundancy_measured": None if not cb.cardinality else round(cb.redundancy, 6),
        "redundancy_formula": refs.get(rec.bound),
        "lower_bound": refs.get("lower_bound"),
    }
    if rec.model is ErrorKind.DEL_AT_MOST_CONSECUTIVE:
        report["note"] = (
            "the at-most-2 component is a VT intersection with an exact-2-burst "
            "code, which adds about log2(n) redundancy over the two-adjacent-"
            "deletions code the formula column refers to"
        )
    return report
