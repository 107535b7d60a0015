"""Composite code constructions over the array view.

Every family is one record (``_FAMILIES``) that holds all of its facts: its
constraint table at b, the error model it corrects, its domain, its column of
``bounds.reference_redundancies`` and the note that tabulate prints beside
it, if any. Nothing else switches on the family.

A family's table is made of linear residue forms (``_family_table``), which
``_enum`` compiles and counts: membership evaluates the compiled table on one
word, ``build`` takes one class's members from ``_enum._members``, and
``best_params`` and the CLI's tabulate (``_best``) read ``_enum._classes``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import IO, Callable, Iterable

import numpy as np

from . import _enum, balls
from ._enum import BUILD_MAX_N, CHUNK_BITS, _classes, _compiled, _Form, _members, _Table, _unravel, _vt_word
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
# Constraint tables (_enum._Table): key forms, whose residues are the
# parameters, tie forms, each equal to a key form or 0, and run caps on row 1
# of an array view. Fields, ranges, membership, builds, searches and the
# decoders' constants all read a family's table.
# ---------------------------------------------------------------------------


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


def _cheng1(b: int) -> _Table:
    vt0 = lambda n: n // b + 1
    return _Table(ties=tuple((_Form(b, r, True, vt0), None) for r in range(1, b + 1)))


def _at_most_consecutive(b: int) -> _Table:
    cap = lambda n: urll_cap(n, b)
    table = _vt_word("a_vt") + _burst_rows(2, "2")
    for lev in range(3, b + 1):
        table += _burst_rows(lev, str(lev), cap, lambda n: cap(n) + 1)
    return table


@dataclass(frozen=True)
class _Record:
    """A family: its table at b, the kind of error it corrects, its column of
    bounds.reference_redundancies, and its domain: b equal to `b` when fixed,
    else at least `b`; n a multiple of divisor(b) and at least least_n(b). A
    note, where set, is what a report of the family prints beside its column."""

    table: Callable[[int], _Table]
    model: ErrorKind
    bound: str
    b: int
    fixed: bool = True
    divisor: Callable[[int], int] = lambda b: 1
    least_n: Callable[[int], int] = lambda b: 1
    note: str | None = None


# the note of the families whose at-most-2 component is cl2's
_VT_TWO_BURST = (
    "the at-most-2 component is a VT intersection with an exact-2-burst code, which adds about "
    "log2(n) redundancy over the two-adjacent-deletions code the formula column refers to"
)

_FAMILIES = {
    # every row of A_b a VT_0 code (the baseline)
    Family.CHENG1: _Record(
        _cheng1, ErrorKind.DEL_EXACT, "cheng_baseline",
        b=1, fixed=False, divisor=lambda b: b, least_n=lambda b: 2 * b,
    ),
    # row 1 of A_b a run-length-limited VT code, rows 2..b one shifted-VT code
    Family.BURST_EXACT: _Record(
        lambda b: _burst_rows(b, ""), ErrorKind.DEL_EXACT, "burst_exact_bound",
        b=2, fixed=False, divisor=lambda b: b, least_n=lambda b: 2 * b,
    ),
    # a whole-word VT residue with burst-exact at b = 2 (see its note)
    Family.CL2: _Record(
        lambda b: _vt_word("a_vt") + _burst_rows(2, "2"), ErrorKind.DEL_AT_MOST_CONSECUTIVE,
        "two_burst_reference", b=2, divisor=lambda b: 2, least_n=lambda b: 4, note=_VT_TWO_BURST,
    ),
    # cl2 with burst-exact-style codes for levels 3..b under a universal run cap
    Family.AT_MOST_CONSECUTIVE: _Record(
        _at_most_consecutive, ErrorKind.DEL_AT_MOST_CONSECUTIVE, "at_most_consecutive_bound",
        b=3, fixed=False, divisor=math.factorial, note=_VT_TWO_BURST,
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
        b=3, divisor=math.factorial, least_n=lambda b: 8,
    ),
    Family.NONCONS4: _Record(
        lambda b: _vt_word("a1") + _burst_rows(4, "4") + _row_keys(2, "h") + _row_keys(3, "t"),
        ErrorKind.DEL_AT_MOST_NONCONSECUTIVE, "noncons4_bound",
        b=4, divisor=math.factorial, least_n=lambda b: 12,
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


def target_model(spec: CodeSpec) -> balls.ErrorModel:
    """The error model the spec's family corrects at its b."""
    return balls.ErrorModel(_FAMILIES[spec.family].model, spec.b)


def _validate_burst(family: Family, b: int) -> int:
    """b as a Python int; DomainError unless family is a Family and b is an
    integer in the family's domain whose table has at most 2^CHUNK_BITS
    residues at the least n of any domain, n = 2b: 64 b^2, so b <= 128.
    The one check of a burst size."""
    rec, name = _record(family), family.value
    b = integer(b, "burst size b")
    if b != rec.b and (rec.fixed or b < rec.b):
        raise DomainError(f"{name} needs b {'=' if rec.fixed else '>='} {rec.b}, got b={b}")
    if b * b << 6 > 1 << CHUNK_BITS:
        raise DomainError(f"{name} tables stop at 32 n b <= 2^{CHUNK_BITS} residues at n >= 2b, got b={b}")
    return b


def _validate_structure(family: Family, n: int, b: int) -> tuple[int, int]:
    """n and b as Python ints; DomainError unless b passes _validate_burst, n
    is an integer, (n, b) lies in the family's domain, and the family's table
    at n compiles to at most 2^CHUNK_BITS residues: about b forms of 2^8
    residues for every 8 of the n positions, 32 n b in all. Every entry that
    takes a spec calls it before the table is built. CHUNK_BITS is bound at
    import, so shrinking _enum.CHUNK_BITS to force small chunks leaves it."""
    b = _validate_burst(family, b)
    rec, name, n = _FAMILIES[family], family.value, integer(n, "code length n")
    if n % (d := rec.divisor(b)):
        raise DomainError(f"{name} needs n a multiple of {d} at b={b}, got n={n}")
    if n < rec.least_n(b):
        raise DomainError(f"{name} needs n >= {rec.least_n(b)} at b={b}, got n={n}")
    if n * b << 5 > 1 << CHUNK_BITS:
        raise DomainError(f"{name} tables stop at 32 n b <= 2^{CHUNK_BITS} residues, got n={n}, b={b}")
    return n, b


def param_fields(family: Family, b: int) -> tuple[str, ...]:
    """The family's parameter names at b; DomainError, before any table, for a
    b that _validate_burst refuses."""
    return tuple(name for name, _ in _family_table(family, _validate_burst(family, b)).keys)


def param_ranges(family: Family, n: int, b: int) -> tuple[int, ...]:
    """Inclusive upper bound of every parameter, in param_fields order."""
    n, b = _validate_structure(family, n, b)
    return tuple(form.mod(n) - 1 for _, form in _family_table(family, b).keys)


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
# Codebooks.
# ---------------------------------------------------------------------------


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
    """Enumerate all members of spec, by the split join (_enum._members), up
    to BUILD_MAX_N."""
    if spec.n > BUILD_MAX_N:
        raise DomainError(f"build capped at n <= {BUILD_MAX_N}")
    return codebook_from_ints(_members(_family_table(spec.family, spec.b), spec.n, spec.params), spec.n, spec)


def _best(family: Family, n: int, b: int) -> tuple[tuple[int, ...], int]:
    """The parameter tuple with the largest class, ties broken by the
    lexicographically smallest tuple, and the size of that class."""
    n, b = _validate_structure(family, n, b)
    (classes, sizes), mods = _classes(_family_table(family, b), n)
    if not len(classes):
        raise DomainError(f"{family.value} has no non-empty parameter class at n={n}")
    best = np.argmax(sizes)  # the first, smallest, of the largest classes
    return tuple(int(d) for d in _unravel(classes[best], mods)), int(sizes[best])


def best_params(family: Family, n: int, b: int) -> CodeSpec:
    """The spec of _best's parameters; a family of none has nothing to search, at any n."""
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
