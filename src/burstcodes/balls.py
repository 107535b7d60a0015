"""Error balls for burst deletion/insertion channels, and their counting laws.

Seven channel models are supported: a deletion burst of exactly b consecutive
positions, of at most b consecutive positions, of at most b positions inside a
window of b consecutive positions (the non-consecutive variant), the three
mirror-image insertion models, and the (2,1)-burst (two adjacent deletions
followed by one insertion at the same position).

Balls contain only corrupted words: the "at most b" models exclude the
zero-error event, which decoders instead treat as pass-through when the
received length equals the code length. Balls are deduplicated sets of words,
not multisets of events.

Each (n, model) has one cached event table (_events), the only enumeration of
error events in the package: every admissible event once, as an output length,
its inserted bits, at most b+1 copy segments of the packed input (position 1
at the LSB), and its placement (deleted input positions, inserted output
positions). The channel sampler draws from it, and the search decoders read
its inverse (_inverse: the placements with the deleted and inserted roles
swapped). walk, the one scalar application of segments, applies events to one
int for ball_ints ((length, value) pairs), the search decoders and the
sampler; ball_keys, the vector kernel whose oracle is ball_ints, applies the
table to an array of words by net shift (_moves), giving keys
(1 << length) | value, which sort like those pairs. sorted_ball_keys sorts
each word's keys and masks its repeats, the dedupe of the equivalence sweep,
the ball-size tally and verify_code's owner walk; distinct_keys, verify_code's
first pass, drops a sliding model's repeats as neighbours in event order and
sorts only the others (greedy codes mark unsorted keys in a bitmap). Keys are
as narrow as key_dtype allows and never wrap. blocks is the one block rule of
the passes over many balls' keys (verify_code's two, greedy_code's and the
ball-size tally's): slices of words whose keys fill about _enum.BLOCK entries.
A table holds at most EVENTS_MAX = 2^20 events: a larger one is counted from
its placements (event_count), not built, and raises DomainError. _admit owns
the one length rule: every entry that takes a model calls it (or _events)
before it reads the model or a cache, and admits an ErrorModel and an integer
word length of at least model.shortest.

Membership (in_ball) needs no table for the models whose events replace one
window of consecutive bits: it compares common prefix and suffix. The two
windowed models walk the events of their table that end at the element's
length; ball_ints stays the oracle of both.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import _enum
from .bitseq import Word, as_word, from_int, to_int
from .errors import DomainError, integer


class ErrorKind(Enum):
    DEL_EXACT = "del-exact"
    DEL_AT_MOST_CONSECUTIVE = "del-at-most-consecutive"
    DEL_AT_MOST_NONCONSECUTIVE = "del-at-most-nonconsecutive"
    INS_EXACT = "ins-exact"
    INS_AT_MOST_CONSECUTIVE = "ins-at-most-consecutive"
    INS_AT_MOST_NONCONSECUTIVE = "ins-at-most-nonconsecutive"
    BURST_2_1 = "burst-2-1"


@dataclass(frozen=True)
class ErrorModel:
    kind: ErrorKind
    b: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ErrorKind):
            raise DomainError(f"error model kind must be an ErrorKind, got {self.kind!r}")
        b = integer(self.b, "burst size b")
        if b < 1:
            raise DomainError("burst size b must be >= 1")
        # The (2,1)-burst always deletes two adjacent bits.
        object.__setattr__(self, "b", 2 if self.kind is ErrorKind.BURST_2_1 else b)

    def __str__(self) -> str:
        if self.kind is ErrorKind.BURST_2_1:
            return self.kind.value
        return f"{self.kind.value}(b={self.b})"

    def each_size(self, shift: int | None = None):
        """(deleted, inserted) bits of each size of event, in ascending size,
        one at a time (the at-most models have b): one window of consecutive
        bits replaced by inserted bits, or positions inside a window of b for
        the windowed models. Given a shift, only the size that takes that many
        bits off a word's length, if any."""
        if self.kind is ErrorKind.BURST_2_1:  # two adjacent bits, one bit at the first
            return iter([(2, 1)] if shift in (None, 1) else [])
        sign = 1 if self.kind.value.startswith("del-") else -1
        counts = range(self.b if self.kind.value.endswith("-exact") else 1, self.b + 1)
        counts = counts if shift is None else [a for a in [sign * shift] if a in counts]
        return ((a, 0) if sign > 0 else (0, a) for a in counts)

    @cached_property
    def windowed(self) -> bool:
        """Whether an event's positions may spread inside a window of b."""
        return self.kind.value.endswith("-nonconsecutive")

    @cached_property
    def sliding(self) -> bool:
        """Whether a ball's repeated elements are neighbours in event order.
        True for del-exact and del-at-most-consecutive: deleting bits
        p..p+a-1 and q..q+a-1, p < q, gives one word exactly when
        x_i = x_{i+a} for p <= i < q, so the placements that give one
        element are consecutive in the table, and bursts of two sizes give
        two lengths."""
        return self.kind in (ErrorKind.DEL_EXACT, ErrorKind.DEL_AT_MOST_CONSECUTIVE)

    @cached_property
    def shortest(self) -> int:
        """The shortest word the model applies to: one bit longer than an
        event deletes, or any word when no event deletes."""
        return self.b + 1 if self.kind.value.startswith(("del-", "burst-")) else 0

    def longest(self, n: int) -> int:
        """The longest element of a length-n word's ball: n less the fewest bits taken off."""
        d, i = next(self.each_size())
        return n - d + i if d else n + self.b


@lru_cache(maxsize=64)
def _built(kind: ErrorKind, b: int) -> ErrorModel:
    return ErrorModel(kind, b)


def _model(kind: ErrorKind, b: int) -> ErrorModel:
    """The model, built once per (kind, b), so that a decoder can ask for it
    per word; b is taken through integer first, so that 2.0 is refused
    rather than found in the cache under 2."""
    return _built(kind, integer(b, "burst size b"))


def del_exact(b: int) -> ErrorModel:
    return _model(ErrorKind.DEL_EXACT, b)


def del_at_most(b: int) -> ErrorModel:
    return _model(ErrorKind.DEL_AT_MOST_CONSECUTIVE, b)


def del_at_most_noncons(b: int) -> ErrorModel:
    return _model(ErrorKind.DEL_AT_MOST_NONCONSECUTIVE, b)


def ins_exact(b: int) -> ErrorModel:
    return _model(ErrorKind.INS_EXACT, b)


def ins_at_most(b: int) -> ErrorModel:
    return _model(ErrorKind.INS_AT_MOST_CONSECUTIVE, b)


def ins_at_most_noncons(b: int) -> ErrorModel:
    return _model(ErrorKind.INS_AT_MOST_NONCONSECUTIVE, b)


def burst21() -> ErrorModel:
    return _model(ErrorKind.BURST_2_1, 2)


def parse_model(name: str, b: int) -> ErrorModel:
    b = integer(b, "burst size b")
    for kind in ErrorKind:
        if kind.value == name:
            return _built(kind, 2 if kind is ErrorKind.BURST_2_1 else b)
    raise DomainError(f"unknown error model {name!r}")


KEY_MAX_BITS = 63  # a key (1 << length) | value must fit in a uint64


# One admissible event: output length, inserted bits (bit p-1 for output
# position p), copy segments, and its placement as deleted input positions
# and inserted output positions.
_Event = namedtuple("_Event", "length bits segs deleted inserted")


EVENTS_MAX = 1 << 20  # events in one table; a larger table raises DomainError unbuilt


def _admit(n: int, model: ErrorModel) -> int:
    """The word length n as a Python int; DomainError unless model is an
    ErrorModel and n an integer of at least model.shortest."""
    if not isinstance(model, ErrorModel):
        raise DomainError(f"error model must be an ErrorModel, got {model!r}")
    n = integer(n, "word length n")
    if n < model.shortest:
        raise DomainError(f"word length {n} too short for {model}")
    return n


def event_count(n: int, model: ErrorModel, m: int | None = None) -> int:
    """The events of the model on a length-n word, 2^(inserted positions) per
    placement, counted without listing them; given m, only those that end at
    length m. The sizes count one at a time, each shift capped where it alone
    passes EVENTS_MAX, and the count stops at the first size that passes
    EVENTS_MAX, so any count past it only says that the table is too large."""
    n, b, window = _admit(n, model), model.b, model.windowed
    m = None if m is None else integer(m, "received length m")

    def sets(k: int, a: int) -> int:
        # a positions of 1..k inside a window of b, each set by its minimum p
        # (C(min(b-1, k-p), a-1) sets), or a consecutive positions
        if window:
            return max(0, k - b + 1) * math.comb(b - 1, a - 1) + math.comb(min(b - 1, k), a)
        return max(0, k - a + 1)

    # positions index the input when bits are deleted, else the output
    events = 0
    for d, i in model.each_size(None if m is None else n - m):
        events += sets(n if d else n + i, d or i) << min(i if m is None else d, EVENTS_MAX + 1)
        if events > EVENTS_MAX:
            break
    return events


def _placements(n: int, model: ErrorModel, m: int | None = None) -> list[tuple[tuple, tuple]]:
    """(deleted input positions, inserted output positions) of every event of
    the model on a length-n word, once each. Given m, only the events that end
    at length m, with the two roles swapped: the events that take a length-m
    word back to length n. DomainError past EVENTS_MAX events (event_count),
    before any is listed."""
    if event_count(n, model, m) > EVENTS_MAX:
        raise DomainError(f"{model} at length {n} has too many events; tables stop at {EVENTS_MAX}")
    b, window, placements = model.b, model.windowed, []
    for d, i in model.each_size(None if m is None else n - m):
        a, k = d or i, n if d else n + i
        if window:
            chosen = [(p, *rest) for p in range(1, k + 1)
                      for rest in combinations(range(p + 1, min(p + b, k + 1)), a - 1)]
        else:
            chosen = [tuple(range(p, p + a)) for p in range(1, k - a + 2)]
        placements += [(p, p[:i]) if d else ((), p) for p in chosen]
    return placements if m is None else [(ins, dels) for dels, ins in placements]


def _table(n: int, placements) -> tuple[_Event, ...]:
    """The events of the placements on a length-n word, every choice of
    inserted bits in the order of itertools.product (the first inserted
    position most significant). A segment (src, mask, dst) copies
    ((v >> src) & mask) << dst; the output of packed word v is the inserted
    bits OR-ed with all of its segments."""
    events = []
    for deleted, inserted in placements:
        kept = [p for p in range(1, n + 1) if p not in deleted]
        length = len(kept) + len(inserted)
        slots = [p for p in range(1, length + 1) if p not in inserted]
        # a segment ends where a deleted input or an inserted output bit intervenes
        cuts = [j for j in range(1, len(kept))
                if kept[j] - kept[j - 1] > 1 or slots[j] - slots[j - 1] > 1]
        segs = tuple((kept[i] - 1, (1 << (j - i)) - 1, slots[i] - 1)
                     for i, j in zip([0, *cuts], [*cuts, len(kept)]) if i < j)
        for bits in range(1 << len(inserted)):
            const = sum((bits >> k & 1) << (p - 1) for k, p in enumerate(reversed(inserted)))
            events.append(_Event(length, const, segs, deleted, inserted))
    return tuple(events)


def _events(n: int, model: ErrorModel) -> tuple[_Event, ...]:
    """Every admissible event of the model on a length-n word, once each."""
    return _cached_events(_admit(n, model), model)


@lru_cache(maxsize=256)
def _cached_events(n: int, model: ErrorModel) -> tuple[_Event, ...]:
    return _table(n, _placements(n, model))


@lru_cache(maxsize=64)
def _inverse(n: int, model: ErrorModel, m: int) -> tuple[_Event, ...]:
    """The events that undo the model's events from length n to length m, on
    length-m words: each deletes what one of them inserted and inserts, with
    every choice of bits, what it deleted. Applied to y they give every
    length-n word whose ball holds y."""
    return _table(m, _placements(n, model, m))


def walk(v: int, events):
    """(event, output) for each of the events, in order, on the packed word v:
    the events of one placement share one segs tuple, applied once per
    placement and OR-ed with each event's inserted bits."""
    last = None
    for ev in events:
        if ev.segs is not last:
            last, y = ev.segs, 0
            for src, mask, dst in last:
                y |= ((v >> src) & mask) << dst
        yield ev, y | ev.bits


def ball_ints(v: int, n: int, model: ErrorModel) -> set[tuple[int, int]]:
    """The error ball of a packed word in [0, 2^n), as a set of (length, value) pairs."""
    return {(ev.length, y) for ev, y in walk(_enum.word(v, n), _events(n, model))}


@lru_cache(maxsize=256)
def _size(model: ErrorModel, shift: int) -> tuple[int, int] | None:
    """The model's size of event that takes shift bits off a word's length, if any."""
    return next(model.each_size(shift), None)


def in_ball(element: tuple[int, int], v: int, n: int, model: ErrorModel) -> bool:
    """Whether element, a (length, value) pair, lies in ball_ints(v, n, model);
    DomainError for v outside [0, 2^n) or a value outside [0, 2^length).

    A model of one window (all but the windowed ones) needs no events: the
    event that takes the word to length m keeps n - d of its bits, and the
    value lies in the ball exactly when its common prefix and suffix with v,
    each at most min(n, m) bits, cover that many. A windowed model walks its
    events of length m until one gives the value."""
    try:
        m, u = element
    except (TypeError, ValueError):
        raise DomainError(f"ball element must be a (length, value) pair, got {element!r}") from None
    n = _admit(n, model)
    v, u = _enum.word(v, n), _enum.word(u, m)
    if model.windowed:
        return any(y == u for _, y in walk(v, (ev for ev in _events(n, model) if ev.length == m)))
    if (size := _size(model, n - m)) is None:
        return False
    k = min(n, m)
    low = (u ^ v) | (1 << k)  # its lowest set bit is at the common prefix's length
    high = (v >> (n - k)) ^ (u >> (m - k))  # the last k bits of each, compared
    return (low & -low).bit_length() - 1 + k - high.bit_length() >= n - size[0]


def key_dtype(n: int, model: ErrorModel) -> np.dtype:
    """The dtype of the model's ball_keys at length n, the narrowest that holds
    the words and every key: uint32 when n <= 32 and no element is longer
    than 31 bits, else uint64. Elements past KEY_MAX_BITS raise DomainError."""
    n = _admit(n, model)
    longest = model.longest(n)
    if n > KEY_MAX_BITS + 1 or longest > KEY_MAX_BITS:
        raise DomainError(f"n={n} gives {longest}-bit ball elements; keys take n <= 64, <= 63 bits")
    return np.dtype(np.uint32 if max(n, longest + 1) <= 32 else np.uint64)


@lru_cache(maxsize=64)
def _moves(n: int, model: ErrorModel, dtype: np.dtype) -> tuple[np.ndarray, tuple]:
    """The model's event table as columns of dtype: each event's tag
    (1 << length) | bits, and per net shift s = src - dst of its segments one
    column of merged masks. A segment (src, mask, dst) copies
    (v >> s) & (mask << dst), so an event's key is its tag OR-ed with
    (v >> s) & column over the shifts (v << -s for s < 0). At least one
    shift, and at most b + 1; a table with no segment has shift 0, all zero."""
    events = _events(n, model)
    columns: dict[int, list[int]] = {}
    for e, ev in enumerate(events):
        for src, mask, dst in ev.segs:
            columns.setdefault(src - dst, [0] * len(events))[e] |= mask << dst
    columns = columns or {0: [0] * len(events)}
    tags = np.array([(1 << ev.length) | ev.bits for ev in events], dtype=dtype)[:, None]
    return tags, tuple((s, np.array(c, dtype=dtype)[:, None]) for s, c in sorted(columns.items()))


def _event_keys(vs, n: int, model: ErrorModel) -> np.ndarray:
    """ball_keys event-major, shape (E, len(vs)): row j holds event j's key of
    every word. Per net shift the words are shifted once, and one broadcast AND
    with its mask column and one OR write every event's part from it."""
    vs = np.asarray(_enum.words(vs, n), dtype=key_dtype(n, model)).reshape(-1)
    tags, moves = _moves(n, model, vs.dtype)
    out = np.empty((len(tags), len(vs)), dtype=vs.dtype)
    part = np.empty_like(out) if len(moves) > 1 else None
    for k, (shift, mask) in enumerate(moves):
        moved = vs >> shift if shift > 0 else vs << -shift if shift else vs
        np.bitwise_and(mask, moved, out=part if k else out)  # the first shift goes straight into out
        if k:
            out |= part
    out |= tags
    return out


def ball_keys(vs, n: int, model: ErrorModel) -> np.ndarray:
    """The balls of many packed length-n words at once, shape (len(vs), E), of
    key_dtype(n, model): row i holds the key (1 << length) | value of each
    event applied to vs[i]. A row may repeat a key; its distinct keys are the
    ball_ints of vs[i]. A value outside [0, 2^n) raises DomainError.

    One C-contiguous transposed copy of _event_keys."""
    return np.ascontiguousarray(_event_keys(vs, n, model).T)


def sorted_ball_keys(vs, n: int, model: ErrorModel) -> tuple[np.ndarray, np.ndarray]:
    """ball_keys with each row sorted in place, and the mask of the first copy
    of each key in its row: the ball of vs[i] is keys[i][fresh[i]], in key
    order, and np.compress(fresh.ravel(), keys.ravel()) lists the balls in
    turn."""
    keys = ball_keys(vs, n, model)
    keys.sort(axis=1)
    flat, fresh = keys.reshape(-1), np.empty(keys.shape, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=fresh.reshape(-1)[1:])  # one pass over all rows,
    fresh[:, :1] = True  # then each row's first key is fresh whatever precedes it
    return keys, fresh


def distinct_keys(vs, n: int, model: ErrorModel) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the balls of many packed length-n words, and a mask that keeps
    one copy of each ball element: np.compress(fresh.ravel(), keys.ravel())
    lists each ball's elements once, in no set order. A sliding model's
    repeats are neighbours in event order, so its keys are _event_keys with
    each key equal to the one before it in its column dropped, with no
    transpose and no sort; any other model's are sorted_ball_keys."""
    _admit(n, model)
    if not model.sliding:
        return sorted_ball_keys(vs, n, model)
    keys = _event_keys(vs, n, model)
    fresh = np.empty(keys.shape, dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys, fresh


def blocks(count: int, n: int, model: ErrorModel) -> list[slice]:
    """The slices of count length-n words, in order, whose ball keys fill about
    _enum.BLOCK entries each: max(1, BLOCK // events) words a slice, and at
    least one slice, so that a pass over no words still checks n and model."""
    rows = max(1, _enum.BLOCK // len(_events(n, model)))
    return [slice(start, min(start + rows, count)) for start in range(0, max(count, 1), rows)]


def key_word(key: int) -> Word:
    """The ball element a ball_keys key, (1 << length) | value, stands for;
    DomainError for any other value."""
    key = _enum.word(key, KEY_MAX_BITS + 1)
    length = max(key.bit_length(), 1) - 1  # a key of 0 leaves 1 at length 0, which from_int refuses
    return from_int(key ^ 1 << length, length)


def ball(x: Word, model: ErrorModel) -> set[Word]:
    """All words reachable from x by one admissible error event of the model."""
    n = len(x)
    return {from_int(v, m) for m, v in ball_ints(to_int(x), n, model)}


def restricted_burst21_ball(x: Word, deleted_pair: tuple[int, int], inserted: int) -> set[Word]:
    """(2,1)-burst outcomes restricted to deleted subvector = deleted_pair and
    inserted bit = inserted; DomainError for an entry or bit other than 0 or 1."""
    x, pair, bit = as_word(x), as_word(deleted_pair), as_word((inserted,))
    n = _admit(len(x), burst21())
    return {x[:i] + bit + x[i + 2:] for i in range(n - 1) if x[i : i + 2] == pair}


# ---------------------------------------------------------------------------
# Counting laws for the exact-burst ball.
# ---------------------------------------------------------------------------


def ball_size_formula(x: Word, b: int) -> int:
    """|D_b(x)| = 1 + #{p <= n - b : x_p != x_{p+b}}, for n > b: deleting
    bits p..p+b-1 and p+1..p+b gives the same word exactly when x_p =
    x_{p+b}. When b | n this is 1 + the runs of each row of the b-row array,
    less one each."""
    x, model = as_word(x), del_exact(b)
    n, b = _admit(len(x), model), model.b
    return 1 + sum(x[p] != x[p + b] for p in range(n - b))


def words_with_runs(n: int, r: int) -> int:
    """M(n, r): number of length-n words with exactly r runs."""
    n, r = integer(n, "n"), integer(r, "r")
    if not 1 <= r <= n:
        return 0
    return 2 * math.comb(n - 1, r - 1)


def ball_size_distribution(n: int, b: int) -> dict[int, int]:
    """Counts of words by exact-burst ball size, {i: #{x : |D_b(x)| = i}}, by
    the closed form N(n, b, i) = 2^b * C(n-b, i-1) for 1 <= i <= n-b+1: the
    first b bits are free, and so is each of the n - b differences x_p !=
    x_{p+b} that ball_size_formula counts."""
    model = del_exact(b)
    n, b = _admit(n, model), model.b
    return {i: (1 << b) * math.comb(n - b, i - 1) for i in range(1, n - b + 2)}


def ball_size_tally(n: int, b: int) -> dict[int, int]:
    """Brute-force tally of |D_b(x)| over all 2^n words: the distinct keys of
    every ball, counted row by row in the slices of blocks, each made as its
    own range of words. Independent of ball_size_formula."""
    model = del_exact(b)
    n, b = _admit(n, model), model.b
    if n > 24:
        raise DomainError("tally capped at n <= 24")
    counts = np.zeros(n - b + 2, dtype=np.int64)
    for s in blocks(1 << n, n, model):
        _, fresh = sorted_ball_keys(np.arange(s.start, s.stop, dtype=np.uint64), n, model)
        counts += np.bincount(np.count_nonzero(fresh, axis=1), minlength=len(counts))
    return {size: int(c) for size, c in enumerate(counts) if c}

