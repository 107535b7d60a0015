"""Brute-force ground truth: exhaustive codebook verification, the
deletion/insertion equivalence sweep, a generic unique-preimage decoder,
greedy code construction, and a seeded channel sampler.

Everything here enumerates; nothing samples except apply_error, whose RNG is
fully determined by the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import _enum, balls
from .bitseq import Word, format_word, from_int, to_int
from .codes import Codebook, codebook_from_ints
from .errors import CodeIntegrityError, DecodeFailure, DomainError, integer
from .vt import DecodeResult

_RNG_NAME = "python-random-mt19937"


@dataclass(frozen=True)
class VerifyReport:
    model: balls.ErrorModel
    codebook: str
    pairs_checked: int
    violations: tuple[tuple[Word, Word, Word], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "model": str(self.model),
            "codebook": self.codebook,
            "pairs_checked": self.pairs_checked,
            "passed": self.passed,
            "violations": [
                {"x": format_word(x), "y": format_word(y), "common": format_word(z)}
                for x, y, z in self.violations
            ],
        }


def verify_code(cb: Codebook, model: balls.ErrorModel) -> VerifyReport:
    """Exhaustively confirm that the error balls of all codewords are pairwise
    disjoint. Exact: every ball element of every codeword is indexed, so any
    intersecting pair is found. Violations are (first owner, later owner,
    element), in (later owner, element) order.

    Both passes walk the codewords in the slices of balls.blocks. The first
    makes each slice's balls by balls.distinct_keys and compresses its keys,
    each ball's elements once, straight into one array that is sorted in
    place, so the keys of the whole codebook are held once: it is sized for
    k x E keys, but the pages past the last key written are never touched and
    cost no memory. A key found twice is shared. The second walk, on
    sorted_ball_keys, finds the owners of the shared keys only, and decides:
    a key the first pass listed twice for one ball would find one owner there
    and name no violation, and a key two balls hold is listed by both."""
    packed = _enum.pack(cb.rows, cb.n)
    events = len(balls._events(cb.n, model))
    held = np.empty(len(packed) * events, dtype=balls.key_dtype(cb.n, model))
    end = 0
    for part in balls.blocks(len(packed), cb.n, model):
        keys, fresh = balls.distinct_keys(packed[part], cb.n, model)
        count = np.count_nonzero(fresh)
        np.compress(fresh.ravel(), keys.ravel(), out=held[end : end + count])
        end += count
    held = held[:end]
    held.sort()
    shared = np.unique(held[1:][held[1:] == held[:-1]])
    del held
    violations = ()
    if shared.size:
        owner, flat = [], []
        for part in balls.blocks(len(packed), cb.n, model):
            keys, fresh = balls.sorted_ball_keys(packed[part], cb.n, model)
            fresh &= np.isin(keys, shared)
            owner.append(part.start + np.nonzero(fresh)[0])
            flat.append(np.compress(fresh.ravel(), keys.ravel()))
        owner, flat = np.concatenate(owner), np.concatenate(flat)
        _, first, group = np.unique(flat, return_index=True, return_inverse=True)
        owner_word = lambda i: from_int(int(packed[i]), cb.n)
        violations = tuple(
            (owner_word(prev), owner_word(i), balls.key_word(key))
            for i, prev, key in zip(owner.tolist(), owner[first[group]].tolist(), flat.tolist())
            if i != prev
        )
    k = cb.cardinality
    return VerifyReport(model, cb.label, k * (k - 1) // 2, violations)


EQUIV_MAX_BITS = 12

_FLAVORS = {
    "exact": (balls.del_exact, balls.ins_exact),
    "at-most-consecutive": (balls.del_at_most, balls.ins_at_most),
    "at-most-nonconsecutive": (balls.del_at_most_noncons, balls.ins_at_most_noncons),
}


def _conflicts(n: int, model: balls.ErrorModel) -> np.ndarray:
    """The 2^n x 2^n bool matrix whose entry [v1, v2], v1 < v2, says that the
    balls of the packed words v1 and v2 intersect; all other entries are False.
    Sorting the members of all balls by key (stably, so owners ascend within a
    key) lines up the owners of each key; entries d apart in one key group give
    the pairs at distance d, for d up to the largest group."""
    keys, fresh = balls.sorted_ball_keys(np.arange(1 << n), n, model)
    keys, owners = np.compress(fresh.ravel(), keys.ravel()), np.nonzero(fresh)[0]
    order = np.argsort(keys, kind="stable")
    keys, owners = keys[order], owners[order]
    conflict = np.zeros((1 << n, 1 << n), dtype=bool)
    i, d = np.arange(len(keys) - 1), 1
    while (i := i[keys[i + d] == keys[i]]).size:
        conflict[owners[i], owners[i + d]] = True
        d += 1
        i = i[i + d < len(keys)]
    # tie the keys to the scalar balls: the first pair named must share an element
    v1, v2 = divmod(int(conflict.argmax()), 1 << n)
    if conflict[v1, v2] and balls.ball_ints(v1, n, model).isdisjoint(balls.ball_ints(v2, n, model)):
        raise RuntimeError(f"{model}: ball keys of {v1} and {v2} meet, their balls do not")
    return conflict


def equivalence_check(n: int, b: int, flavor: str) -> bool:
    """Whether deletion-ball disjointness and insertion-ball disjointness agree
    on every pair of length-n words, for the given burst flavor. This is the
    pairwise core of the deletion/insertion duality: a code-level
    counterexample would need a violating pair.

    Each model's 2^n x events ball keys are held at once, so both are capped
    at 4^EQUIV_MAX_BITS, the cells of the largest conflict matrix, and
    refused from balls.event_count before any event table is built."""
    if not isinstance(flavor, str) or flavor not in _FLAVORS:
        raise DomainError(f"flavor must be one of {sorted(_FLAVORS)}, got {flavor!r}")
    n = integer(n, "code length n")
    if not 1 <= n <= EQUIV_MAX_BITS:
        raise DomainError(f"pairwise sweep needs 1 <= n <= {EQUIV_MAX_BITS}, got n={n}")
    del_model, ins_model = (mk(b) for mk in _FLAVORS[flavor])
    for model in (del_model, ins_model):
        if balls.event_count(n, model) << n > 1 << 2 * EQUIV_MAX_BITS:
            raise DomainError(f"{model} at n={n} has more than 4^{EQUIV_MAX_BITS} ball keys "
                              "(2^n x events); the pairwise sweep stops there")
    return np.array_equal(_conflicts(n, del_model), _conflicts(n, ins_model))


def oracle_decode(cb: Codebook, y: Word, model: balls.ErrorModel) -> DecodeResult:
    """Ground-truth decoder: the unique codeword whose ball contains y. A
    length-n input decodes to itself when it is a codeword (zero errors)."""
    if len(y) == cb.n:
        if y in cb.words:
            return DecodeResult(word=y, window=(1, cb.n), detail={"kind": "none"})
        raise DecodeFailure("length-n input is not a codeword")
    key = (len(y), to_int(y))
    hits = [w for w in cb.words if key in balls.ball_ints(to_int(w), cb.n, model)]
    if not hits:
        raise DecodeFailure("received word lies in no codeword's ball")
    if len(hits) > 1:
        raise CodeIntegrityError(
            f"{len(hits)} codewords share a ball element; codebook is not a code for {model}"
        )
    return DecodeResult(word=hits[0], window=(1, cb.n), detail={"kind": "oracle"})


GREEDY_MAX_BITS = 16
GREEDY_MAP_BYTES = 1 << 26  # the taken-key bitmap: one byte per key below 2^(longest element + 1)
GREEDY_ROWS = 128  # words per gather against the bitmap


def greedy_code(n: int, model: balls.ErrorModel) -> Codebook:
    """Lexicographic greedy maximal code for the model: accept each word whose
    ball avoids every previously accepted ball.

    Accepted balls are marked in a bool bitmap over the key space. The balls
    of each slice of balls.blocks are made at once; in sub-blocks of
    GREEDY_ROWS words, one gather drops the words whose ball meets the
    bitmap, and only the rest are tried, in lexicographic order."""
    n = integer(n, "code length n")
    if not (least := max(1, model.shortest)) <= n <= GREEDY_MAX_BITS:
        raise DomainError(f"greedy construction of {model} needs {least} <= n <= {GREEDY_MAX_BITS}")
    longest = model.longest(n)
    if 2 << longest > GREEDY_MAP_BYTES:
        raise DomainError(f"{model} at length {n} gives {longest}-bit elements; "
                          f"the greedy bitmap stops at {GREEDY_MAP_BYTES} keys")
    # Every word in lexicographic order: its index, position 1 most significant.
    index = np.arange(1 << n, dtype=np.uint64) << np.uint64(64 - n)
    words = _enum.pack(index.astype(">u8").view(np.uint8).reshape(-1, 8), n)
    taken = np.zeros(2 << longest, dtype=bool)
    chosen: list[int] = []
    for block in balls.blocks(len(words), n, model):
        keys = balls.ball_keys(words[block], n, model)
        for sub in range(0, len(keys), GREEDY_ROWS):
            part = keys[sub : sub + GREEDY_ROWS]
            for i in np.flatnonzero(~taken[part].any(axis=1)).tolist():
                if not taken[part[i]].any():
                    taken[part[i]] = True
                    chosen.append(int(words[block.start + sub + i]))
    return codebook_from_ints(chosen, n)


# ---------------------------------------------------------------------------
# Channel sampling.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelEvent:
    """One admissible error event, reproducible from the seed: the deleted
    input positions, the inserted output positions and their bits, and
    start, the smallest of those positions (all 1-based)."""

    model: balls.ErrorModel
    start: int
    deleted: tuple[int, ...] = ()
    inserted: tuple[int, ...] = ()
    inserted_bits: tuple[int, ...] = ()
    seed: int = 0
    rng: str = field(default=_RNG_NAME)

    def to_json(self) -> dict:
        return {
            "model": str(self.model),
            "start": self.start,
            "deleted_positions": list(self.deleted),
            "inserted_positions": list(self.inserted),
            "inserted_bits": list(self.inserted_bits),
            "seed": self.seed,
            "rng": self.rng,
        }


def apply_error(x: Word, model: balls.ErrorModel, seed: int) -> tuple[Word, ChannelEvent]:
    """Apply one event of the model's event table (balls._events), drawn
    uniformly over its distinct (positions, bits) patterns with a generator
    fully determined by the seed. Distinct patterns may give one output."""
    events = balls._events(len(x), model)
    ((drawn, y),) = balls.walk(to_int(x), [events[random.Random(seed).randrange(len(events))]])
    event = ChannelEvent(
        model=model,
        start=min(drawn.deleted + drawn.inserted),
        deleted=drawn.deleted,
        inserted=drawn.inserted,
        inserted_bits=tuple(drawn.bits >> (p - 1) & 1 for p in drawn.inserted),
        seed=seed,
    )
    return from_int(y, drawn.length), event
