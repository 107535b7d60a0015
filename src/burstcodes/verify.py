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
from .errors import CodeIntegrityError, DecodeFailure, DomainError
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


BLOCK_KEYS = 1 << 18  # ball keys per block of words: 1 MB per uint32 temporary, 2 MB per uint64


def _blocks(packed: np.ndarray, n: int, model: balls.ErrorModel):
    """(index of the first word, sorted_ball_keys) per block of packed words;
    at least one block, so that an empty array still checks n and model."""
    rows = max(1, BLOCK_KEYS // len(balls._events(n, model)))
    for start in range(0, max(len(packed), 1), rows):
        yield start, balls.sorted_ball_keys(packed[start : start + rows], n, model)


def verify_code(cb: Codebook, model: balls.ErrorModel) -> VerifyReport:
    """Exhaustively confirm that the error balls of all codewords are pairwise
    disjoint. Exact: every ball element of every codeword is indexed, so any
    intersecting pair is found. Violations are (first owner, later owner,
    element), in (later owner, element) order.

    The balls are made block by block, and each block's distinct keys are
    written into one array that is sorted in place, so the keys of the whole
    codebook are held once: it is sized for k x E keys, but the pages past
    the last key written are never touched and cost no memory. Owners are
    found, in a second walk, only for keys that two balls share."""
    packed = _enum.pack(cb.rows, cb.n)
    events = len(balls._events(cb.n, model))
    held = np.empty(len(packed) * events, dtype=balls.key_dtype(cb.n, model))
    end = 0
    for _, (keys, fresh) in _blocks(packed, cb.n, model):
        count = np.count_nonzero(fresh)
        held[end : end + count] = np.compress(fresh.ravel(), keys.ravel())
        end += count
    held = held[:end]
    held.sort()
    shared = np.unique(held[1:][held[1:] == held[:-1]])
    del held
    violations = ()
    if shared.size:
        owner, flat = [], []
        for start, (keys, fresh) in _blocks(packed, cb.n, model):
            fresh &= np.isin(keys, shared)
            owner.append(start + np.nonzero(fresh)[0])
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


EQUIV_MAX_BITS = 10

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
    counterexample would need a violating pair."""
    if flavor not in _FLAVORS:
        raise DomainError(f"flavor must be one of {sorted(_FLAVORS)}, got {flavor!r}")
    if n > EQUIV_MAX_BITS:
        raise DomainError(f"pairwise sweep capped at n <= {EQUIV_MAX_BITS}")
    del_model, ins_model = (mk(b) for mk in _FLAVORS[flavor])
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


def greedy_code(n: int, model: balls.ErrorModel) -> Codebook:
    """Lexicographic greedy maximal code for the model: accept each word whose
    ball avoids every previously accepted ball."""
    if not 1 <= n <= GREEDY_MAX_BITS:
        raise DomainError(f"greedy construction needs 1 <= n <= {GREEDY_MAX_BITS}")
    # Every word in lexicographic order: its index, position 1 most significant.
    index = np.arange(1 << n, dtype=np.uint64) << np.uint64(64 - n)
    words = _enum.pack(index.astype(">u8").view(np.uint8).reshape(-1, 8), n)
    used: set[int] = set()
    chosen: list[int] = []
    for start, (keys, fresh) in _blocks(words, n, model):
        ends = np.cumsum(np.count_nonzero(fresh, axis=1)).tolist()
        flat = np.compress(fresh.ravel(), keys.ravel()).tolist()
        for v, lo, hi in zip(words[start : start + len(keys)].tolist(), [0, *ends], ends):
            if used.isdisjoint(ball := flat[lo:hi]):
                used.update(ball)
                chosen.append(v)
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
    length, bits, segs, deleted, inserted = events[random.Random(seed).randrange(len(events))]
    v, y = to_int(x), bits
    for src, mask, dst in segs:
        y |= ((v >> src) & mask) << dst
    event = ChannelEvent(
        model=model,
        start=min(deleted + inserted),
        deleted=deleted,
        inserted=inserted,
        inserted_bits=tuple(bits >> (p - 1) & 1 for p in inserted),
        seed=seed,
    )
    return from_int(y, length), event
