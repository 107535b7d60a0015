"""Varshamov-Tenengolts codes: membership, single-deletion decoding with run
localization, and the run-length-limited intersection used by the array
constructions.

``VT_a(n)`` is the set of length-n words with sum(i * x_i) = a mod (n+1). The
decoder recovers the unique codeword a single deletion came from and reports
the full run of the restored word in which the deletion occurred; the deletion
position is ambiguous exactly within that run, and downstream array decoders
consume the interval rather than a single position. ``vt_class_sizes`` counts
the classes with the split join of codes.py: the checksum is its one key form,
and a run cap is a capped row on the word itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from .bitseq import Word
from .errors import DecodeFailure, DomainError


@dataclass(frozen=True)
class VtParams:
    n: int
    a: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("code length must be >= 1")
        if not 0 <= self.a <= self.n:
            raise DomainError(f"residue a must satisfy 0 <= a <= n, got {self.a}")


@dataclass(frozen=True)
class DecodeResult:
    """A corrected word plus where and what the decoder inferred.

    window is the inclusive 1-indexed interval of positions of ``word`` that
    the corrected error could have occupied; detail carries decoder-specific
    values (error kind, inserted bit, syndrome intermediates).
    """

    word: Word
    window: tuple[int, int]
    detail: Mapping[str, object] = field(default_factory=dict)


def checksum(x: Word, mod: int) -> int:
    return sum(i * b for i, b in enumerate(x, start=1)) % mod


def vt_member(x: Word, p: VtParams) -> bool:
    if len(x) != p.n:
        raise DomainError(f"expected length {p.n}, got {len(x)}")
    return checksum(x, p.n + 1) == p.a


def vt_decode(y: Word, p: VtParams) -> DecodeResult:
    """Restore the unique VT_a(n) codeword that y resulted from by one deletion.

    Syndrome rule: with s = (a - sum(i*y_i)) mod (n+1) and w = wt(y), a deleted
    0 satisfies s <= w and is reinserted with exactly s ones to its right; a
    deleted 1 satisfies s > w and is reinserted with s - w - 1 zeros to its
    left. Insertion slots inside one run give the same word; the leftmost is
    used.
    """
    n = p.n
    if n < 2:
        raise DomainError("decoding needs code length >= 2")
    if len(y) != n - 1:
        raise DomainError(f"expected received length {n - 1}, got {len(y)}")
    w = sum(y)
    s = (p.a - checksum(y, n + 1)) % (n + 1)
    if s <= w:
        value = 0
        t = 0
        suffix = w
        while suffix > s:
            suffix -= y[t]
            t += 1
    else:
        value = 1
        t = 0
        zeros = 0
        target = s - w - 1
        while zeros < target:
            zeros += 1 - y[t]
            t += 1
    x = y[:t] + (value,) + y[t:]
    if not vt_member(x, p):
        raise DecodeFailure(f"no VT_{p.a}({n}) preimage for the received word")
    lo, hi = t, t + 1  # x[lo:hi] grows to the run holding position t + 1
    while lo > 0 and x[lo - 1] == value:
        lo -= 1
    while hi < n and x[hi] == value:
        hi += 1
    return DecodeResult(
        word=x,
        window=(lo + 1, hi),
        detail={"kind": "deletion", "value": value, "position": t + 1},
    )


def vt_rll_member(x: Word, p: VtParams, f: int) -> bool:
    """Membership in the intersection of VT_a(n) with the max-run-f constraint."""
    from .rll import max_run

    return vt_member(x, p) and max_run(x) <= f


@functools.lru_cache(maxsize=64)
def _table(run_cap: int | None):
    """The VT checksum as the one key form, under a run cap on the word."""
    from .codes import _Form, _Table

    caps = () if run_cap is None else ((1, lambda n: max(run_cap, 0)),)
    return _Table((("a", _Form(1, 1, True, lambda n: n + 1)),), caps=caps)


def vt_class_sizes(n: int, run_cap: int | None = None) -> list[int]:
    """Cardinality of each residue class a = 0..n, optionally restricted to
    words whose longest run is at most run_cap; counted by the split join
    (codes._classes)."""
    from .codes import _classes

    if not 1 <= n <= 30:
        raise DomainError(f"count needs 1 <= n <= 30, got n={n}")
    (classes, sizes), _ = _classes(_table(run_cap), n)
    counts = [0] * (n + 1)
    for a, size in zip(classes.tolist(), sizes.tolist()):
        counts[a] = size
    return counts


def vt_best_rll_param(n: int, f: int) -> tuple[int, int]:
    """The residue a maximizing |VT_a(n) restricted to max run <= f| and that
    cardinality; ties broken by the smallest a."""
    sizes = vt_class_sizes(n, run_cap=f)
    best = max(sizes)
    return sizes.index(best), best
