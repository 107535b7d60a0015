"""Varshamov-Tenengolts codes and their shifted variant: membership,
single-deletion decoding, class counts, and the run-length-limited
intersection used by the array constructions.

``VT_a(n)`` is the set of length-n words with sum(i * x_i) = a mod (n+1). The
decoder recovers the unique codeword a single deletion came from and reports
the full run of the restored word in which the deletion occurred; the deletion
position is ambiguous exactly within that run, and downstream array decoders
consume the interval rather than a single position.

``SVT_{c,d}(n, P)`` keeps words with sum(i * x_i) = c mod P and parity
sum(x_i) = d mod 2; it corrects a deletion known to lie within P consecutive
positions. The parity pins down the deleted bit's value; the mod-P checksum
then locates it inside the window slice (y_u, ..., y_{u+P-2}), clamped at the
word end. So SVT decoding is VT decoding confined to a window: both decoders
take one checksum and reinsert at the leftmost slot with a given number of
ones after it (a deleted 0) or zeros before it (a deleted 1).

``vt_class_sizes`` and ``svt_class_sizes`` count the classes with the class
counter of codes.py (a transfer over positions, or a pair join): the VT
checksum is one key form, and a run cap is a capped row on the word itself;
the SVT checksum and weight are two key forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from .bitseq import Word
from .errors import DecodeFailure, DomainError
from .rll import max_run


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
class SvtParams:
    n: int
    P: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError("code length must be >= 2")
        if self.P < 2:
            raise DomainError("position span P must be >= 2")
        if not 0 <= self.c < self.P:
            raise DomainError(f"residue c must satisfy 0 <= c < P, got {self.c}")
        if self.d not in (0, 1):
            raise DomainError("parity d must be 0 or 1")


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


def svt_member(x: Word, p: SvtParams) -> bool:
    if len(x) != p.n:
        raise DomainError(f"expected length {p.n}, got {len(x)}")
    return checksum(x, p.P) == p.c and sum(x) % 2 == p.d


def _slot(y: Word, value: int, count: int) -> int:
    """The leftmost slot t (0..len(y)) of y with `count` ones after it, for
    a deleted 0, or `count` zeros before it, for a deleted 1; y must hold
    that many. Slots inside one run give the same word, so the leftmost
    stands for all of them."""
    t = 0
    if value == 0:
        suffix = sum(y)
        while suffix > count:
            suffix -= y[t]
            t += 1
    else:
        zeros = 0
        while zeros < count:
            zeros += 1 - y[t]
            t += 1
    return t


def vt_decode(y: Word, p: VtParams) -> DecodeResult:
    """Restore the unique VT_a(n) codeword that y resulted from by one deletion.

    Syndrome rule: with s = (a - sum(i*y_i)) mod (n+1) and w = wt(y), a deleted
    0 satisfies s <= w and is reinserted with exactly s ones to its right; a
    deleted 1 satisfies s > w and is reinserted with s - w - 1 zeros to its
    left.
    """
    n = p.n
    if n < 2:
        raise DomainError("decoding needs code length >= 2")
    if len(y) != n - 1:
        raise DomainError(f"expected received length {n - 1}, got {len(y)}")
    w = sum(y)
    s = (p.a - checksum(y, n + 1)) % (n + 1)
    value = int(s > w)
    t = _slot(y, value, s - w - 1 if value else s)
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


def svt_decode(y: Word, p: SvtParams, u: int) -> DecodeResult:
    """Restore the codeword y came from by one deletion at a position in
    [u, u+P-1].

    The deleted value is the parity defect (d - wt(y)) mod 2. The augmented
    checksum a' weights positions beyond the window as if already shifted
    right; the defect delta = (c - a') mod P then equals, for a deleted 0, the
    number of ones to the right of the reinsertion point inside the window
    slice, and for a deleted 1 shifts by u + wt(slice) to count zeros on the
    left instead.
    """
    n, P = p.n, p.P
    if len(y) != n - 1:
        raise DomainError(f"expected received length {n - 1}, got {len(y)}")
    if not 1 <= u <= n - 1:
        raise DomainError(f"window start u must lie in [1, {n - 1}], got {u}")
    value = (p.d - sum(y)) % 2
    hi = min(u + P - 2, n - 1)
    window = y[u - 1 : hi]
    a_prime = (checksum(y, P) + sum(y[hi:])) % P
    delta = (p.c - a_prime) % P
    ones = sum(window)
    if value == 0:
        count = delta
        if count > ones:
            raise DecodeFailure("checksum defect incompatible with a deleted 0")
    else:
        count = (delta - u - ones) % P
        if count > len(window) - ones:
            raise DecodeFailure("checksum defect incompatible with a deleted 1")
    t = u - 1 + _slot(window, value, count)
    x = y[:t] + (value,) + y[t:]
    if not svt_member(x, p):
        raise DecodeFailure("restored word violates the code constraints")
    return DecodeResult(
        word=x,
        window=(u, min(u + P - 1, n)),
        detail={
            "kind": "deletion",
            "value": value,
            "position": t + 1,
            "del_val": value,
            "a_prime": a_prime,
            "delta": delta,
        },
    )


def vt_rll_member(x: Word, p: VtParams, f: int) -> bool:
    """Membership in the intersection of VT_a(n) with the max-run-f constraint."""
    return vt_member(x, p) and max_run(x) <= f


@functools.lru_cache(maxsize=64)
def _vt_table(run_cap: int | None):
    """The VT checksum as the one key form, under a run cap on the word."""
    from .codes import _Form, _Table

    caps = () if run_cap is None else ((1, lambda n: max(run_cap, 0)),)
    return _Table((("a", _Form(1, 1, True, lambda n: n + 1)),), caps=caps)


@functools.lru_cache(maxsize=64)
def _svt_table(P: int):
    """The checksum mod P and the weight mod 2 as the key forms c and d."""
    from .codes import _Form, _Table

    return _Table((("c", _Form(1, 1, True, lambda n: P)), ("d", _Form(1, 1, False, lambda n: 2))))


def vt_class_sizes(n: int, run_cap: int | None = None) -> list[int]:
    """Cardinality of each residue class a = 0..n, optionally restricted to
    words whose longest run is at most run_cap."""
    from .codes import _class_sizes

    sizes = _class_sizes(_vt_table(run_cap), n)
    return [sizes.get((a,), 0) for a in range(n + 1)]


def vt_best_rll_param(n: int, f: int) -> tuple[int, int]:
    """The residue a maximizing |VT_a(n) restricted to max run <= f| and that
    cardinality; ties broken by the smallest a."""
    sizes = vt_class_sizes(n, run_cap=f)
    best = max(sizes)
    return sizes.index(best), best


def svt_class_sizes(n: int, P: int) -> dict[tuple[int, int], int]:
    """Cardinality of every non-empty (c, d) class; the 2P classes partition
    {0,1}^n."""
    from .codes import _class_sizes

    if P < 2:
        raise DomainError("position span P must be >= 2")
    return _class_sizes(_svt_table(P), n)


def svt_best_params(n: int, P: int) -> tuple[int, int, int]:
    """(c, d, cardinality) of the largest class; ties by smallest (c, d)."""
    sizes = svt_class_sizes(n, P)
    (c, d), best = min(sizes.items(), key=lambda kv: (-kv[1], kv[0]))
    return c, d, best
