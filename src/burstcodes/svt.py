"""Shifted VT codes: single-deletion correction when the deletion position is
known to within P consecutive positions.

``SVT_{c,d}(n, P)`` keeps words with sum(i * x_i) = c mod P and parity
sum(x_i) = d mod 2. The parity pins down the deleted bit's value; the mod-P
checksum then locates it inside the uncertainty window. The decoder takes the
first possible deletion position u and works on the window slice
(y_u, ..., y_{u+P-2}), clamped at the word end. ``svt_class_sizes`` counts the
2P classes with the split join of codes.py, both forms as key forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bitseq import Word
from .errors import DecodeFailure, DomainError
from .vt import DecodeResult


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


def svt_member(x: Word, p: SvtParams) -> bool:
    if len(x) != p.n:
        raise DomainError(f"expected length {p.n}, got {len(x)}")
    return (
        sum(i * b for i, b in enumerate(x, start=1)) % p.P == p.c
        and sum(x) % 2 == p.d
    )


def svt_decode(y: Word, p: SvtParams, u: int) -> DecodeResult:
    """Restore the codeword y came from by one deletion at a position in
    [u, u+P-1].

    The deleted value is the parity defect (d - wt(y)) mod 2. The augmented
    checksum a' weights positions beyond the window as if already shifted
    right; the defect delta = (c - a') mod P then equals, for a deleted 0, the
    number of ones to the right of the reinsertion point inside the window
    slice, and for a deleted 1 shifts by u + wt(slice) to count zeros on the
    left instead. Slots inside one run give the same word; the leftmost is
    used.
    """
    n, P = p.n, p.P
    if len(y) != n - 1:
        raise DomainError(f"expected received length {n - 1}, got {len(y)}")
    if not 1 <= u <= n - 1:
        raise DomainError(f"window start u must lie in [1, {n - 1}], got {u}")
    value = (p.d - sum(y)) % 2
    hi = min(u + P - 2, n - 1)
    window = y[u - 1 : hi]
    a_prime = (
        sum(i * y[i - 1] for i in range(1, hi + 1))
        + sum((i + 1) * y[i - 1] for i in range(hi + 1, n))
    ) % P
    delta = (p.c - a_prime) % P
    if value == 0:
        suffix = sum(window)
        if delta > suffix:
            raise DecodeFailure("checksum defect incompatible with a deleted 0")
        t = 0
        while suffix > delta:
            suffix -= window[t]
            t += 1
    else:
        target = (delta - u - sum(window)) % P
        if target > len(window) - sum(window):
            raise DecodeFailure("checksum defect incompatible with a deleted 1")
        t = 0
        zeros = 0
        while zeros < target:
            zeros += 1 - window[t]
            t += 1
    x = y[: u - 1] + window[:t] + (value,) + window[t:] + y[hi:]
    if not svt_member(x, p):
        raise DecodeFailure("restored word violates the code constraints")
    return DecodeResult(
        word=x,
        window=(u, min(u + P - 1, n)),
        detail={
            "kind": "deletion",
            "value": value,
            "position": u + t,
            "del_val": value,
            "a_prime": a_prime,
            "delta": delta,
        },
    )


@functools.lru_cache(maxsize=64)
def _table(P: int):
    """The checksum mod P and the weight mod 2 as the key forms c and d."""
    from .codes import _Form, _Table

    return _Table((("c", _Form(1, 1, True, lambda n: P)), ("d", _Form(1, 1, False, lambda n: 2))))


def svt_class_sizes(n: int, P: int) -> dict[tuple[int, int], int]:
    """Cardinality of every non-empty (c, d) class, counted by the split join
    (codes._classes); the 2P classes partition {0,1}^n."""
    from .codes import _classes

    if not 1 <= n <= 30:
        raise DomainError(f"count needs 1 <= n <= 30, got n={n}")
    if P < 2:
        raise DomainError("position span P must be >= 2")
    (classes, sizes), _ = _classes(_table(P), n)
    return {(k // 2, k % 2): size for k, size in zip(classes.tolist(), sizes.tolist())}


def svt_best_params(n: int, P: int) -> tuple[int, int, int]:
    """(c, d, cardinality) of the largest class; ties by smallest (c, d)."""
    sizes = svt_class_sizes(n, P)
    (c, d), best = min(sizes.items(), key=lambda kv: (-kv[1], kv[0]))
    return c, d, best
