"""Cardinality bounds for exact-burst-deletion codes.

The upper bound (2^(n-b+1) - 2^b) / (n - 2b + 1) is held as an exact rational
(up to n - b + 1 = EXACT_MAX_BITS) and is reproduced computationally by
summing the reciprocal ball sizes of every word of length n-b (a fractional
transversal of the ball hypergraph); the two must agree exactly, not within
tolerance. The matching redundancy lower bound and the reference redundancy
formulas of the related constructions are floating point, used only in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _enum
from .errors import DomainError, integer


EXACT_MAX_BITS = 1 << 24  # the most bits of 2^(n-b+1) that the exact bound builds, 2 MiB


def upper_bound(n: int, b: int) -> Fraction:
    """Largest possible size of a code correcting one deletion burst of
    exactly b, as an exact rational: (2^(n-b+1) - 2^b) / (n - 2b + 1);
    DomainError past n - b + 1 = EXACT_MAX_BITS, before 2^(n-b+1) is built."""
    n, b = integer(n, "n"), integer(b, "b")
    if b < 1 or n <= 2 * b - 1:
        raise DomainError(f"bound needs n > 2b - 1, got n={n}, b={b}")
    if n - b + 1 > EXACT_MAX_BITS:
        raise DomainError(f"the exact bound stops at n - b + 1 <= {EXACT_MAX_BITS} bits, got n={n}, b={b}")
    return Fraction((1 << (n - b + 1)) - (1 << b), n - 2 * b + 1)


def lower_bound_redundancy(n: int, b: int) -> float:
    """Redundancy any such code must pay: n - log2(upper_bound(n, b)),
    approximately log2(n) + b - 1 for large n, wherever upper_bound answers."""
    bound = upper_bound(n, b)
    return n - (math.log2(bound.numerator) - math.log2(bound.denominator))


TRANSVERSAL_MAX_BITS = 22


def transversal_weight(n: int, b: int) -> Fraction:
    """Sum of 1/|D_b(x)| over all x of length n-b, as an exact rational.

    Ball sizes are one popcount per packed word (_run_formula_sizes), whether
    or not b divides n-b. Equals upper_bound(n, b) exactly.
    """
    n, b = integer(n, "n"), integer(b, "b")
    if b < 1 or n <= 2 * b - 1:
        raise DomainError(f"transversal needs n > 2b - 1, got n={n}, b={b}")
    m = n - b
    if m > TRANSVERSAL_MAX_BITS:
        raise DomainError(f"transversal enumeration capped at n - b <= {TRANSVERSAL_MAX_BITS}")
    counts = sum(
        np.bincount(_run_formula_sizes(chunk, m, b), minlength=m - b + 2)
        for chunk in _enum.iter_chunks(m)
    )
    return sum((Fraction(int(count), size) for size, count in enumerate(counts) if count), Fraction(0))


def _run_formula_sizes(vs: np.ndarray, m: int, b: int) -> np.ndarray:
    """balls.ball_size_formula of packed length-m words (m >= b), one popcount
    each: 1 + the number of positions p <= m - b with x_p != x_{p+b}."""
    return 1 + np.bitwise_count((vs ^ (vs >> b)) & np.uint64((1 << (m - b)) - 1))


def reference_redundancies(n: int, b: int) -> dict[str, float | None]:
    """Redundancy formulas used as report columns; values only, no assertion.

    Keys:
      cheng_baseline            rows-are-VT codes, b * log2(n/b + 1)
      cheng_markers             marker-row variant, n/b + (b-1) log2 3
      cheng_two_vt_rows         two-VT-rows variant (explicit finite form)
      bours_cfc                 comma-free-code arrays, at least n/b
      multi_deletion            generic b-deletion codes, b^2 log2(b) log2(n)
      two_burst_reference       two-adjacent-deletions code, log2(n) + 1
      burst_exact_bound         log2(n) + (b-1) log2 log2 n + b - log2 b
      at_most_consecutive_bound (b-1) log2 n + (C(b,2)-1) log2 log2 n + C(b,2)
                                + log2 log2 b
      burst21_bound             log2(4(2n - 1))
      noncons3_bound            4 log2 n + 2 log2 log2 n + 6
      noncons4_bound            7 log2 n + 2 log2 log2 n + 4
      lower_bound               exact-burst redundancy lower bound

    DomainError where a formula leaves the float range, or n - b + 1 the
    EXACT_MAX_BITS of the exact lower bound.
    """
    n, b = integer(n, "n"), integer(b, "b")
    if n < 1 or b < 1:
        raise DomainError(f"reference redundancies need n >= 1 and b >= 1, got n={n}, b={b}")
    try:
        return _redundancies(n, b)
    except OverflowError:
        raise DomainError(f"reference redundancies overflow a float at n={n}, b={b}") from None


def _redundancies(n: int, b: int) -> dict[str, float | None]:
    ratio, log_n, whole = n / b, math.log2(n), n % b == 0
    loglog_n = math.log2(log_n) if log_n > 0 else None
    out = {
        "cheng_baseline": b * math.log2(ratio + 1) if whole else None,
        "cheng_markers": ratio + (b - 1) * math.log2(3) if whole else None,
        "cheng_two_vt_rows": (
            2 * ratio + (b - 2) * math.log2(3) - (2 + (ratio - 1) * math.log2(3) - 2 * math.log2(ratio + 1))
            if whole else None
        ),
        "bours_cfc": ratio,
        "multi_deletion": b * b * math.log2(b) * log_n if b >= 2 else None,
        "two_burst_reference": log_n + 1,
    }
    out |= dict.fromkeys(("burst_exact_bound", "at_most_consecutive_bound", "noncons3_bound",
                          "noncons4_bound"))
    if loglog_n is not None:
        out["burst_exact_bound"] = log_n + (b - 1) * loglog_n + b - math.log2(b)
        if b >= 3:
            pairs = math.comb(b, 2)
            out["at_most_consecutive_bound"] = (
                (b - 1) * log_n + (pairs - 1) * loglog_n + pairs + math.log2(math.log2(b)))
        out["noncons3_bound"] = 4 * log_n + 2 * loglog_n + 6
        out["noncons4_bound"] = 7 * log_n + 2 * loglog_n + 4
    out["burst21_bound"] = math.log2(4 * (2 * n - 1))
    out["lower_bound"] = lower_bound_redundancy(n, b) if n > 2 * b - 1 else None
    return out


@dataclass(frozen=True)
class BoundReport:
    n: int
    b: int
    upper_bound_cardinality: Fraction
    lower_bound_redundancy: float
    transversal_weight_enumerated: Fraction | None
    formulas: dict[str, float | None]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "b": self.b,
            "upper_bound": str(self.upper_bound_cardinality),
            "upper_bound_float": float(self.upper_bound_cardinality),
            "lower_bound_redundancy": self.lower_bound_redundancy,
            "transversal_weight": (
                None
                if self.transversal_weight_enumerated is None
                else str(self.transversal_weight_enumerated)
            ),
            "formulas": self.formulas,
        }


def bound_report(n: int, b: int) -> BoundReport:
    """Assemble the full bound report; the transversal sum, a popcount over all
    2^(n-b) packed words, is included wherever transversal_weight takes it,
    n - b <= TRANSVERSAL_MAX_BITS. DomainError where the upper bound is
    beyond the float range of the report, from n = 1035 at b = 1, or past
    upper_bound's EXACT_MAX_BITS."""
    n, b = integer(n, "n"), integer(b, "b")
    bound = upper_bound(n, b)
    try:
        float(bound)
    except OverflowError:
        raise DomainError(f"upper bound overflows a float at n={n}, b={b}") from None
    return BoundReport(
        n=n,
        b=b,
        upper_bound_cardinality=bound,
        lower_bound_redundancy=lower_bound_redundancy(n, b),
        transversal_weight_enumerated=transversal_weight(n, b) if n - b <= TRANSVERSAL_MAX_BITS else None,
        formulas=reference_redundancies(n, b),
    )
