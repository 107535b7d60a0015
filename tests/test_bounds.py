import math
from fractions import Fraction

import numpy as np
import pytest

from burstcodes.balls import ball_size_formula, ball_size_tally
from burstcodes.bitseq import from_int
from burstcodes.bounds import (
    _run_formula_sizes,
    bound_report,
    lower_bound_redundancy,
    reference_redundancies,
    transversal_weight,
    upper_bound,
)
from burstcodes.errors import DomainError


def test_upper_bound_values():
    assert upper_bound(8, 2) == Fraction(124, 5)
    assert upper_bound(8, 1) == Fraction(254, 7)
    assert upper_bound(4, 2) == Fraction(4)
    with pytest.raises(DomainError):
        upper_bound(5, 3)  # n <= 2b - 1


def test_lower_bound_forms_agree():
    for n, b in ((8, 2), (10, 2), (12, 3), (16, 4)):
        direct = math.log2(n - 2 * b + 1) - math.log2(2.0 ** (1 - b) - 2.0 ** (b - n))
        assert lower_bound_redundancy(n, b) == pytest.approx(direct, abs=1e-9)
        # definitional identity with the cardinality bound
        ub = upper_bound(n, b)
        assert lower_bound_redundancy(n, b) == n - (
            math.log2(ub.numerator) - math.log2(ub.denominator)
        )
        assert lower_bound_redundancy(n, b) < n - b


def test_transversal_identity_exact():
    # every (n, b) with b <= 4 and n - b <= 18, whether or not b divides n - b
    cases = [(n, b) for b in (1, 2, 3, 4) for n in range(2 * b, b + 19)]
    assert len(cases) == 18 + 17 + 16 + 15
    for n, b in cases:
        assert transversal_weight(n, b) == upper_bound(n, b), (n, b)


def test_popcount_ball_sizes_equal_the_formula():
    # every b < n <= 14, whether or not b divides n
    for n in range(2, 15):
        vs = np.arange(1 << n, dtype=np.uint64)
        words = [from_int(v, n) for v in range(1 << n)]
        for b in range(1, n):
            want = [ball_size_formula(x, b) for x in words]
            assert _run_formula_sizes(vs, n, b).tolist() == want, (n, b)


def test_popcount_ball_sizes_equal_the_tally():
    # the counting of distinct ball elements, at every length m, b | m or not
    for b in (1, 2, 3, 4):
        for m in range(b + 1, 17):
            sizes = _run_formula_sizes(np.arange(1 << m, dtype=np.uint64), m, b)
            counts = np.bincount(sizes)
            assert {i: int(c) for i, c in enumerate(counts) if c} == ball_size_tally(m, b), (m, b)


def test_transversal_caps():
    with pytest.raises(DomainError):
        transversal_weight(30, 3)
    with pytest.raises(DomainError):
        transversal_weight(4, 3)


def test_reference_formulas_spot_values():
    refs = reference_redundancies(8, 2)
    assert refs["cheng_baseline"] == pytest.approx(2 * math.log2(5))
    assert refs["two_burst_reference"] == pytest.approx(4.0)
    assert refs["burst21_bound"] == pytest.approx(math.log2(60))

    refs = reference_redundancies(16, 2)
    assert refs["burst_exact_bound"] == pytest.approx(7.0)  # 4 + 2 + 2 - 1

    refs = reference_redundancies(12, 3)
    assert refs["noncons3_bound"] == pytest.approx(
        4 * math.log2(12) + 2 * math.log2(math.log2(12)) + 6
    )
    assert refs["at_most_consecutive_bound"] == pytest.approx(
        2 * math.log2(12) + 2 * math.log2(math.log2(12)) + 3 + math.log2(math.log2(3))
    )
    refs = reference_redundancies(24, 4)
    assert refs["noncons4_bound"] == pytest.approx(
        7 * math.log2(24) + 2 * math.log2(math.log2(24)) + 4
    )


def test_bound_report_shape():
    rep = bound_report(8, 2)
    j = rep.to_json()
    assert j["upper_bound"] == "124/5"
    assert j["upper_bound_float"] == pytest.approx(24.8)
    assert j["transversal_weight"] == "124/5"
    assert "lower_bound" in j["formulas"]
    rep = bound_report(26, 2)  # n - b > 18: not enumerated
    assert rep.transversal_weight_enumerated is None
