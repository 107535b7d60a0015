import math
from fractions import Fraction

import numpy as np
import pytest

from burstcodes.balls import (
    ErrorKind,
    ErrorModel,
    ball,
    ball_size_distribution,
    ball_size_formula,
    ball_size_tally,
    parse_model,
    words_with_runs,
)
from burstcodes.bitseq import from_int
from burstcodes.bounds import (
    _run_formula_sizes,
    bound_report,
    lower_bound_redundancy,
    reference_redundancies,
    transversal_weight,
    upper_bound,
)
from burstcodes.codes import Family, best_params, param_ranges
from burstcodes.errors import DomainError
from burstcodes.rll import RllSpec, UrllSpec, ceil_log2, rll_count, urll_cap, urll_count
from burstcodes.vt import SvtParams, VtParams, svt_decode


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
    assert refs["multi_deletion"] == pytest.approx(16.0)  # 2^2 log2(2) log2(16), from b = 2 on

    refs = reference_redundancies(12, 3)
    # 2 * 4 + log2 3 - (2 + 3 log2 3 - 2 log2 5), at n/b = 4
    assert refs["cheng_two_vt_rows"] == pytest.approx(6 + 2 * math.log2(5 / 3))
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
    # at n = 1 log2 log2 n is undefined, multi_deletion needs b >= 2 and the
    # lower bound n > 2b - 1
    refs = reference_redundancies(1, 1)
    assert [k for k, v in refs.items() if v is None] == [
        "multi_deletion", "burst_exact_bound", "at_most_consecutive_bound",
        "noncons3_bound", "noncons4_bound", "lower_bound",
    ]


def test_bound_report_shape():
    rep = bound_report(8, 2)
    j = rep.to_json()
    assert j["upper_bound"] == "124/5"
    assert j["upper_bound_float"] == pytest.approx(24.8)
    assert j["transversal_weight"] == "124/5"
    assert "lower_bound" in j["formulas"]
    # the sum is reported up to transversal_weight's own limit, n - b <= 22:
    # at (24, 2), at ball-census's two bounds (n - b = 18 and 17), not past it
    for n, b in ((24, 2), (20, 2), (19, 2)):
        assert bound_report(n, b).transversal_weight_enumerated == upper_bound(n, b), (n, b)
    rep = bound_report(26, 2)  # n - b > TRANSVERSAL_MAX_BITS: not enumerated
    assert rep.transversal_weight_enumerated is None


def test_non_integer_arguments_raise_domain_error():
    # lengths, burst sizes and caps go through operator.index, as CodeSpec's
    # do: a float or a string is refused with DomainError, not a raw
    # TypeError from inside the computation
    calls = [
        lambda: rll_count(RllSpec(10.5, 3)),
        lambda: RllSpec(10, "3"),
        lambda: urll_count(UrllSpec(12.0, 3)),
        lambda: UrllSpec(12, 3, 2.5),
        lambda: upper_bound(10.5, 2),
        lambda: lower_bound_redundancy(10, 2.0),
        lambda: transversal_weight(10.5, 2),
        lambda: reference_redundancies(10, "2"),
        lambda: bound_report(10.5, 2),
        lambda: ball((0, 1, 0), ErrorModel(ErrorKind.DEL_EXACT, "1")),
        lambda: parse_model("del-exact", "2"),
        lambda: parse_model("burst-2-1", None),
        lambda: ErrorModel("del-exact", 1),
        lambda: VtParams(5, 1.5),
        lambda: SvtParams(5, 3.0, 1, 0),
        lambda: svt_decode((0, 0, 0, 0), SvtParams(5, 3, 1, 0), 1.5),
        lambda: best_params(Family.BURST_EXACT, 12.0, 3),
        lambda: param_ranges(Family.BURST_EXACT, 12.5, 3),
        lambda: ball_size_tally(10.0, 2),
        lambda: words_with_runs(5.5, 2),
        lambda: ball_size_distribution(10.5, 2),
        lambda: ceil_log2(2.5),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    # integers of any type still pass, as Python ints
    assert rll_count(RllSpec(np.int64(10), True)) == rll_count(RllSpec(10, 1)) == 2
    assert upper_bound(np.int64(8), np.int64(2)) == Fraction(124, 5)
    assert parse_model("del-exact", np.int64(2)).b == 2
    assert VtParams(np.int64(5), True) == VtParams(5, 1) and type(VtParams(5, True).a) is int
    assert svt_decode((0, 0, 0, 0), SvtParams(5, 3, 0, 0), np.int64(1)).word == (0,) * 5
    assert param_ranges(Family.BURST_EXACT, np.int64(12), 3) == param_ranges(Family.BURST_EXACT, 12, 3)
    assert words_with_runs(np.int64(5), 2) == 8 and ceil_log2(np.int64(5)) == 3
    assert ball_size_distribution(np.int64(6), 2) == ball_size_distribution(6, 2)


def test_exact_bounds_stop_at_a_stated_size(limited):
    # 2^(n-b+1) is built up to EXACT_MAX_BITS bits: one bit past it the exact
    # bound, the lower bound and the reference columns refuse at once, where
    # n = 10^10 took over 1 GB and n = 2^62 ended in MemoryError
    proc = limited(
        "import math, time\n"
        "from burstcodes import bounds\n"
        "from burstcodes.errors import DomainError\n"
        "top = bounds.EXACT_MAX_BITS + 1\n"
        "for n in (2**62, 10**10, top + 1):\n"
        "    for call in (bounds.upper_bound, bounds.lower_bound_redundancy, bounds.reference_redundancies):\n"
        "        start = time.perf_counter()\n"
        "        try:\n"
        "            call(n, 2)\n"
        "            raise AssertionError('accepted')\n"
        "        except DomainError as exc:\n"
        "            assert str(exc) == f'the exact bound stops at n - b + 1 <= 16777216 bits, got n={n}, b=2'\n"
        "        assert time.perf_counter() - start < 0.1\n"
        "assert abs(bounds.lower_bound_redundancy(top, 2) - 1 - math.log2(top - 3)) < 1e-6\n"
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_lengths_past_the_float_range_raise_domain_error():
    # the float formulas refuse an n (or b) whose value, or n log2 b, leaves
    # the float range, instead of escaping with OverflowError
    for call in (
        lambda: reference_redundancies(10**400, 2),
        lambda: reference_redundancies(10**300, 2),  # n fits a float, the lower bound's 2^(n-b+1) no int
        lambda: reference_redundancies(10**20, 10**200),
        lambda: urll_cap(3 * 10**400, 3),
        lambda: urll_cap(15 * 10**307, 3),  # n fits a float, n log2 b does not
        lambda: UrllSpec(3 * 10**400, 3),
        lambda: UrllSpec(3 * 10**400, 3, 5),
    ):
        with pytest.raises(DomainError):
            call()
    # just inside the range the cap still answers
    assert urll_cap(10**308, 3) == math.ceil(math.log2(10**308 * math.log2(3))) + 1
