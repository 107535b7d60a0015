"""Acceptance suite: one test per criterion, each exact or exhaustive at the
stated scale. Every test prints a pass line; run with `pytest -v -s` to see
them. Criterion 12 is the flagged slow case, opt-in via --runslow."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from burstcodes import balls, bounds, rll, verify, vt
from burstcodes.bitseq import enumerate_words, format_word, parse_word, runs
from burstcodes.cli import run as cli_run
from burstcodes.codes import CodeSpec, Family, best_params, build, decode


def _ok(num: int, title: str) -> None:
    print(f"criterion {num:02d} ({title}): PASS")


def _delete(x, positions):
    drop = set(positions)
    return tuple(b for i, b in enumerate(x, start=1) if i not in drop)


def _window_patterns(n, b, a):
    for first in range(1, n + 1):
        for tail in itertools.combinations(range(first + 1, min(first + b, n + 1)), a - 1):
            yield (first, *tail)


@pytest.fixture(scope="module")
def burst_exact_codebooks():
    out = {}
    for n, b in ((8, 2), (12, 2), (12, 3)):
        spec = best_params(Family.BURST_EXACT, n, b)
        out[(n, b)] = build(spec)
    return out


def test_criterion_01_ball_size_formula_exhaustive():
    pairs = [(n, b) for n in (8, 12) for b in (2, 3, 4) if n % b == 0]
    assert pairs == [(8, 2), (8, 4), (12, 2), (12, 3), (12, 4)]
    for n, b in pairs:
        model = balls.del_exact(b)
        for v in range(1 << n):
            x = tuple((v >> i) & 1 for i in range(n))
            assert len(balls.ball_ints(v, n, model)) == balls.ball_size_formula(x, b)
    _ok(1, "enumerated exact-burst ball sizes equal the run-count formula")


def test_criterion_02_ball_size_distribution():
    checked = 0
    for b in (1, 2, 3, 4):
        for n in range(b + 1, 17):
            if n % b != 0:
                continue
            dist = balls.ball_size_distribution(n, b)
            assert sum(dist.values()) == 1 << n
            assert dist == balls.ball_size_tally(n, b), (n, b)
            checked += 1
    assert checked >= 25
    _ok(2, "closed-form ball-size distribution matches brute-force tally")


def test_criterion_03_transversal_identity():
    for n, b in ((8, 2), (10, 2), (12, 3), (14, 3)):
        tw = bounds.transversal_weight(n, b)
        ub = bounds.upper_bound(n, b)
        assert isinstance(tw, Fraction) and tw == ub, (n, b)
    _ok(3, "fractional transversal weight equals the cardinality bound exactly")


def test_criterion_04_vt_partition_and_decoder():
    for n in range(1, 13):
        assert sum(vt.vt_class_sizes(n)) == 1 << n
    for n in range(2, 13):
        for x in enumerate_words(n):
            p = vt.VtParams(n, vt.checksum(x, n + 1))
            for r in runs(x):
                y = x[: r.start - 1] + x[r.start :]
                assert vt.vt_decode(y, p).word == x
                # independent preimage oracle: all insertions, filtered
                pre = sorted(
                    {
                        y[:t] + (v,) + y[t:]
                        for t in range(n)
                        for v in (0, 1)
                        if vt.vt_member(y[:t] + (v,) + y[t:], p)
                    }
                )
                assert pre == [x]
    _ok(4, "VT classes partition the space; decoder matches the preimage oracle")


def _svt_p_bounded_violations(n, P):
    by_result = {}
    for x in enumerate_words(n):
        cls = (vt.checksum(x, P), sum(x) % 2)
        for r in runs(x):
            y = x[: r.start - 1] + x[r.start :]
            by_result.setdefault(y, []).append((x, cls, (r.start, r.start + r.length - 1)))
    bad = []
    for entries in by_result.values():
        for i, (x1, c1, i1) in enumerate(entries):
            for x2, c2, i2 in entries[i + 1 :]:
                if c1 == c2 and max(0, max(i1[0], i2[0]) - min(i1[1], i2[1])) < P:
                    bad.append((x1, x2))
    return bad


def test_criterion_05_svt_bounded_correction_and_example():
    for n in (10, 12):
        for P in (3, 4, 5):
            assert _svt_p_bounded_violations(n, P) == [], (n, P)
    x = parse_word("1111011001100011")
    res = vt.svt_decode(x[:8] + x[9:], vt.SvtParams(16, 5, 0, 0), u=8)
    assert res.detail["a_prime"] == 3
    assert res.detail["delta"] == 2
    assert res.detail["del_val"] == 0
    assert res.word == x
    _ok(5, "shifted VT codes are P-bounded; decoder reproduces the worked example")


def test_criterion_06_rll_encoder_guarantees():
    for n in range(2, 15):
        cap = rll.ceil_log2(n) + 3
        for x in enumerate_words(n):
            y = rll.rll_encode(x)
            assert len(y) == n + 1
            assert rll.max_run(y) <= cap
            assert rll.rll_decode(y) == x
    _, steps = rll.rll_encode(parse_word("0111111111111111"), trace=True)
    assert format_word(steps[0]) == "01111111101001001"
    assert format_word(steps[-1]) == "01010010011001001"
    _ok(6, "run-length encoder: length n+1, run cap, inversion; worked example")


def test_criterion_07_run_cap_count_bound():
    for n in (8, 16):
        f = math.ceil(math.log2(2 * n))
        count = rll.rll_count(rll.RllSpec(n, f))
        assert count == rll.rll_count_enumerated(rll.RllSpec(n, f))
        assert count >= 1 << (n - 1), (n, count)
    _ok(7, "run cap ceil(log2(2n)) keeps at least half the space")


def test_criterion_08_burst_exact_codes(burst_exact_codebooks):
    for (n, b), cb in burst_exact_codebooks.items():
        spec = cb.spec
        assert verify.verify_code(cb, balls.del_exact(b)).passed, (n, b)
        assert verify.verify_code(cb, balls.ins_exact(b)).passed, (n, b)
        for w in cb.words:
            for start in range(1, n - b + 2):
                y = w[: start - 1] + w[start - 1 + b :]
                assert decode(spec, y).word == w
                assert verify.oracle_decode(cb, y, balls.del_exact(b)).word == w
    _ok(8, "exact-burst construction verifies for deletions and insertions")


def test_criterion_09_at_most_consecutive_code(capsys):
    spec = best_params(Family.AT_MOST_CONSECUTIVE, 12, 3)
    cb = build(spec)
    assert cb.cardinality >= 1
    assert verify.verify_code(cb, balls.del_at_most(3)).passed
    for w in cb.words:
        for a in (1, 2, 3):
            for start in range(1, 12 - a + 2):
                y = w[: start - 1] + w[start - 1 + a :]
                assert decode(spec, y).word == w
    capsys.readouterr()
    assert cli_run(["tabulate", "--family", "at-most-consecutive", "--b", "3", "--n", "12", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"][0]["cardinality"] == cb.cardinality
    assert "note" in report  # substitution reported, formula not asserted
    _ok(9, "at-most-b consecutive construction verifies with full decoding")


def test_criterion_10_burst21_codes_and_claim():
    for n in (8, 10, 12):
        spec = best_params(Family.C21, n, 2)
        cb = build(spec)
        assert cb.cardinality >= 1
        assert verify.verify_code(cb, balls.burst21()).passed, n
        assert verify.verify_code(cb, balls.del_exact(1)).passed, n
    for n in range(3, 13):
        for x in enumerate_words(n):
            d1 = balls.ball(x, balls.del_exact(1))
            for a, b1, b2 in itertools.product((0, 1), repeat=3):
                if (a, b1, b2) in ((1, 0, 0), (0, 1, 1)):
                    continue
                assert balls.restricted_burst21_ball(x, (b1, b2), a) <= d1
    got = sorted(
        format_word(w) for w in balls.ball(parse_word("010010"), balls.burst21())
    )
    assert got == sorted(["00010", "10010", "01010", "01110", "01000", "01001"])
    _ok(10, "(2,1)-burst codes verify; restricted balls fall inside deletion balls")


def test_criterion_11_noncons3_code():
    spec = best_params(Family.NONCONS3, 12, 3)
    cb = build(spec)
    assert cb.cardinality >= 1
    assert verify.verify_code(cb, balls.del_at_most_noncons(3)).passed
    for w in cb.words:
        for a in (1, 2, 3):
            for positions in _window_patterns(12, 3, a):
                assert decode(spec, _delete(w, positions)).word == w
    _ok(11, "non-consecutive burst code (b=3) verifies with full decoding")


@pytest.mark.slow
def test_criterion_12_noncons4_slow():
    spec = best_params(Family.NONCONS4, 24, 4)
    cb = build(spec)
    assert cb.cardinality >= 1
    assert verify.verify_code(cb, balls.del_at_most_noncons(4)).passed
    for w in cb.words:
        for a in (1, 2, 3, 4):
            for positions in _window_patterns(24, 4, a):
                assert decode(spec, _delete(w, positions)).word == w
    _ok(12, "non-consecutive burst code (b=4, n=24) builds and verifies")


def test_criterion_13_deletion_insertion_equivalence():
    for flavor in ("exact", "at-most-consecutive", "at-most-nonconsecutive"):
        for b in (1, 2, 3, 4):
            for n in range(b + 1, 11):
                assert verify.equivalence_check(n, b, flavor), (n, b, flavor)
    _ok(13, "deletion/insertion ball equivalence holds pairwise everywhere")


def test_criterion_14_bounds_coherence(burst_exact_codebooks, capsys):
    books = list(burst_exact_codebooks.items())
    books.append(((8, 2), build(CodeSpec(Family.CHENG1, 8, 2))))
    for n, b in ((8, 2), (10, 2), (12, 3)):
        books.append(((n, b), verify.greedy_code(n, balls.del_exact(b))))
    for (n, b), cb in books:
        assert verify.verify_code(cb, balls.del_exact(b)).passed
        ub = bounds.upper_bound(n, b)
        assert cb.cardinality <= math.floor(ub), (n, b)
        assert cb.redundancy >= bounds.lower_bound_redundancy(n, b) - 1e-9
    code = cli_run(
        ["tabulate", "--family", "burst-exact", "--b", "2", "--n", "8,12,16",
         "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        for col in ("cheng_baseline", "burst_exact_bound", "at_most_consecutive_bound",
                    "noncons3_bound", "noncons4_bound", "lower_bound"):
            assert col in row
        assert row["redundancy_measured"] >= row["lower_bound"] - 1e-9
    _ok(14, "codebook sizes respect the bound; comparison table emitted")


def test_criterion_15_determinism(capsys):
    commands = [
        (["build", "--family", "burst-exact", "--n", "8", "--b", "2"], None),
        (["bound", "--n", "10", "--b", "2", "--format", "json"], None),
        (
            ["simulate", "--model", "del-at-most-nonconsecutive", "--b", "3",
             "--seed", "42", "--format", "json"],
            "011010010110\n111000111000\n",
        ),
        (
            ["tabulate", "--family", "c21", "--n", "8,10", "--format", "json"],
            None,
        ),
    ]
    for argv, stdin_text in commands:
        assert cli_run(argv, stdin_text=stdin_text) == 0
        first = capsys.readouterr().out
        assert cli_run(argv, stdin_text=stdin_text) == 0
        second = capsys.readouterr().out
        assert first == second and first
    _ok(15, "identical flags and seeds produce byte-identical output")
