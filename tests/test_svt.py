import pytest

from burstcodes.bitseq import enumerate_words, format_word, parse_word, runs
from burstcodes.errors import DomainError
from burstcodes.vt import (
    SvtParams,
    svt_best_params,
    svt_class_sizes,
    svt_decode,
    svt_member,
)


def test_membership_examples():
    assert svt_member(parse_word("00000"), SvtParams(5, 3, 0, 0))
    assert not svt_member(parse_word("00000"), SvtParams(5, 3, 1, 0))
    # weight 10 (even), weighted sum 75 = 0 mod 5
    assert svt_member(parse_word("1111011001100011"), SvtParams(16, 5, 0, 0))
    with pytest.raises(DomainError):
        SvtParams(8, 3, 3, 0)
    with pytest.raises(DomainError):
        svt_member(parse_word("000"), SvtParams(4, 3, 0, 0))


def test_classes_partition_space():
    for n, P in ((8, 3), (10, 4), (14, 5)):
        sizes = svt_class_sizes(n, P)
        assert len(sizes) == 2 * P
        assert sum(sizes.values()) == 1 << n


def test_class_counts_reject_spans_below_2():
    for P in (-3, 0, 1):
        with pytest.raises(DomainError):
            svt_class_sizes(8, P)
        with pytest.raises(DomainError):
            svt_best_params(8, P)


def test_decode_worked_example():
    x = parse_word("1111011001100011")
    y = x[:8] + x[9:]  # delete the 9th bit
    res = svt_decode(y, SvtParams(16, 5, 0, 0), u=8)
    assert res.word == x
    assert res.detail["del_val"] == 0
    assert res.detail["a_prime"] == 3
    assert res.detail["delta"] == 2
    assert res.window == (8, 12)


def test_decode_zero_word():
    x = parse_word("0000000000")
    for k in (1, 5, 10):
        y = x[: k - 1] + x[k:]
        for u in range(max(1, k - 2), min(k, 9) + 1):
            assert svt_decode(y, SvtParams(10, 3, 0, 0), u=u).word == x


def test_exhaustive_round_trip_n10():
    # every (codeword, deletion position, covering window start) triple
    n = 10
    for P in (3, 4, 5):
        for x in enumerate_words(n):
            p = SvtParams(
                n,
                P,
                sum(i * b for i, b in enumerate(x, start=1)) % P,
                sum(x) % 2,
            )
            for k in range(1, n + 1):
                y = x[: k - 1] + x[k:]
                for u in range(max(1, k - P + 1), min(k, n - 1) + 1):
                    res = svt_decode(y, p, u)
                    assert res.word == x, (format_word(x), k, u, P)


def _interval_gap(i1, i2):
    return max(0, max(i1[0], i2[0]) - min(i1[1], i2[1]))


def _p_bounded_violations(n, P):
    """Pairs of same-class words sharing a length n-1 subword with deletion
    positions less than P apart; the run structure collapses equivalent
    deletion positions into intervals."""
    by_result = {}
    for x in enumerate_words(n):
        cls = (sum(i * b for i, b in enumerate(x, start=1)) % P, sum(x) % 2)
        for run in runs(x):
            y = x[: run.start - 1] + x[run.start :]
            interval = (run.start, run.start + run.length - 1)
            by_result.setdefault(y, []).append((x, cls, interval))
    bad = []
    for entries in by_result.values():
        for i, (x1, c1, i1) in enumerate(entries):
            for x2, c2, i2 in entries[i + 1 :]:
                if c1 == c2 and _interval_gap(i1, i2) < P:
                    bad.append((x1, x2))
    return bad


def test_p_bounded_disjointness_small():
    assert _p_bounded_violations(8, 3) == []
    # sanity: without the parity bit the property would fail; a plain mod-P
    # checksum admits same-class collisions within P positions
    collisions = 0
    by_result = {}
    for x in enumerate_words(6):
        cls = sum(i * b for i, b in enumerate(x, start=1)) % 3
        for run in runs(x):
            y = x[: run.start - 1] + x[run.start :]
            by_result.setdefault((y, cls), []).append((x, run))
    for entries in by_result.values():
        if len({x for x, _ in entries}) > 1:
            collisions += 1
    assert collisions > 0


def test_decoder_agrees_with_preimage_oracle():
    # brute-force oracle: same-class supersequences of y whose deletion
    # position can fall inside [u, u+P-1]
    n, P = 8, 3
    for x in enumerate_words(n):
        p = SvtParams(
            n, P, sum(i * b for i, b in enumerate(x, start=1)) % P, sum(x) % 2
        )
        for run in runs(x):
            k = run.start
            y = x[: k - 1] + x[k:]
            for u in range(max(1, k - P + 1), min(k, n - 1) + 1):
                pre = set()
                for t in range(n):
                    cand = y[:t] + (0,) + y[t:]
                    for v in (0, 1):
                        cand = y[:t] + (v,) + y[t:]
                        if not svt_member(cand, p):
                            continue
                        # deletion positions of cand that reproduce y form a
                        # run; keep cand if that run meets the window
                        for kk in range(u, min(u + P - 1, n) + 1):
                            if cand[: kk - 1] + cand[kk:] == y:
                                pre.add(cand)
                                break
                assert pre == {x}, (format_word(x), k, u)
                assert svt_decode(y, p, u).word == x


def test_best_params_oracle_n8():
    sizes = svt_class_sizes(8, 3)
    assert sizes == {
        (0, 0): 44,
        (0, 1): 44,
        (1, 0): 42,
        (1, 1): 42,
        (2, 0): 42,
        (2, 1): 42,
    }
    c, d, card = svt_best_params(8, 3)
    assert (c, d, card) == (0, 0, 44)
    assert card >= (1 << 8) / (2 * 3)


def test_best_params_pigeonhole_and_redundancy():
    import math

    for n, P in ((10, 3), (12, 5)):
        c, d, card = svt_best_params(n, P)
        assert card >= (1 << n) / (2 * P)
        assert n - math.log2(card) <= math.log2(P) + 1 + 1e-9
