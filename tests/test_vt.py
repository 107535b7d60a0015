import hashlib
import math

import pytest

from burstcodes.balls import ball, del_exact
from burstcodes.bitseq import enumerate_words, format_word, parse_word, runs
from burstcodes.errors import DecodeFailure, DomainError
from burstcodes.rll import RllSpec, rll_count
from burstcodes.vt import (
    SvtParams,
    VtParams,
    checksum,
    svt_decode,
    svt_member,
    vt_best_rll_param,
    vt_class_sizes,
    vt_decode,
    vt_member,
    vt_rll_member,
)


def test_membership_examples():
    assert vt_member(parse_word("0000"), VtParams(4, 0))
    assert vt_member(parse_word("1001"), VtParams(4, 0))  # 1 + 4 = 5 = 0 mod 5
    assert not vt_member(parse_word("1000"), VtParams(4, 0))
    with pytest.raises(DomainError):
        vt_member(parse_word("100"), VtParams(4, 0))
    with pytest.raises(DomainError):
        VtParams(4, 5)
    # n = 1 is the length bound's accepted side
    assert VtParams(1, 0).n == 1 and vt_member((1,), VtParams(1, 1))


def test_vt0_4_codebook():
    members = [w for w in enumerate_words(4) if vt_member(w, VtParams(4, 0))]
    assert sorted(format_word(w) for w in members) == ["0000", "0110", "1001", "1111"]


def test_partition_of_space():
    for n in range(1, 13):
        sizes = vt_class_sizes(n)
        assert sum(sizes) == 1 << n
        # residues are a function of the word, so classes are disjoint by
        # construction; spot-check against direct checksums
        if n <= 8:
            direct = [0] * (n + 1)
            for x in enumerate_words(n):
                direct[checksum(x, n + 1)] += 1
            assert direct == sizes


def test_decode_examples():
    res = vt_decode(parse_word("000"), VtParams(4, 0))
    assert format_word(res.word) == "0000" and res.window == (1, 4)

    res = vt_decode(parse_word("110"), VtParams(4, 0))
    assert format_word(res.word) == "0110" and res.window == (1, 1)
    assert res.detail["value"] == 0


def _preimages(y, p):
    n = p.n
    seen = set()
    for t in range(n):
        for v in (0, 1):
            seen.add(y[:t] + (v,) + y[t:])
    return sorted(x for x in seen if vt_member(x, p))


def test_decode_equals_preimage_oracle_exhaustively():
    for n in range(2, 11):
        for x in enumerate_words(n):
            p = VtParams(n, checksum(x, n + 1))
            for run in runs(x):
                y = x[: run.start - 1] + x[run.start :]
                res = vt_decode(y, p)
                assert res.word == x
                assert _preimages(y, p) == [x]
                # window reports the full run of x containing the deletion
                assert res.window == (run.start, run.start + run.length - 1)


def test_window_positions_all_reproduce_y():
    for x in enumerate_words(8):
        p = VtParams(8, checksum(x, 9))
        y = x[1:]
        res = vt_decode(y, p)
        lo, hi = res.window
        for k in range(lo, hi + 1):
            assert res.word[: k - 1] + res.word[k:] == y


def test_single_deletion_balls_disjoint_within_class():
    for n in (6, 8):
        for a in range(n + 1):
            members = [x for x in enumerate_words(n) if vt_member(x, VtParams(n, a))]
            seen = {}
            for x in members:
                for y in ball(x, del_exact(1)):
                    assert seen.setdefault(y, x) == x
    # sanity: some pair of different classes does collide
    assert len(_preimages(parse_word("0000000"), VtParams(8, 0))) == 1


def test_rll_membership():
    assert vt_rll_member(parse_word("0000"), VtParams(4, 0), 4)
    assert not vt_rll_member(parse_word("0000"), VtParams(4, 0), 3)
    assert vt_rll_member(parse_word("0110"), VtParams(4, 0), 2)


def test_best_rll_param_oracle_n8():
    # brute-force oracle: class sizes of VT cap 4 at n = 8 computed directly
    counts = [0] * 9
    for w in enumerate_words(8):
        longest = max(r.length for r in runs(w))
        if longest <= 4:
            counts[checksum(w, 9)] += 1
    a, card = vt_best_rll_param(8, 4)
    assert card == max(counts) == 26
    assert a == counts.index(max(counts)) == 0
    assert sum(counts) == rll_count(RllSpec(8, 4)) == 216


def test_best_rll_param_pigeonhole_and_partition():
    for n in (8, 10, 14):
        f = math.ceil(math.log2(2 * n))
        total = rll_count(RllSpec(n, f))
        a, card = vt_best_rll_param(n, f)
        assert card >= total / (n + 1)
        assert sum(vt_class_sizes(n, run_cap=f)) == total


def test_best_rll_redundancy_bound():
    # redundancy of the best run-capped VT class is at most log2(n+1) + 1
    for n in (8, 16):
        f = math.ceil(math.log2(2 * n))
        _, card = vt_best_rll_param(n, f)
        assert n - math.log2(card) <= math.log2(n + 1) + 1 + 1e-9


def _outcomes():
    """Every received word y of length n - 1 for n = 2..8, decoded by
    vt_decode under every a and by svt_decode under every (P <= n + 1, c, d,
    u): the case with its word, window and detail, or with the type and
    message of its error; plus the number of decodes and of errors."""
    records, decoded = [], 0
    for n in range(2, 9):
        calls = [(("vt", a), lambda y, p=VtParams(n, a): vt_decode(y, p)) for a in range(n + 1)]
        calls += [
            (("svt", P, c, d, u), lambda y, p=SvtParams(n, P, c, d), u=u: svt_decode(y, p, u))
            for P in range(2, n + 2) for c in range(P) for d in (0, 1) for u in range(1, n)
        ]
        for y in enumerate_words(n - 1):
            for case, call in calls:
                try:
                    r = call(y)
                except (DecodeFailure, DomainError) as exc:
                    records.append(repr((n, y, case, type(exc).__name__, str(exc))))
                else:
                    records.append(repr((n, y, case, r.word, r.window, sorted(r.detail.items()))))
                    decoded += 1
    return records, decoded, len(records) - decoded


def test_every_decode_outcome_is_pinned():
    # Digest of the records at the commit before vt and svt shared their
    # reinsertion step; any other exception than DecodeFailure or
    # DomainError escapes _outcomes and fails the test.
    records, decoded, failed = _outcomes()
    assert (decoded, failed) == (56314, 63496)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "182f57d7c25ecd334e9db501aa5097cd2bfe3f705fa5825105026b37f552158e"


def test_every_decode_is_a_member_one_deletion_from_y():
    # the decoders do not re-check their results; this sweep is the check:
    # every VT_a(n) decode at n <= 12 and every SVT decode at n <= 8 that
    # does not fail gives a member x with x minus its reinserted bit equal
    # to y, and a VT window starts at that bit, the first of its run
    decoded = 0
    for n in range(2, 13):
        vts = [VtParams(n, a) for a in range(n + 1)]
        svts = [SvtParams(n, P, c, d) for P in range(2, n + 2) if n <= 8 for c in range(P) for d in (0, 1)]
        for y in enumerate_words(n - 1):
            for p in vts:
                r = vt_decode(y, p)
                t = r.detail["position"]
                assert vt_member(r.word, p) and r.word[: t - 1] + r.word[t:] == y and r.window[0] == t
                assert t == 1 or r.word[t - 2] != r.word[t - 1]
            for p in svts:
                for u in range(1, n):
                    try:
                        r = svt_decode(y, p, u)
                    except DecodeFailure:
                        continue
                    t = r.detail["position"]
                    assert svt_member(r.word, p) and r.word[: t - 1] + r.word[t:] == y
                    decoded += 1
    assert decoded == 56314 - 2046  # the decodes _outcomes counts, less its VT ones
