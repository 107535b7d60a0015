import math

import pytest

from burstcodes.bitseq import enumerate_words, format_word, parse_word
from burstcodes.errors import DecodeFailure, DomainError
from burstcodes.rll import (
    RllSpec,
    UrllSpec,
    ceil_log2,
    max_run,
    rll_count,
    rll_count_enumerated,
    rll_decode,
    rll_encode,
    urll_cap,
    urll_count,
    urll_member,
)


def test_max_run():
    assert max_run(()) == 0
    assert max_run(parse_word("0000")) == 4
    assert max_run(parse_word("0101")) == 1
    assert max_run(parse_word("0111111111111111")) == 15


def test_ceil_log2():
    assert [ceil_log2(k) for k in (1, 2, 3, 4, 5, 8, 9, 16)] == [0, 1, 2, 2, 3, 3, 4, 4]


def _reference_rll_encode(x, trace=False):
    """rll_encode as a bit-by-bit scan over a Python list."""
    n = len(x)
    if n < 2:
        raise DomainError("encoding needs length >= 2")
    width = ceil_log2(n)
    block = ceil_log2(n) + 3
    y = list(x) + [0]
    i = 1
    i_end = n
    steps = []
    while i <= i_end:
        val = y[i - 1]
        stretch = 1
        while i - 1 + stretch < len(y) and y[i - 1 + stretch] == val:
            stretch += 1
        if stretch >= block + 1:
            marker = [1] + [(i >> (width - 1 - k)) & 1 for k in range(width)] + [0, 1]
            del y[i - 1 : i - 1 + block]
            y.extend(marker)
            i_end -= block
            if trace:
                steps.append(tuple(y))
        else:
            i += 1
    return (tuple(y), steps) if trace else tuple(y)


def _reference_rll_decode(y):
    """rll_decode as list surgery, strict through _reference_rll_encode."""
    n = len(y) - 1
    if n < 2:
        raise DomainError("decoding needs length >= 3")
    width = ceil_log2(n)
    block = ceil_log2(n) + 3
    buf = list(y)
    while buf[-1] == 1:
        if len(buf) < block + 1:
            raise DecodeFailure("trailing marker block truncated")
        marker = buf[-block:]
        pos = 0
        for k in range(width):
            pos = (pos << 1) | marker[1 + k]
        del buf[-block:]
        if not 1 <= pos <= len(buf):
            raise DecodeFailure(f"marker names position {pos} outside the word")
        buf[pos - 1 : pos - 1] = [buf[pos - 1]] * block
    if len(buf) != n + 1:
        raise DecodeFailure("marker blocks inconsistent with declared length")
    x = tuple(buf[:n])
    if _reference_rll_encode(x) != tuple(y):
        raise DecodeFailure("word is not an encoder output")
    return x


def _outcome(fn, word):
    try:
        return fn(word)
    except DecodeFailure as exc:
        return ("DecodeFailure", str(exc))


def test_encode_matches_reference_exhaustively():
    for n in range(2, 15):
        for x in enumerate_words(n):
            assert rll_encode(x, trace=True) == _reference_rll_encode(x, trace=True), x


def test_decode_matches_reference_exhaustively():
    for length in range(3, 14):
        for y in enumerate_words(length):
            assert _outcome(rll_decode, y) == _outcome(_reference_rll_decode, y), y


def test_codec_rejects_non_binary_entries():
    for bad in ((0, 1, 2), (0, -1, 1), (1, 256, 0), (0, 1, 255), (0, 1, "1"), (0, 0.0, 1)):
        with pytest.raises(DomainError):
            rll_encode(bad)
        with pytest.raises(DomainError):
            rll_decode(bad + (1,))
    with pytest.raises(DomainError):
        rll_decode((0, 0, 0, 0, 0, 2, 0, 1))


def test_encode_worked_example():
    x = parse_word("0111111111111111")
    y, steps = rll_encode(x, trace=True)
    assert [format_word(s) for s in steps] == [
        "01111111101001001",
        "01010010011001001",
    ]
    assert format_word(y) == "01010010011001001"
    assert len(y) == 17
    assert rll_decode(y) == x


def test_encode_compliant_word_gets_sentinel_only():
    x = parse_word("0101101001")
    assert max_run(x) <= ceil_log2(10) + 3
    assert rll_encode(x) == x + (0,)


def test_encode_triple_exhaustive():
    # length n+1, run cap ceil(log2 n) + 3, and exact inversion
    for n in (2, 5, 8, 11, 12):
        cap = ceil_log2(n) + 3
        seen = set()
        for x in enumerate_words(n):
            y = rll_encode(x)
            assert len(y) == n + 1
            assert max_run(y) <= cap
            assert rll_decode(y) == x
            seen.add(y)
        assert len(seen) == 1 << n  # injective


def test_decode_rejects_malformed_blocks():
    with pytest.raises(DecodeFailure):
        # rightmost bit 1 forces a marker block naming position 0
        rll_decode(parse_word("00000000000000001"))
    with pytest.raises(DomainError):
        rll_decode(parse_word("01"))


def test_decode_accepts_exactly_the_encoder_outputs():
    # every other word of each length is rejected, e.g. 0000000, which the
    # marker loop alone would read as 000000
    with pytest.raises(DecodeFailure):
        rll_decode(parse_word("0000000"))
    for length in range(3, 13):
        image = {rll_encode(x) for x in enumerate_words(length - 1)}
        accepted = set()
        for y in enumerate_words(length):
            try:
                x = rll_decode(y)
            except DecodeFailure:
                continue
            assert rll_encode(x) == y
            accepted.add(y)
        assert accepted == image, length


def test_long_run_appends_repeated_markers():
    # run of length >= 2*(cap) + 1 fires the excision twice at one position
    n = 16
    x = tuple([1] * 16)
    y, steps = rll_encode(x, trace=True)
    assert len(steps) == 2
    assert len(y) == 17
    assert rll_decode(y) == x


def test_rll_count_closed_cases():
    assert rll_count(RllSpec(8, 8)) == 256
    assert rll_count(RllSpec(8, 1)) == 2
    assert rll_count(RllSpec(1, 1)) == 2


def test_rll_count_matches_enumeration():
    for n in list(range(1, 17)) + [20]:
        for f in {1, 2, max(1, n // 2), n}:
            if f <= n:
                assert rll_count(RllSpec(n, f)) == rll_count_enumerated(RllSpec(n, f))


def test_low_redundancy_of_log2n_cap():
    # the cap ceil(log2(2n)) costs at most one bit of redundancy
    for n in (8, 16, 32, 64, 256, 1024):
        f = math.ceil(math.log2(2 * n))
        assert rll_count(RllSpec(n, f)) >= 1 << (n - 1)


def test_urll_membership():
    spec = UrllSpec(12, 3, 3)
    assert urll_member(parse_word("010101010101"), spec)
    # first row of the 3-row view of 0^12 is 0000: run 4 > 3
    assert not urll_member(parse_word("000000000000"), spec)
    with pytest.raises(DomainError):
        UrllSpec(10, 3)  # 3 does not divide 10


def test_urll_default_cap():
    assert urll_cap(12, 3) == 6
    assert urll_cap(24, 4) == 7
    assert UrllSpec(12, 3).cap == 6


def test_urll_count_against_brute_force():
    spec = UrllSpec(12, 3, 3)
    brute = sum(1 for x in enumerate_words(12) if urll_member(x, spec))
    assert urll_count(spec) == brute
    # the default cap at n=12 exceeds the row length, so nothing is excluded
    assert urll_count(UrllSpec(12, 3)) == 1 << 12


def test_urll_redundancy_slack_bound():
    # measured redundancy of the universal constraint stays within one bit of
    # log2(log2(b)) - 1
    spec = UrllSpec(12, 3)
    r = 12 - math.log2(urll_count(spec))
    assert r <= math.log2(math.log2(3)) - 1 + 1


def test_urll_redundancy_slack_bound_b4():
    spec = UrllSpec(24, 4)
    r = 24 - math.log2(urll_count(spec))
    assert r <= math.log2(math.log2(4)) - 1 + 1
