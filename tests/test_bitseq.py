import random

import numpy as np
import pytest

from burstcodes import _enum
from burstcodes.bitseq import (
    array_view,
    as_word,
    enumerate_words,
    flatten,
    format_word,
    from_int,
    parse_word,
    run_count,
    runs,
    to_int,
)
from burstcodes.balls import ball, del_exact
from burstcodes.codes import CodeSpec, Family, build, codebook_from_words, member
from burstcodes.errors import DomainError
from burstcodes.verify import apply_error
from burstcodes.vt import SvtParams, VtParams, svt_decode, vt_decode


def test_word_validation():
    assert as_word([0, 1, 1]) == (0, 1, 1)
    with pytest.raises(DomainError):
        as_word([0, 2])
    with pytest.raises(DomainError):
        parse_word("01x")
    assert parse_word("0110") == (0, 1, 1, 0)
    assert format_word((1, 0, 1)) == "101"


def test_malformed_entries_raise_domain_error():
    # entries other than 0 and 1 are refused, never printed as 1s or kept
    for bad in (tuple("0" * 18), (2,) * 18, (0.0, 1.0), (1, -1), (None,), (0, 256)):
        with pytest.raises(DomainError):
            format_word(bad)
        with pytest.raises(DomainError):
            as_word(bad)
    for text in ("", "01 ", "0\n1", "012", "\uff10\uff11"):
        with pytest.raises(DomainError):
            parse_word(text)
    # bools and numpy ints pass, as Python ints
    mixed = (True, False, np.int64(1), np.uint8(0))
    assert format_word(mixed) == "1010"
    assert as_word(mixed) == (1, 0, 1, 0) and all(type(b) is int for b in as_word(mixed))
    assert as_word(np.array([0, 1, 1])) == (0, 1, 1)
    for x in enumerate_words(8):
        assert parse_word(format_word(x)) == x


def test_int_round_trip():
    for n in range(1, 10):
        for v in range(1 << n):
            assert to_int(from_int(v, n)) == v
    assert to_int(()) == 0


def test_unpacking_refuses_values_outside_the_length():
    # from_int is exact: a negative value or one of more than n bits is
    # refused, never cut to its low n bits (from_int(99, 4) gave 1100)
    for v, n in ((-1, 4), (99, 4), (16, 4), (1, 0), (1 << 64, 64), (-(1 << 70), 70),
                 (3.0, 4), (3, 4.0), ("3", 4), (0, -1)):
        with pytest.raises(DomainError):
            from_int(v, n)
    assert from_int(15, 4) == (1, 1, 1, 1) and from_int(0, 0) == ()
    assert from_int((1 << 64) - 1, 64) == (1,) * 64


def test_packing_refuses_entries_other_than_0_and_1():
    for bad in ((0, 2, 1), (1, -1), (0, 256), (0.0, 1.0), (None,), tuple("01"), (48, 49)):
        with pytest.raises(DomainError):
            to_int(bad)
    # the words that pack through to_int, and the VT/SVT received words
    spec = CodeSpec(Family.BURST_EXACT, 12, 3, (1, 0, 0))
    with pytest.raises(DomainError):
        member(spec, (0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0))
    with pytest.raises(DomainError):
        ball((0, 2, 1), del_exact(1))
    with pytest.raises(DomainError):
        apply_error((0, 2, 1), del_exact(1), seed=0)
    with pytest.raises(DomainError):
        vt_decode((0, 2, 0, 0, 1), VtParams(6, 0))
    with pytest.raises(DomainError):
        svt_decode((0, 2, 0, 0, 1), SvtParams(6, 3, 0, 0), 1)
    # bools and numpy ints pass, numpy arrays by value
    assert to_int((True, False, np.int64(1), np.uint8(1))) == 0b1101
    assert to_int(np.array([1, 0, 1, 1], dtype=np.int64)) == 0b1101
    assert member(spec, np.array(build(spec).words[0]))
    assert ball((True, False), del_exact(1)) == {(0,), (1,)}
    assert vt_decode(np.array([0, 1, 0, 0, 1]), VtParams(6, 0)).word == (0, 1, 0, 0, 1, 0)
    assert vt_decode([False, True, False, False, True], VtParams(6, 0)).word == (0, 1, 0, 0, 1, 0)


def test_one_entry_rule_for_every_word_taker():
    # _octets is the one check of a word's entries: to_int, member, ball and
    # codebook_from_words all refuse '1', 1.0 and 2, and all take bools and
    # numpy ints as the Python ints 0 and 1
    spec = CodeSpec(Family.BURST_EXACT, 12, 3, (1, 0, 0))
    x = build(spec).words[0]
    takers = {
        "to_int": to_int,
        "member": lambda w: member(spec, w),
        "ball": lambda w: ball(w, del_exact(3)),
        "codebook_from_words": lambda w: codebook_from_words([w], len(w)).words,
    }
    for name, take in takers.items():
        want = take(x)
        for bad in ("1", 1.0, 2):
            with pytest.raises(DomainError):
                take(x[:-1] + (bad,))
        for same in (tuple(map(bool, x)), tuple(map(np.int64, x)), tuple(map(np.uint8, x))):
            assert take(same) == want, name


def test_runs_basics():
    p = runs(parse_word("0000"))
    assert len(p) == 1
    assert p[0].start == 1 and p[0].length == 4 and p[0].value == 0

    p = runs(parse_word("0101"))
    assert len(p) == 4
    assert all(r.length == 1 for r in p)

    # a single 0 followed by a one-run of length 15
    p = runs(parse_word("0111111111111111"))
    assert len(p) == 2
    assert p[0] == runs(parse_word("0"))[0]
    assert p[1].start == 2 and p[1].length == 15 and p[1].value == 1


def test_run_count_matches_adjacent_differences():
    assert run_count(()) == len(runs(())) == 0
    for x in enumerate_words(9):
        assert run_count(x) == len(runs(x))
        assert sum(r.length for r in runs(x)) == 9
        assert 1 <= run_count(x) <= 9


def test_array_view_positions():
    # row r of the 2-row view collects positions r, r+2, r+4
    x = parse_word("010010")
    a = array_view(x, 2)
    assert a[0] == (x[0], x[2], x[4])
    assert a[1] == (x[1], x[3], x[5])
    assert a[1][2] == x[5]

    # b = 3: row r = (x_r, x_{r+3})
    a = array_view(x, 3)
    assert a == ((0, 0), (1, 1), (0, 0))

    assert array_view(x, 1) == (x,)
    with pytest.raises(DomainError):
        array_view(x, 4)


def test_flatten_inverts_array_view_exhaustively():
    for n in (1, 2, 3, 4, 6, 8, 12, 16):
        divisors = [b for b in range(1, n + 1) if n % b == 0]
        for x in enumerate_words(n):
            for b in divisors:
                assert flatten(array_view(x, b)) == x


def test_flatten_column_major():
    # 2x2 array with rows (a, c), (b, d) flattens to (a, b, c, d)
    assert flatten(((1, 0), (0, 1))) == (1, 0, 0, 1)
    assert flatten(((1, 0, 0),)) == (1, 0, 0)


def test_row_kernels_equal_the_rows_of_the_array_view():
    # row_int, row_weight_mod and row_weighted_sum_mod are Linear forms of
    # _enum.row; on ints and on uint64 arrays alike they read row r of
    # array_view: packed with column 1 at bit 0, its weight, its VT checksum
    rng = random.Random(7)
    for b in (1, 2, 3, 4):
        for n in range(b, 25, b):
            vs = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(30)]
            array = np.array(vs, dtype=np.uint64)
            for r in range(1, b + 1):
                rows = [array_view(from_int(v, n), b)[r - 1] for v in vs]
                for mod in (2, 3, n // b + 1):
                    cases = (
                        (_enum.row_int, (), [sum(bit << k for k, bit in enumerate(row)) for row in rows]),
                        (_enum.row_weight_mod, (mod,), [sum(row) % mod for row in rows]),
                        (_enum.row_weighted_sum_mod, (mod,),
                         [sum((k + 1) * bit for k, bit in enumerate(row)) % mod for row in rows]),
                    )
                    for kernel, args, want in cases:
                        assert [kernel(v, n, b, r, *args) for v in vs] == want, (kernel, n, b, r)
                        assert kernel(array, n, b, r, *args).tolist() == want, (kernel, n, b, r)


def test_enumeration_cap():
    with pytest.raises(DomainError):
        next(enumerate_words(31))
    assert len(list(enumerate_words(4))) == 16
    ws = list(enumerate_words(3))
    assert ws == sorted(ws)
