import math
import random

import numpy as np
import pytest

from burstcodes import _enum, balls, codes, verify
from burstcodes.balls import (
    KEY_MAX_BITS,
    ErrorKind,
    ErrorModel,
    ball,
    ball_ints,
    ball_keys,
    ball_size_distribution,
    ball_size_formula,
    ball_size_tally,
    burst21,
    del_at_most,
    del_at_most_noncons,
    del_exact,
    in_ball,
    ins_at_most,
    ins_at_most_noncons,
    ins_exact,
    restricted_burst21_ball,
    words_with_runs,
)
from burstcodes.bitseq import enumerate_words, format_word, parse_word, to_int
from burstcodes.errors import DomainError


def _strs(ws):
    return sorted(format_word(w) for w in ws)


def test_burst21_worked_example():
    x = parse_word("010010")
    assert _strs(ball(x, burst21())) == _strs(
        map(parse_word, ["00010", "10010", "01010", "01110", "01000", "01001"])
    )


def test_constant_word_balls():
    x = parse_word("000000")
    assert ball(x, del_exact(2)) == {parse_word("0000")}
    assert ball(x, del_at_most(2)) == {parse_word("00000"), parse_word("0000")}


def test_del_exact_matches_formula_small():
    # b | n or not
    for n, b in ((6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 3), (7, 2), (8, 3), (10, 4), (11, 3)):
        for x in enumerate_words(n):
            assert len(ball(x, del_exact(b))) == ball_size_formula(x, b)


def test_ball_size_formula_bounds_and_edges():
    for x in enumerate_words(8):
        assert 1 <= ball_size_formula(x, 2) <= 7  # n - b + 1
    assert ball_size_formula(parse_word("00000000"), 2) == 1
    assert ball_size_formula(parse_word("0101"), 1) == 4  # alternating, b=1: r(x) = n
    # b need not divide n: both 2-bursts of 010 leave 0
    assert ball_size_formula(parse_word("010"), 2) == 1 == len(ball(parse_word("010"), del_exact(2)))
    for word, b in (("01", 2), ("0", 1), ("011", 4)):
        with pytest.raises(DomainError):
            ball_size_formula(parse_word(word), b)


def test_length_preconditions():
    with pytest.raises(DomainError):
        ball(parse_word("01"), del_exact(2))
    with pytest.raises(DomainError):
        ball(parse_word("01"), burst21())
    with pytest.raises(DomainError):
        ball(parse_word("011"), del_at_most_noncons(3))


def test_noncons_ball_supersets():
    # at-most-consecutive is a union of exact balls; non-consecutive contains it
    for x in enumerate_words(8):
        exact = ball(x, del_exact(3))
        atmost = ball(x, del_at_most(3))
        noncons = ball(x, del_at_most_noncons(3))
        assert exact <= atmost <= noncons
        assert ball(x, del_exact(1)) <= ball(x, burst21())


def test_insertion_balls_mirror_deletion_balls():
    # y is an insertion outcome of x iff x is the matching deletion outcome of y
    for n, b in ((5, 2), (6, 3)):
        pairs = (
            (ins_exact(b), del_exact(b), (b,)),
            (ins_at_most(b), del_at_most(b), tuple(range(1, b + 1))),
            (ins_at_most_noncons(b), del_at_most_noncons(b), tuple(range(1, b + 1))),
        )
        for ins_model, del_model, sizes in pairs:
            expected: dict[int, set] = {v: set() for v in range(1 << n)}
            for a in sizes:
                for y in enumerate_words(n + a):
                    for m, v in ball_ints(to_int(y), n + a, del_model):
                        if m == n:
                            expected[v].add(y)
            for x in enumerate_words(n):
                assert ball(x, ins_model) == expected[to_int(x)]


def test_monotonicity_under_deletion():
    # any burst deletion can only shrink the exact-burst ball size
    for n, b in ((8, 2), (12, 2), (12, 3), (12, 4)):
        for y in enumerate_words(n):
            size_y = ball_size_formula(y, b)
            for x in ball(y, del_exact(b)):
                assert size_y >= ball_size_formula(x, b)


def test_row_decomposition_of_burst_outputs():
    # each row of the array view of a burst output is one deletion of the
    # corresponding input row
    from burstcodes.bitseq import array_view

    for n, b in ((8, 2), (12, 3), (12, 4)):
        for x in enumerate_words(n):
            rows_x = array_view(x, b)
            for y in ball(x, del_exact(b)):
                rows_y = array_view(y, b)
                for rx, ry in zip(rows_x, rows_y):
                    assert ry in ball(rx, del_exact(1))


def test_claim1_restricted_burst21_containment():
    for n in range(3, 11):
        for x in enumerate_words(n):
            d1 = ball(x, del_exact(1))
            for b1 in (0, 1):
                for b2 in (0, 1):
                    for a in (0, 1):
                        if (a, b1, b2) in ((1, 0, 0), (0, 1, 1)):
                            continue
                        assert restricted_burst21_ball(x, (b1, b2), a) <= d1


def test_words_with_runs_counts():
    for n in range(1, 13):
        tally = {}
        for x in enumerate_words(n):
            from burstcodes.bitseq import run_count

            r = run_count(x)
            tally[r] = tally.get(r, 0) + 1
        for r in range(1, n + 1):
            assert tally.get(r, 0) == words_with_runs(n, r) == 2 * math.comb(n - 1, r - 1)
    assert words_with_runs(5, 0) == 0


def test_distribution_formula_matches_tally():
    dist = ball_size_distribution(8, 2)
    assert dist[1] == 4  # both rows constant: 2 x 2 choices
    assert sum(dist.values()) == 256
    # every length n <= 14 past b, whether or not b divides n
    for b in (1, 2, 3, 4):
        for n in range(b + 1, 15):
            dist = ball_size_distribution(n, b)
            assert dist == ball_size_tally(n, b), (n, b)
            assert sum(dist.values()) == 1 << n
    with pytest.raises(DomainError):
        ball_size_distribution(3, 3)


@pytest.mark.parametrize("block", [None, 13 * 3, 5])
def test_blocks_cover_every_word_once_in_order(monkeypatch, block):
    # del-exact(3) at n = 15 has 13 events: 3 words a slice at BLOCK = 39, 1 at 5
    n, model = 15, del_exact(3)
    assert len(balls._events(n, model)) == 13
    if block:
        monkeypatch.setattr(_enum, "BLOCK", block)
    rows = {None: _enum.BLOCK // 13, 39: 3, 5: 1}[block]
    for count in (0, 1, rows - 1, rows, rows + 1):
        slices = balls.blocks(count, n, model)
        assert [i for s in slices for i in range(s.start, s.stop)] == list(range(count)), count
        assert len(slices) == max(1, -(-count // rows))
        assert all(s.stop - s.start <= rows for s in slices)
    assert balls.blocks(0, n, model) == [slice(0, 0)]
    with pytest.raises(DomainError, match="too short"):
        balls.blocks(0, 3, model)  # no words, but n and model are still checked


@pytest.mark.parametrize("block", [13 * 3, 5])
def test_tally_in_small_blocks_matches_the_formula(monkeypatch, block):
    monkeypatch.setattr(_enum, "BLOCK", block)
    for b in (1, 2, 3):
        for n in range(b + 1, 13):
            assert ball_size_tally(n, b) == ball_size_distribution(n, b), (n, b)


def _models(b):
    return [ErrorModel(kind, b) for kind in ErrorKind if kind is not ErrorKind.BURST_2_1 or b == 2]


def test_longest_element_follows_from_the_sizes():
    # key_dtype and greedy_code read ErrorModel.longest, not the table:
    # n less the fewest bits an event takes off is the longest event output
    checked = 0
    for b in (1, 2, 3, 4):
        for model in _models(b):
            for n in range(17):
                try:
                    events = balls._events(n, model)
                except DomainError:
                    continue
                assert model.longest(n) == max(ev.length for ev in events), (model, n)
                checked += 1
    assert checked == 380  # 425 (model, n) pairs less 45 with n too short


def test_ball_keys_equal_ball_ints_exhaustively():
    # the batch applier and the scalar one read the same event table; their
    # balls agree as sets on every word, for every model, n <= 10, b <= 4
    checked = 0
    for b in (1, 2, 3, 4):
        for model in _models(b):
            for n in range(1, 11):
                try:
                    rows = ball_keys(np.arange(1 << n, dtype=np.uint64), n, model)
                except DomainError:
                    with pytest.raises(DomainError):
                        ball_ints(0, n, model)
                    continue
                for v, row in enumerate(rows.tolist()):
                    want = {(1 << m) | y for m, y in ball_ints(v, n, model)}
                    assert set(row) == want, (model, n, v)
                checked += 1
    assert checked == 218  # 250 (model, n) pairs less 32 with n too short


def _listed(keys, fresh):
    return np.compress(fresh.ravel(), keys.ravel()).tolist()


def test_distinct_keys_list_each_ball_once():
    # every word at n <= 10 on its own, every model at b <= 3: the listing
    # holds each element of ball_ints once and nothing else
    checked = 0
    for b in (1, 2, 3):
        for model in _models(b):
            for n in range(model.shortest, 11):
                for v in range(1 << n):
                    listed = _listed(*balls.distinct_keys([v], n, model))
                    assert sorted(listed) == sorted((1 << m) | y for m, y in ball_ints(v, n, model)), (model, v)
                checked += 1
    assert checked == 179  # n from 0 for insertions, from b + 1 for deletions


def _neighbour_sizes(n, model):
    """The size of each word's ball if its keys were kept where they differ
    from the previous event's: the rule of distinct_keys for sliding models."""
    keys = balls._event_keys(np.arange(1 << n), n, model)
    return 1 + np.count_nonzero(keys[1:] != keys[:-1], axis=0)


def test_sliding_is_exactly_the_models_whose_repeats_are_neighbours():
    sliding = {ErrorKind.DEL_EXACT, ErrorKind.DEL_AT_MOST_CONSECUTIVE}
    for b in (1, 2, 3, 4):
        assert {kind for kind in ErrorKind if ErrorModel(kind, b).sliding} == sliding
    # the neighbour rule gives the true ball sizes for every word at n <= 12,
    # b <= 4, of the two sliding kinds, and for each other kind misses on some
    # word (insertion-exact, burst-2-1 and the windowed models at n <= 6)
    for kind in ErrorKind:
        missed = False
        for b in (1, 2, 3, 4):
            model = ErrorModel(kind, b)
            for n in range(model.shortest, 13 if kind in sliding else 7):
                sizes = np.count_nonzero(balls.sorted_ball_keys(np.arange(1 << n), n, model)[1], axis=1)
                agree = np.array_equal(_neighbour_sizes(n, model), sizes)
                assert agree or kind not in sliding, (model, n)
                missed |= not agree
        assert missed is (kind not in sliding), kind


def test_in_ball_agrees_with_ball_ints():
    # the predicate against the set it stands for, every model at b <= 4, on
    # every word at n <= 6 and 8 seeded words at n = 12, against the words of
    # each length m the ball reaches: all of them where n + m <= 13 (2^13
    # pairs of words), else the ball's own words and 32 seeded others
    rng = random.Random(12)
    for b in (1, 2, 3, 4):
        for model in _models(b):
            for n in (*range(1, 7), 12):
                try:
                    lengths = {ev.length for ev in balls._events(n, model)}
                except DomainError:
                    continue
                for v in range(1 << n) if n <= 6 else rng.sample(range(1 << n), 8):
                    ball = ball_ints(v, n, model)
                    for m in sorted(lengths):
                        want = {u for k, u in ball if k == m}
                        us = range(1 << m) if n + m <= 13 else {*want, *rng.sample(range(1 << m), 32)}
                        assert {u for u in us if in_ball((m, u), v, n, model)} == want, (model, v, m)
                    assert not in_ball((max(lengths) + 1, 0), v, n, model)


_ONE_WINDOW = (del_exact, del_at_most, ins_exact, ins_at_most)


def test_in_ball_past_64_bits_agrees_with_ball_ints():
    # the closed form on Python ints of 65 to 128 bits, for every model of one
    # window: every element of the ball is in it, and so is a word one bit
    # away from an element exactly when the ball holds that word
    rng = random.Random(65)
    for n in (65, 100, 128):
        for model in [make(b) for make in _ONE_WINDOW for b in (1, 2, 3, 4)] + [burst21()]:
            for v in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(3))):
                ball = ball_ints(v, n, model)
                for m, u in ball:
                    assert in_ball((m, u), v, n, model), (model, n, v, m, u)
                    near = u ^ (1 << rng.randrange(m))
                    assert in_ball((m, near), v, n, model) == ((m, near) in ball), (model, n, v, m, near)
                for m in {k for k, _ in ball}:
                    u = rng.getrandbits(m)
                    assert in_ball((m, u), v, n, model) == ((m, u) in ball), (model, n, v, m, u)
                assert not in_ball((n, v), v, n, model)


@pytest.mark.parametrize("model", [*(make(2) for make in _ONE_WINDOW), burst21(),
                                   del_at_most_noncons(3), ins_at_most_noncons(3)], ids=str)
def test_in_ball_refuses_values_outside_their_lengths(model):
    # a word or element value outside [0, 2^length) is refused, never read by
    # its low bits only; the bounds themselves pass
    (d, i), n = next(model.each_size()), 8
    m = n - d + i
    for v, u in (((1 << n), 0), (-1, 0), (0, 1 << m), (0, -1), (1 << 70, 0), (0, 1 << 70)):
        with pytest.raises(DomainError):
            in_ball((m, u), v, n, model)
    for element, v in (((-1, 0), 0), ((m, 1.5), 0), ((m, 0), 3.0), ((float(m), 0), 0)):
        with pytest.raises(DomainError):
            in_ball(element, v, n, model)
    for v, u in ((0, 0), ((1 << n) - 1, (1 << m) - 1)):
        assert in_ball((m, u), v, n, model)


def _fresh_by_rows(keys):
    """sorted_ball_keys' mask as it was before it compared the flat array:
    each row against itself shifted by one key."""
    fresh = np.empty(keys.shape, dtype=bool)
    fresh[:, :1] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=fresh[:, 1:])
    return fresh


def test_sorted_ball_keys_mask_equals_the_row_compare(monkeypatch):
    rng = random.Random(5)
    for n, model in ((12, del_exact(3)), (9, ins_at_most_noncons(3)), (6, burst21())):
        vs = [rng.getrandbits(n) for _ in range(40)] + [0, (1 << n) - 1, 0]
        for words in (vs, []):
            keys, fresh = balls.sorted_ball_keys(words, n, model)
            assert keys.shape == (len(words), len(balls._events(n, model)))
            assert (fresh == _fresh_by_rows(keys)).all()
    # no model has one event per word: cut every row to its first key, where
    # every key is fresh though it repeats the previous row's
    real = balls.ball_keys
    monkeypatch.setattr(balls, "ball_keys", lambda vs, n, model: real(vs, n, model)[:, :1].copy())
    for words in ([0, 0, 5, 5, 7], []):
        keys, fresh = balls.sorted_ball_keys(words, 4, del_exact(1))
        assert keys.shape == (len(words), 1) and fresh.all()
        assert (fresh == _fresh_by_rows(keys)).all()


@pytest.mark.parametrize("vs", [[16], np.array([16]), [-1], np.array([-1]), [3, 1 << 64], [3.5],
                                np.array([3.5]), ["1"], np.array([True])])
def test_ball_keys_refuse_values_outside_the_length(vs):
    # as codebook_from_ints: never the keys of a value's low n bits, nor of a
    # truncated float
    for keys in (ball_keys, balls.sorted_ball_keys):
        with pytest.raises(DomainError, match=r"\[0, 2\^4\)"):
            keys(vs, 4, del_exact(1))
    # the bounds themselves pass, in a list or an array of any integer dtype
    for ok in ([0, 15], np.array([0, 15], dtype=np.int8), np.array([0, 15], dtype=np.uint64)):
        assert ball_keys(ok, 4, del_exact(1)).tolist() == [[8, 8, 8, 8], [15, 15, 15, 15]]


def test_ball_ints_refuses_words_outside_the_length():
    for v in (16, -1, 1 << 70):
        with pytest.raises(DomainError, match=r"\[0, 2\^4\)"):
            ball_ints(v, 4, del_exact(1))
    assert ball_ints(15, 4, del_exact(1)) == {(3, 7)}
    for v, n in ((3.0, 4), (3, 4.0), (np.float64(3), 4)):
        with pytest.raises(DomainError, match="must be an integer"):
            ball_ints(v, n, del_exact(1))
    assert ball_ints(np.uint64(15), np.int8(4), del_exact(1)) == {(3, 7)}


def test_key_word_refuses_values_that_are_not_keys():
    # a key is (1 << length) | value: 0 has no length, and a negative or
    # non-integer value is no key
    for bad in (0, -1, -5, 2.0, 1 << 64):
        with pytest.raises(DomainError):
            balls.key_word(bad)
    assert balls.key_word(1) == () and balls.key_word(0b1011) == (1, 1, 0)


def test_model_constructors_build_each_model_once():
    # decoders ask for their model per word, and get the same object; an
    # argument that is not an integer still raises DomainError
    assert del_exact(3) is del_exact(3) is balls.parse_model("del-exact", 3)
    assert burst21() is balls.parse_model("burst-2-1", 1)
    assert del_exact(np.int64(2)) is del_exact(2)
    for bad in (2.0, "2", None, [2]):
        for make in (*_ONE_WINDOW, del_at_most_noncons, ins_at_most_noncons):
            with pytest.raises(DomainError):
                make(bad)


def test_ball_keys_columns_follow_the_event_table():
    # column j of every row is event j of balls._events applied to the word,
    # segment by segment, in one C-contiguous (words, events) array of
    # key_dtype: every word at n <= 8 and 5 seeded words at n = 9
    rng = random.Random(9)
    for b in (1, 2, 3):
        for model in _models(b):
            for n in range(model.shortest, 10):
                events = balls._events(n, model)
                words = range(1 << n) if n <= 8 else [rng.getrandbits(n) for _ in range(5)]
                keys = ball_keys(words, n, model)
                assert keys.flags.c_contiguous and keys.shape == (len(words), len(events))
                assert keys.dtype == balls.key_dtype(n, model)
                want = [[(1 << ev.length) | ev.bits | sum(((v >> src) & mask) << dst
                                                          for src, mask, dst in ev.segs)
                         for ev in events] for v in words]
                assert keys.tolist() == want, (model, n)
    # the one event with no copy segment: a bit inserted into the empty word
    assert ball_keys([0], 0, ins_exact(1)).tolist() == [[0b10, 0b11]]


def test_ball_keys_at_the_key_limit():
    # deletion words fill a uint64; insertion balls reach KEY_MAX_BITS = 63
    # bits; one more input bit raises DomainError instead of wrapping
    rng = random.Random(63)
    for b in (1, 2, 3):
        for model in _models(b):
            n = KEY_MAX_BITS - b if model.kind.value.startswith("ins-") else KEY_MAX_BITS + 1
            words = [rng.getrandbits(n) for _ in range(8)] + [(1 << n) - 1]
            for v, row in zip(words, ball_keys(words, n, model).tolist()):
                assert set(row) == {(1 << m) | y for m, y in ball_ints(v, n, model)}, (model, v)
            with pytest.raises(DomainError):
                ball_keys([0], n + 1, model)


def test_ball_keys_at_the_uint32_boundary():
    # keys are uint32 up to 31-bit elements of words of at most 32 bits, and
    # uint64 one bit past either; both sides give the scalar balls, and
    # verify_code finds the reference's violations in the same order
    from test_verify import _reference_verify_code

    rng = random.Random(32)
    for b in (1, 2, 3):
        for model in _models(b):
            grow = max(ev.length for ev in balls._events(b + 2, model)) - (b + 2)
            for n in sorted({30 - grow, 31 - grow, 32 - grow, 32, 33}):
                longest = n + grow
                words = [rng.getrandbits(n) for _ in range(8)] + [(1 << n) - 1]
                keys = ball_keys(words, n, model)
                narrow = n <= 32 and longest <= 31
                assert keys.dtype == (np.uint32 if narrow else np.uint64), (model, n)
                for v, row in zip(words, keys.tolist()):
                    assert set(row) == {(1 << m) | y for m, y in ball_ints(v, n, model)}, (model, v)
                # each word beside its copy with bit 1 flipped: their balls meet
                cb = codes.codebook_from_ints(words + [v ^ 1 for v in words], n)
                want = _reference_verify_code(cb, model)
                assert want.violations and verify.verify_code(cb, model) == want, (model, n)


@pytest.mark.parametrize("kind", list(ErrorKind))
def test_event_count_is_exact_and_bounds_every_table(monkeypatch, kind):
    # the count made before enumerating equals the table built, forward and
    # inverse: a limit one below it raises, a limit equal to it builds
    for b in (1, 2, 3, 4, 5):
        model = ErrorModel(kind, b)
        # insertions take any n, so windows may be cut short at both ends
        for n in range(1 if kind.value.startswith("ins-") else model.b + 1, 11):
            for m in (None, *range(n - b - 1, n + b + 2)):
                monkeypatch.setattr(balls, "EVENTS_MAX", math.inf)
                size = len(balls._table(n if m is None else m, balls._placements(n, model, m)))
                monkeypatch.setattr(balls, "EVENTS_MAX", size - 1)
                with pytest.raises(DomainError, match="events; tables stop at"):
                    balls._placements(n, model, m)
                monkeypatch.setattr(balls, "EVENTS_MAX", size)
                balls._placements(n, model, m)


def test_oversized_event_tables_raise_before_enumerating():
    # each would enumerate about 2^40 window sets or inserted-bit choices
    for n, model in ((4, ins_exact(18)), (10, ins_exact(40)), (60, del_at_most_noncons(40))):
        with pytest.raises(DomainError, match=f"tables stop at {balls.EVENTS_MAX}"):
            balls._events(n, model)
    # 31 placements of a 30-burst: 31 events forward, 31 * 2^30 to undo them
    assert len(balls._events(60, del_exact(30))) == 31
    with pytest.raises(DomainError, match="tables stop at"):
        balls._inverse(60, del_exact(30), 30)
