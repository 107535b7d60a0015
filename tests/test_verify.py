import itertools
import json
import math
import random

import numpy as np
import pytest

from burstcodes import balls, verify
from burstcodes.bitseq import enumerate_words, from_int, parse_word, to_int
from burstcodes.bounds import upper_bound
from burstcodes.cli import run as cli_run
from burstcodes.codes import CodeSpec, Family, build, codebook_from_ints, codebook_from_words
from burstcodes.errors import CodeIntegrityError, DecodeFailure, DomainError
from burstcodes.verify import (
    _FLAVORS,
    VerifyReport,
    _conflicts,
    apply_error,
    equivalence_check,
    greedy_code,
    oracle_decode,
    verify_code,
)


def test_verify_trivial_codebooks():
    good = codebook_from_words([parse_word("000000"), parse_word("111111")], 6)
    rep = verify_code(good, balls.del_exact(2))
    assert rep.passed and rep.pairs_checked == 1 and rep.violations == ()

    bad = codebook_from_words([parse_word("0000"), parse_word("0001")], 4)
    rep = verify_code(bad, balls.del_exact(1))
    assert not rep.passed
    assert any(z == parse_word("000") for _, _, z in rep.violations)
    j = rep.to_json()
    assert j["passed"] is False and j["violations"]


def test_equivalence_small():
    for flavor in ("exact", "at-most-consecutive", "at-most-nonconsecutive"):
        assert equivalence_check(6, 2, flavor)
    assert equivalence_check(7, 3, "at-most-consecutive")
    with pytest.raises(DomainError):
        equivalence_check(11, 2, "exact")
    with pytest.raises(DomainError):
        equivalence_check(6, 2, "bogus")


def _reference_conflict_pairs(n, model):
    """All unordered word pairs whose balls intersect, packed as v1*2^n + v2,
    from one Python set per word."""
    owners = {}
    for v in range(1 << n):
        for key in balls.ball_ints(v, n, model):
            owners.setdefault(key, []).append(v)
    pairs = set()
    for group in owners.values():
        for i, v1 in enumerate(group):
            for v2 in group[i + 1 :]:
                pairs.add((v1 << n) | v2)
    return pairs


def test_conflicts_match_reference_pairs():
    for flavor, models in _FLAVORS.items():
        for mk in models:
            for b in (1, 2, 3, 4):
                model = mk(b)
                for n in range(1, 9):
                    try:
                        want = _reference_conflict_pairs(n, model)
                    except DomainError:
                        with pytest.raises(DomainError):
                            _conflicts(n, model)
                        continue
                    got = {(int(v1) << n) | int(v2) for v1, v2 in zip(*np.nonzero(_conflicts(n, model)))}
                    assert got == want, (flavor, model, n)


def test_oracle_decode_behaviour():
    cb = codebook_from_words([parse_word("000000"), parse_word("111111")], 6)
    model = balls.del_exact(2)
    assert oracle_decode(cb, parse_word("0000"), model).word == parse_word("000000")
    assert oracle_decode(cb, parse_word("000000"), model).word == parse_word("000000")
    with pytest.raises(DecodeFailure):
        oracle_decode(cb, parse_word("110011"), model)  # length n but not a codeword
    with pytest.raises(DecodeFailure):
        oracle_decode(cb, parse_word("0110"), model)
    broken = codebook_from_words([parse_word("0000"), parse_word("0001")], 4)
    with pytest.raises(CodeIntegrityError):
        oracle_decode(broken, parse_word("000"), balls.del_exact(1))


def test_greedy_code_properties():
    g = greedy_code(4, balls.del_exact(1))
    assert g.cardinality >= 2
    assert g.words[0] == parse_word("0000")  # lexicographic start
    assert verify_code(g, balls.del_exact(1)).passed

    g = greedy_code(10, balls.del_exact(2))
    assert verify_code(g, balls.del_exact(2)).passed
    assert g.cardinality <= math.floor(upper_bound(10, 2))

    g = greedy_code(8, balls.del_exact(2))
    assert g.cardinality <= math.floor(upper_bound(8, 2)) == 24

    with pytest.raises(DomainError):
        greedy_code(17, balls.del_exact(1))


def test_greedy_code_other_models():
    for model in (balls.burst21(), balls.del_at_most(2), balls.del_at_most_noncons(3)):
        g = greedy_code(6, model)
        assert g.cardinality >= 1
        assert verify_code(g, model).passed


_ALL_MODELS = (
    balls.del_exact(2),
    balls.del_at_most(2),
    balls.del_at_most_noncons(3),
    balls.ins_exact(2),
    balls.ins_at_most(2),
    balls.ins_at_most_noncons(3),
    balls.burst21(),
)


def test_apply_error_deterministic_and_in_ball():
    x = parse_word("0110100101")
    for model in _ALL_MODELS:
        for seed in range(40):
            out1, ev1 = apply_error(x, model, seed)
            out2, ev2 = apply_error(x, model, seed)
            assert out1 == out2 and ev1 == ev2
            assert out1 in balls.ball(x, model), (model, seed)
            assert ev1.seed == seed and ev1.rng == "python-random-mt19937"


def test_apply_error_event_coverage():
    # with many seeds, a short word's whole exact-burst event space appears
    x = parse_word("010011")
    starts = {apply_error(x, balls.del_exact(2), seed)[1].start for seed in range(200)}
    assert starts == set(range(1, 6))
    out, ev = apply_error(parse_word("000000"), balls.del_exact(3), seed=5)
    assert out == parse_word("000")
    assert ev.deleted == tuple(range(ev.start, ev.start + 3))


def test_apply_error_exhaustive_membership_small():
    for model in _ALL_MODELS:
        for x in enumerate_words(5):
            out, ev = apply_error(x, model, seed=7)
            assert out in balls.ball(x, model)


def _patterns(n, model):
    """The (deleted, inserted, bits) pattern of every event apply_error draws from."""
    return [(e.deleted, e.inserted, tuple(e.bits >> (p - 1) & 1 for p in e.inserted))
            for e in balls._events(n, model)]


def _independent_patterns(n, model):
    """Every pattern of the model: position sets of a <= b positions spanning
    at most b (windowed) or exactly a (consecutive) positions, deleted from
    the input or inserted, with every choice of bits, into the output."""
    kind, b = model.kind.value, model.b
    if model.kind is balls.ErrorKind.BURST_2_1:
        return {((i, i + 1), (i,), (v,)) for i in range(1, n) for v in (0, 1)}
    dels = kind.startswith("del-")
    return {
        (ps, (), ()) if dels else ((), ps, bits)
        for a in ([b] if kind.endswith("-exact") else range(1, b + 1))
        for ps in itertools.combinations(range(1, n + 1 + (0 if dels else a)), a)
        if ps[-1] - ps[0] < (b if kind.endswith("-nonconsecutive") else a)
        for bits in itertools.product((0, 1), repeat=0 if dels else a)
    }


def test_sampler_draws_over_distinct_patterns():
    assert len(_patterns(8, balls.del_at_most_noncons(3))) == 27
    for kind in balls.ErrorKind:
        for b in range(1, 5):
            model = balls.ErrorModel(kind, b)
            for n in range(model.b + 1, 11):
                patterns = _patterns(n, model)
                assert len(patterns) == len(set(patterns)), (model, n)
                assert set(patterns) == _independent_patterns(n, model), (model, n)


# apply_error outputs (x, seed) -> corrupted word, recorded before the sampler
# drew from balls._events; on these models the event list kept its order.
_SAMPLER_PINS = {
    balls.del_exact(2): ["01101001", "01101101", "00100101", "1110001000", "1110011000",
                         "1110001110", "000000", "000001", "000001"],
    balls.del_at_most(3): ["01100101", "10100101", "0100101", "100111000", "1110001100",
                           "11100011000", "000001", "000001", "00000"],
    balls.ins_exact(2): ["011010000101", "011010000101", "011010010100", "11100000111000",
                         "11100000111000", "11100011100000", "0000000001", "0000000001",
                         "0110000001"],
    balls.ins_at_most(3): ["0110000100101", "0100010100101", "010110100101", "111001000111000",
                           "100111000111000", "111000111010100", "00000011001", "0000011001",
                           "00001100001"],
    balls.burst21(): ["011010001", "011010101", "010100101", "11100001000", "11100011000",
                      "11100011100", "0000001", "0010001", "0000001"],
}


def test_sampler_keeps_its_draws_on_consecutive_models():
    for model, outputs in _SAMPLER_PINS.items():
        cases = [(x, seed) for x in ("0110100101", "111000111000", "00000001") for seed in (0, 7, 42)]
        for (x, seed), want in zip(cases, outputs):
            assert apply_error(parse_word(x), model, seed)[0] == parse_word(want), (model, x, seed)


@pytest.mark.parametrize("n", [8, 100])
def test_channel_event_replays_the_output(n):
    rng = random.Random(n)
    models = _ALL_MODELS + (balls.del_exact(1), balls.ins_at_most_noncons(4))
    for model in models:
        for seed in range(25):
            x = tuple(rng.randrange(2) for _ in range(n))
            y, event = apply_error(x, model, seed)
            kept = iter(b for i, b in enumerate(x, start=1) if i not in event.deleted)
            fill = dict(zip(event.inserted, event.inserted_bits))
            length = n - len(event.deleted) + len(fill)
            assert tuple(fill[p] if p in fill else next(kept) for p in range(1, length + 1)) == y
            assert next(kept, None) is None
            assert event.start == min(event.deleted + event.inserted) >= 1
            assert all(1 <= p <= n for p in event.deleted)
            assert all(1 <= p <= length for p in event.inserted)
            record = event.to_json()
            assert record["deleted_positions"] == list(event.deleted)
            assert record["inserted_positions"] == list(event.inserted)
            assert "inserted_at" not in record


def test_channel_then_oracle_recovers_codeword():
    from burstcodes.codes import Family, best_params, build, decode

    spec = best_params(Family.BURST_EXACT, 8, 2)
    cb = build(spec)
    model = balls.del_exact(2)
    for x in cb.words:
        for seed in range(25):
            y, _ = apply_error(x, model, seed)
            assert oracle_decode(cb, y, model).word == x
            assert decode(spec, y).word == x


def _reference_verify_code(cb, model):
    """verify_code as a per-word loop over scalar balls: each ball element is
    owned by the first codeword whose ball holds it."""
    owners = {}
    violations = []
    for idx, w in enumerate(cb.words):
        for key in sorted(balls.ball_ints(to_int(w), cb.n, model)):
            prev = owners.setdefault(key, idx)
            if prev != idx:
                violations.append((cb.words[prev], w, from_int(key[1], key[0])))
    k = len(cb.words)
    return VerifyReport(model, cb.label, k * (k - 1) // 2, tuple(violations))


def _reference_greedy_code(n, model):
    used = set()
    chosen = []
    for w in itertools.product((0, 1), repeat=n):
        ball = balls.ball_ints(to_int(w), n, model)
        if used.isdisjoint(ball):
            used |= ball
            chosen.append(w)
    return codebook_from_words(chosen, n)


def _models_b1_to_3():
    return [balls.burst21()] + [
        balls.ErrorModel(kind, b)
        for kind in balls.ErrorKind
        if kind is not balls.ErrorKind.BURST_2_1
        for b in (1, 2, 3)
    ]


def test_verify_code_matches_reference_on_bad_codebooks():
    bad = codebook_from_words(list(enumerate_words(10))[::7], 10)
    for model in _models_b1_to_3():
        rep = verify_code(bad, model)
        assert not rep.passed, model
        assert rep == _reference_verify_code(bad, model), model


def test_blocked_verify_code_matches_reference(monkeypatch):
    # blocks of a few codewords, so that the owners of a shared key and the
    # violations they give fall in different blocks
    words = list(enumerate_words(10))[::7]
    bad = codebook_from_words(words, 10)
    index = {w: i for i, w in enumerate(words)}
    crossed = 0
    for model in _models_b1_to_3():
        want = _reference_verify_code(bad, model)
        events = len(balls._events(10, model))
        for rows in (3, 10):
            monkeypatch.setattr(verify, "BLOCK_KEYS", rows * events)
            assert verify_code(bad, model) == want, (model, rows)
            crossed += sum(index[x] // rows != index[y] // rows for x, y, _ in want.violations)
    assert crossed


def test_verify_code_of_cheng1_n24_stays_under_150_mb(peak_rss_mb):
    # 671,092 codewords whose del-exact(1) balls hold 2^23 distinct keys, 32 MB as uint32
    peak = peak_rss_mb(
        "from burstcodes import balls, codes, verify\n"
        "cb = codes.build(codes.CodeSpec(codes.Family.CHENG1, 24, 1, ()))\n"
        "assert cb.cardinality == 671092\n"
        "assert verify.verify_code(cb, balls.del_exact(1)).passed\n"
    )
    assert peak < 150, peak


def test_verify_code_reads_the_rows_however_the_codebook_was_made():
    words = list(enumerate_words(10))[::7]
    bad = codebook_from_words(words, 10)
    shuffled = words + words[::3]
    random.Random(7).shuffle(shuffled)
    same = (codebook_from_words(shuffled, 10), codebook_from_ints([to_int(w) for w in shuffled], 10))
    for model in (balls.del_exact(2), balls.ins_at_most_noncons(3), balls.burst21()):
        want = _reference_verify_code(bad, model)
        assert want.violations
        assert all(verify_code(cb, model) == want for cb in same), model
    assert all("words" not in vars(cb) for cb in same)


def test_verify_json_output_matches_reference(capsys):
    argv = ["verify", "--family", "burst-exact", "--n", "12", "--b", "2", "--params", "1,0,0",
            "--model", "del-at-most-nonconsecutive", "--format", "json"]
    assert cli_run(argv) == 1
    cb = build(CodeSpec(Family.BURST_EXACT, 12, 2, (1, 0, 0)))
    ref = _reference_verify_code(cb, balls.del_at_most_noncons(2))
    assert ref.violations
    assert capsys.readouterr().out == json.dumps(ref.to_json()) + "\n"


def test_verify_code_rejects_words_past_the_key_limit():
    # ins-exact(2) turns 62-bit words into 64-bit elements, past 63-bit keys
    cb = codebook_from_words([(0,) * 62, (1,) * 62], 62)
    with pytest.raises(DomainError):
        verify_code(cb, balls.ins_exact(2))
    assert verify_code(codebook_from_words([(0,) * 61, (1,) * 61], 61), balls.ins_exact(2)).passed
    # deletion balls of 65-bit words would fit, but the words do not
    with pytest.raises(DomainError):
        verify_code(codebook_from_words([(0,) * 65], 65), balls.del_exact(2))


def test_greedy_code_matches_reference():
    for model in _ALL_MODELS:
        for n in range(1, 11):
            try:
                want = _reference_greedy_code(n, model)
            except DomainError:
                with pytest.raises(DomainError):
                    greedy_code(n, model)
                continue
            assert greedy_code(n, model) == want, (model, n)
