import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from burstcodes import _enum, balls, codes, verify
from burstcodes.bitseq import array_view, enumerate_words, format_word, from_int, parse_word, to_int
from burstcodes.bounds import reference_redundancies
from burstcodes.cli import main
from burstcodes.codes import (
    BUILD_MAX_N,
    CodeSpec,
    Family,
    best_params,
    build,
    codebook_from_ints,
    codebook_from_words,
    decode,
    member,
    param_fields,
    param_ranges,
    parse_family,
    read_codebook,
    target_model,
    write_codebook,
)
from burstcodes.errors import DecodeFailure, DomainError
from burstcodes.rll import (
    RllSpec,
    UrllSpec,
    _urll_table,
    ceil_log2,
    max_run,
    rll_count,
    urll_cap,
    urll_count,
    urll_member,
)
from burstcodes.vt import (
    DecodeResult,
    SvtParams,
    VtParams,
    _svt_table,
    _vt_table,
    checksum,
    svt_class_sizes,
    vt_class_sizes,
)


def _delete(x, positions):
    drop = set(positions)
    return tuple(b for i, b in enumerate(x, start=1) if i not in drop)


def _window_patterns(n, b, a):
    for first in range(1, n + 1):
        for tail in itertools.combinations(range(first + 1, min(first + b, n + 1)), a - 1):
            yield (first, *tail)


def test_parse_family_and_structure():
    assert parse_family("burst-exact") is Family.BURST_EXACT
    with pytest.raises(DomainError):
        parse_family("nope")
    with pytest.raises(DomainError):
        CodeSpec(Family.BURST_EXACT, 9, 2, (0, 0, 0))  # 2 does not divide 9
    with pytest.raises(DomainError):
        CodeSpec(Family.NONCONS3, 12, 2, ())  # b fixed at 3
    with pytest.raises(DomainError):
        CodeSpec(Family.AT_MOST_CONSECUTIVE, 12, 4, tuple([0] * 10))  # 24 | 12 fails
    with pytest.raises(DomainError):
        CodeSpec(Family.BURST_EXACT, 8, 2, (9, 0, 0))  # residue out of range


_FIXED_B = {Family.CL2: 2, Family.C21: 2, Family.NONCONS3: 3, Family.NONCONS4: 4}


def _reference_domain(family, n, b):
    """An oracle for the domain, independent of the registry: one
    hand-written check per family."""
    if n < 1:
        raise DomainError("code length must be >= 1")
    fixed = _FIXED_B.get(family)
    if fixed is not None and b != fixed:
        raise DomainError(f"{family.value} has burst parameter fixed at {fixed}")
    if family in (Family.CHENG1, Family.BURST_EXACT):
        if b < (2 if family is Family.BURST_EXACT else 1):
            raise DomainError(f"{family.value} needs a larger burst parameter")
        if n % b != 0 or n // b < 2:
            raise DomainError(f"{family.value} needs b | n and n/b >= 2")
    elif family is Family.CL2:
        if n % 2 != 0 or n < 4:
            raise DomainError("cl2 needs an even length >= 4")
    elif family is Family.AT_MOST_CONSECUTIVE:
        if b < 3:
            raise DomainError("at-most-consecutive is defined for b >= 3 (use cl2 for b = 2)")
        if n % math.factorial(b) != 0:
            raise DomainError(f"at-most-consecutive needs b! = {math.factorial(b)} to divide n")
    elif family is Family.C21:
        if n < 4:
            raise DomainError("c21 needs length >= 4")
    elif family in (Family.NONCONS3, Family.NONCONS4):
        if n % math.factorial(b) != 0:
            raise DomainError(f"{family.value} needs b! = {math.factorial(b)} to divide n")
        if n // 2 < 4 or (family is Family.NONCONS4 and n // 3 < 4):
            raise DomainError(f"{family.value} needs longer words at this b")


def _rejection(check, family, n, b):
    try:
        check(family, n, b)
    except DomainError as exc:
        return str(exc)
    return None


def test_registry_domain_matches_reference():
    assert set(codes._FAMILIES) == set(Family)
    grid = [(f, n, b) for f in Family for n in range(-1, 61) for b in range(-1, 7)]
    assert len(grid) == 3472
    accepted = [c for c in grid if _rejection(_reference_domain, *c) is None]
    assert len(accepted) == 332
    messages = {c: _rejection(codes._validate_structure, *c) for c in grid}
    assert [c for c in grid if messages[c] is None] == accepted
    assert all(c[0].value in m for c, m in messages.items() if m is not None)
    for family in Family:
        assert codes.default_burst(family) == _FIXED_B.get(family)


def test_param_fields_and_ranges_agree():
    cases = (
        (Family.CHENG1, 8, 2),
        (Family.BURST_EXACT, 12, 3),
        (Family.CL2, 8, 2),
        (Family.AT_MOST_CONSECUTIVE, 12, 3),
        (Family.C21, 8, 2),
        (Family.NONCONS3, 12, 3),
        (Family.NONCONS4, 24, 4),
    )
    for family, n, b in cases:
        assert len(param_fields(family, b)) == len(param_ranges(family, n, b))


def test_burst_rule_takes_b_up_to_128():
    # 64 b^2 <= 2^20 at the least n of any domain, n = 2b: b = 128 is the
    # largest burst size, and its fields are a_vt and three keys per level 2..b
    fields = param_fields(Family.AT_MOST_CONSECUTIVE, 128)
    assert len(fields) == 1 + 3 * 127 and fields[-3:] == ("a128", "c128", "d128")


def test_cheng1_membership_and_size():
    spec = CodeSpec(Family.CHENG1, 8, 2)
    cb = build(spec)
    assert cb.cardinality == 16  # 4 choices per row, independent rows
    assert cb.redundancy == 4.0
    for w in cb.words:
        assert member(spec, w)


def test_burst_exact_run_cap_excludes_constant_word():
    x = parse_word("00000000")
    for a in range(5):
        for c in range(4):
            for d in (0, 1):
                assert not member(CodeSpec(Family.BURST_EXACT, 8, 2, (a, c, d)), x)


def test_c21_membership_example():
    # weight 4 = 0 mod 4, weighted sum 18 = 3 mod 15
    assert member(CodeSpec(Family.C21, 8, 2, (3, 0)), parse_word("11000011"))
    assert not member(CodeSpec(Family.C21, 8, 2, (3, 1)), parse_word("11000011"))


@pytest.mark.parametrize(
    "family,n,b",
    [
        (Family.CHENG1, 8, 2),
        (Family.BURST_EXACT, 8, 2),
        (Family.BURST_EXACT, 12, 3),
        (Family.CL2, 8, 2),
        (Family.AT_MOST_CONSECUTIVE, 12, 3),
        (Family.C21, 10, 2),
        (Family.NONCONS3, 12, 3),
    ],
)
def test_build_matches_member_filter(family, n, b):
    spec = best_params(family, n, b)
    cb = build(spec)
    naive = sorted(w for w in enumerate_words(n) if member(spec, w))
    assert list(cb.words) == naive


def test_best_params_matches_naive_sweep():
    # oracle: count every parameter class by scanning the space per class
    n, b = 8, 2
    best = None
    for a in range(5):
        for c in range(4):
            for d in (0, 1):
                spec = CodeSpec(Family.BURST_EXACT, n, b, (a, c, d))
                size = sum(1 for w in enumerate_words(n) if member(spec, w))
                key = (-size, (a, c, d))
                if best is None or key < best:
                    best = key
    got = best_params(Family.BURST_EXACT, n, b)
    assert got.params == best[1]
    assert len(build(got).words) == -best[0]


def _reference_key(family, n, b, w):
    """The parameter class of w read straight off the constructions, or None
    when w fails a structural constraint: an oracle independent of the
    constraint tables in codes."""

    def vt(row, mod):
        return sum(i * x for i, x in enumerate(row, start=1)) % mod

    def burst(lev, cap, span):
        rows = array_view(w, lev)
        c, d = vt(rows[1], span), sum(rows[1]) % 2
        if max_run(rows[0]) > cap or any((vt(r, span), sum(r) % 2) != (c, d) for r in rows[2:]):
            return None
        return [vt(rows[0], n // lev + 1), c, d]

    def burst_exact(lev):
        m = n // lev
        return burst(lev, ceil_log2(2 * m), ceil_log2(m) + 2)

    def row_21(lev):
        return [k for r in array_view(w, lev) for k in (vt(r, 2 * (n // lev) - 1), sum(r) % 4)]

    if family is Family.CHENG1:
        return [] if all(vt(r, n // b + 1) == 0 for r in array_view(w, b)) else None
    if family is Family.C21:
        return row_21(1)
    if family is Family.BURST_EXACT:
        return burst_exact(b)
    parts = [[vt(w, n + 1)], burst_exact(2 if family in (Family.CL2, Family.AT_MOST_CONSECUTIVE) else b)]
    if family is Family.AT_MOST_CONSECUTIVE:
        parts += [burst(lev, urll_cap(n, b), urll_cap(n, b) + 1) for lev in range(3, b + 1)]
    if family in (Family.NONCONS3, Family.NONCONS4):
        parts += [row_21(2)] + ([row_21(3)] if family is Family.NONCONS4 else [])
    return None if None in parts else sum(parts, [])


@pytest.mark.parametrize(
    "family,n,b",
    [
        (Family.CHENG1, 8, 2),
        (Family.BURST_EXACT, 8, 2),
        (Family.BURST_EXACT, 12, 3),
        (Family.CL2, 8, 2),
        (Family.AT_MOST_CONSECUTIVE, 12, 3),
        (Family.C21, 10, 2),
        (Family.NONCONS3, 12, 3),
    ],
)
def test_sweep_joins_chunks(monkeypatch, family, n, b):
    # 16-word chunks: at n = 12 each half of the split join spans several
    # chunks (at n = 8 a half is a single chunk).
    monkeypatch.setattr(_enum, "CHUNK_BITS", 4)
    sizes = Counter()
    for w in enumerate_words(n):
        key = _reference_key(family, n, b, w)
        if key is not None:
            sizes[tuple(key)] += 1
    size, params = min((-size, key) for key, size in sizes.items())
    spec = best_params(family, n, b)
    assert spec.params == params
    cb = build(spec)
    assert len(cb.words) == -size
    assert list(cb.words) == sorted(w for w in enumerate_words(n) if member(spec, w))


def _by_params(table, n, counted):
    """A count's non-empty classes, (packed classes, sizes), by parameter tuple."""
    mods = [f.mod for f in _enum._compiled(table, n)[2]]
    classes, sizes = counted
    params = zip(*np.unravel_index(classes, mods)) if mods else [()] * len(classes)
    return {tuple(map(int, p)): int(s) for p, s in zip(params, sizes)}


def _transferred(table, n):
    """The classes by parameter tuple as the transfer counts them, called directly."""
    return _by_params(table, n, _enum._transfer(table, n))


def _joined(table, n, L):
    """The classes by parameter tuple as the pair join at L counts them."""
    return _by_params(table, n, _enum._join(table, n, L))


def _transfer_work(table, n):
    """The transfer's work at n: each group's positions times its cells."""
    return sum(len(positions) * math.prod(radices) for _, radices, positions in _enum._groups(table, n))


def _part_forms(family, n, b, lo, hi):
    zeros, caps, keys = _enum._compiled(codes._family_table(family, b), n, lo, hi)
    return zeros + keys, [row for row, _, _ in caps]


def _has_weight(form):
    return any(w % form.mod for w in form.weights)


@pytest.mark.parametrize(
    "family,n,b",
    [
        (Family.CHENG1, 12, 3),
        (Family.BURST_EXACT, 8, 2),
        (Family.BURST_EXACT, 12, 3),
        (Family.BURST_EXACT, 12, 4),
        (Family.CL2, 10, 2),
        (Family.AT_MOST_CONSECUTIVE, 12, 3),
        (Family.C21, 9, 2),
        (Family.NONCONS3, 12, 3),
    ],
)
def test_class_sizes_match_reference_at_every_kind_of_split(monkeypatch, family, n, b):
    # noncons4 has no length below 24 (4! must divide n); see the test below.
    sizes = Counter()
    for w in enumerate_words(n):
        key = _reference_key(family, n, b, w)
        if key is not None:
            sizes[tuple(key)] += 1
    middle = n // 2
    (lo_forms, lo_rows), (hi_forms, hi_rows) = (
        _part_forms(family, n, b, 0, middle),
        _part_forms(family, n, b, middle, n),
    )
    # The middle split cuts every tie form, key form and capped row ...
    assert all(map(_has_weight, lo_forms + lo_rows + hi_forms + hi_rows))
    splits = [middle]
    if lo_rows:
        # ... and the last one leaves a capped row wholly in the low part.
        _, hi_rows = _part_forms(family, n, b, n - 1, n)
        assert not all(map(_has_weight, hi_rows))
        splits.append(n - 1)
    monkeypatch.setattr(_enum, "CHUNK_BITS", 2)  # several chunks in every part
    monkeypatch.setattr(_enum, "BLOCK", 1)  # and blocks of as many pairs as classes
    table = codes._family_table(family, b)
    got = {L: _joined(table, n, L) for L in splits}
    # at-most-consecutive and noncons3 have transfer grids of 10^8 cells and
    # more at n = 12, so only their join is counted
    if _transfer_work(table, n) <= 1 << 26:
        got["transfer"] = _transferred(table, n)
    for how, counted in got.items():
        # Equal dicts without zero entries: every empty class is absent from both.
        assert 0 not in counted.values()
        assert counted == sizes, how
    ranges = param_ranges(family, n, b)
    empty = next(
        (p for p in itertools.product(*(range(top + 1) for top in ranges)) if p not in sizes), None
    )
    if empty is not None:
        assert build(CodeSpec(family, n, b, empty)).cardinality == 0


def test_noncons4_class_sizes_agree_across_splits():
    # No reference sweep at n = 24; the join must give one histogram however
    # the word is cut, and its largest class is the pinned parameter tuple.
    table = codes._family_table(Family.NONCONS4, 4)
    seen = [_joined(table, 24, L) for L in (10, 14)]
    assert seen[0] == seen[1]
    size, params = min((-size, p) for p, size in seen[0].items())
    assert params == (1, 2, 4, 1, 10, 2, 10, 2, 3, 0, 14, 0, 14, 0) and -size == 12


def _vt_brute(words, cap):
    sizes = [0] * (len(words[0]) + 1)
    for x in words:
        if cap is None or max_run(x) <= cap:
            sizes[checksum(x, len(x) + 1)] += 1
    return sizes


def _urll_brute(spec):
    return sum(urll_member(x, spec) for x in enumerate_words(spec.n))


def test_vt_svt_urll_counts_match_per_word_brute_force():
    # The public counts, and the transfer and the join each called directly.
    # Run caps of -1 and 0 admit no word, URLL leaves positions that no form
    # covers, and at b = 4 its two capped rows share positions.
    for n in range(1, 13):
        words = list(enumerate_words(n))
        for cap in [None, *range(-1, n + 2)]:
            want = _vt_brute(words, cap)
            assert vt_class_sizes(n, cap) == want, (n, cap)
            want, table = {(a,): size for a, size in enumerate(want) if size}, _vt_table(cap)
            assert _transferred(table, n) == _joined(table, n, n // 2) == want, (n, cap)
        for P in range(2, n + 3):
            want, table = Counter((checksum(x, P), sum(x) % 2) for x in words), _svt_table(P)
            assert svt_class_sizes(n, P) == want, (n, P)
            assert _transferred(table, n) == _joined(table, n, n // 2) == want, (n, P)
    for b in (3, 4):
        for f in range(5):
            spec, table = UrllSpec(12, b, f), _urll_table(b, f)
            want = _urll_brute(spec)
            assert urll_count(spec) == want, spec
            for counted in (_transferred(table, 12), _joined(table, 12, 6)):
                assert sum(counted.values()) == want, spec
    # the counts end where every size, at most 2^n, still fits an int64
    for n in (-1, 0, 63):
        for count in (vt_class_sizes, lambda n: vt_class_sizes(n, 3)):
            with pytest.raises(DomainError):
                count(n)
        with pytest.raises(DomainError):
            svt_class_sizes(n, 3)
    for n in (0, 63):
        with pytest.raises(DomainError):
            urll_count(UrllSpec(n, 3, 2))



def test_class_count_adapter_returns_python_ints():
    # VT with and without a run cap, SVT, and URLL, whose table has no key
    # forms and so the one class ()
    tables = [_vt_table(None), _vt_table(3), _svt_table(5), _urll_table(3, 3)]
    widths = [1, 1, 2, 0]
    for table, width in zip(tables, widths):
        sizes = _enum._class_sizes(table, 12)
        assert sizes and sum(sizes.values()) <= 1 << 12
        for key, size in sizes.items():
            assert type(key) is tuple and len(key) == width
            assert all(type(r) is int for r in key) and type(size) is int
    with pytest.raises(DomainError, match="n >= 1, got n=0"):
        _enum._class_sizes(tables[0], 0)
    with pytest.raises(DomainError, match="cannot count the classes at n=63"):
        _enum._class_sizes(tables[0], 63)

def test_capped_counts_at_every_split(monkeypatch):
    # A run cap on the whole word meets the split at every position; the
    # URLL rows meet it only where one of their columns sits. Either part
    # may be empty. The transfer, which splits nothing, gives the same counts.
    monkeypatch.setattr(_enum, "CHUNK_BITS", 2)  # several chunks in every part
    n = 10
    words = list(enumerate_words(n))
    for cap in range(n):
        sizes, table = {(a,): s for a, s in enumerate(_vt_brute(words, cap)) if s}, _vt_table(cap)
        assert _transferred(table, n) == sizes, cap
        for split in range(n + 1):
            assert _joined(table, n, split) == sizes, (split, cap)
    for spec in [UrllSpec(12, 3, f) for f in (1, 2, 3)] + [UrllSpec(12, 4, 2)]:
        size, table = _urll_brute(spec), _urll_table(spec.b, spec.f)
        assert sum(_transferred(table, spec.n).values()) == size, spec
        for split in range(spec.n + 1):
            assert sum(_joined(table, spec.n, split).values()) == size, (split, spec)


def test_counts_at_24_tabulate_only_parts(monkeypatch):
    # Each count tabulates parts of a split word, never all 2^24 words: the
    # transfer, which the counts at 24 take, its low half, and the join,
    # called on the same tables, both halves. A capped row's boundary table
    # covers only its part.
    widths, edges = [], []
    iter_chunks, make_parts, make_edges = _enum.iter_chunks, _enum._parts, _enum._edges

    def chunks(width):
        widths.append(width)
        return iter_chunks(width)

    def parts(table, n, lo, hi):
        edges.append((hi - lo, []))
        return make_parts(table, n, lo, hi)

    def boundary(*args):
        states = make_edges(*args)
        edges[-1][1].append(len(states))
        return states

    monkeypatch.setattr(_enum, "iter_chunks", chunks)
    monkeypatch.setattr(_enum, "_parts", parts)
    monkeypatch.setattr(_enum, "_edges", boundary)
    assert sum(vt_class_sizes(24)) == 1 << 24
    assert sum(vt_class_sizes(24, 5)) == rll_count(RllSpec(24, 5))
    assert sum(svt_class_sizes(24, 7).values()) == 1 << 24
    assert urll_count(UrllSpec(24, 4)) == 16646144
    assert urll_count(UrllSpec(24, 3, 8)) == 1 << 24  # no row can break the cap
    assert widths == [12] * 5
    tables = [_vt_table(None), _vt_table(5), _svt_table(7), _urll_table(4, urll_cap(24, 4))]
    for table in tables:
        assert _joined(table, 24, 12) == _transferred(table, 24)
    # Together the counts tabulate 17 parts of 2^12 values, under a 200th
    # of one sweep.
    assert set(widths) == {12} and len(widths) == 5 + 4 * 3
    assert any(sizes for _, sizes in edges)
    for width, sizes in edges:
        assert all(size <= 1 << width for size in sizes), (width, sizes)


def test_best_params_of_noncons3_at_24_stays_under_130_mb(peak_rss_mb):
    # the widest join at n = 24: about 1.66M bin pairs fall into 483,655 of
    # 19,044,000 classes, so they are tallied in one block, by sorting
    peak = peak_rss_mb(
        "from burstcodes import codes\n"
        "spec = codes.best_params(codes.Family.NONCONS3, 24, 3)\n"
        "assert spec.params == (0, 0, 3, 0, 16, 2, 16, 2)\n"
    )
    assert peak < 130, peak


# sha256 of write_codebook(build(best_params(family, 24, b))), recorded before
# the sweep split each word into a tabulated low part and a per-chunk constant.
PINNED_24 = {
    (Family.CHENG1, 3): "111c5c012d5d15fb2d12a526c1427cf7826b173e9451c5f66f5cb5fddac100de",
    (Family.BURST_EXACT, 3): "b061452a3ba9e3efc176f789e0aa25491837493c939176159a58b289f9e76429",
    (Family.CL2, 2): "0da79413a7d56df76341a3e338f3dfc0e2b2deb53ac842e8cd9d3f5162c09298",
    (Family.AT_MOST_CONSECUTIVE, 3): "9d78459cbc9bcae120bfb97ef0c1d7497757ac3f73d31ca57969d5f1b8cd4a54",
    (Family.C21, 2): "a5bea23509170e44ee52568e31d262a2effb164647c39ba010ac757ee6dc23ac",
    (Family.NONCONS3, 3): "64d1154b2268001526ec59aa66246c6f940472fa04dd0ca048c4f573259d0634",
    (Family.NONCONS4, 4): "8f9a5077b939d06f56490c767402bb453b0276e121234703562cb05f63c89676",
}


@pytest.mark.slow
@pytest.mark.parametrize("family,b", sorted(PINNED_24, key=lambda fb: fb[0].value))
def test_codebooks_at_24_are_byte_identical(family, b):
    buf = io.StringIO()
    write_codebook(build(best_params(family, 24, b)), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED_24[(family, b)]


def _supported(n_max, b_max):
    for family, b, n in itertools.product(Family, range(1, b_max + 1), range(1, n_max + 1)):
        if _rejection(codes._validate_structure, family, n, b) is None:
            yield family, n, b


def test_transfer_and_pair_join_count_the_same_classes():
    tables = [(codes._family_table(f, b), n, (f, b)) for f, n, b in _supported(14, 4)]
    caps = [(n, cap) for n in range(1, 13) for cap in (None, *range(n + 2))]
    tables += [(_vt_table(cap), n, ("vt", cap)) for n, cap in caps]
    tables += [(_svt_table(P), n, ("svt", P)) for n in range(1, 13) for P in range(2, n + 3)]
    urll = (UrllSpec(12, 3, 1), UrllSpec(12, 3, 2), UrllSpec(12, 4, 2), UrllSpec(18, 3))
    tables += [(_urll_table(spec.b, spec.f), spec.n, spec) for spec in urll]
    at_24 = [(Family.BURST_EXACT, b) for b in (2, 3, 4)] + [(Family.CL2, 2), (Family.C21, 2), (Family.CHENG1, 3)]
    tables += [(codes._family_table(f, b), 24, (f, b)) for f, b in at_24]
    compared = 0
    for table, n, label in tables:
        if _transfer_work(table, n) > 1 << 26:
            continue
        (classes, sizes), (want_classes, want_sizes) = _enum._transfer(table, n), _enum._join(table, n, n // 2)
        assert sizes.dtype == want_sizes.dtype == np.int64, (n, label)
        assert classes.dtype == want_classes.dtype, (n, label)
        assert np.array_equal(classes, want_classes), (n, label)
        assert np.array_equal(sizes, want_sizes), (n, label)
        compared += 1
    # every table but at-most-consecutive and noncons3 at n = 12, whose
    # transfer grids have 10^8 cells and more
    assert compared == len(tables) - 2 == 267


def _route(monkeypatch, table, n):
    """The counter _classes takes for the table at n, or "refused", as its
    rule decides before any part is tabulated."""

    class Picked(Exception):
        pass

    def picked(name):
        def counter(*args):
            raise Picked(name)

        return counter

    def tabulated(*args):
        raise AssertionError("a part was tabulated before the counter was chosen")

    with monkeypatch.context() as m:
        m.setattr(_enum, "_transfer", picked("transfer"))
        m.setattr(_enum, "_join", picked("join"))
        m.setattr(_enum, "_tabulate", tabulated)
        m.setattr(_enum, "_parts", tabulated)
        try:
            _enum._classes(table, n)
        except Picked as choice:
            return choice.args[0]
        except DomainError:
            return "refused"
    raise AssertionError("no counter was chosen")


def _cells(table, n):
    """The cells of the transfer's largest grid at n."""
    return max(math.prod(radices) for _, radices, _ in _enum._groups(table, n))


WIDE = {(Family.AT_MOST_CONSECUTIVE, 3), (Family.NONCONS3, 3), (Family.NONCONS4, 4)}


def test_classes_route_by_the_cells_of_the_transfer_grids(monkeypatch):
    # the transfer where every grid holds at most one chunk of cells, and the
    # join up to BUILD_MAX_N where one does not; the wide families' grids
    # hold 10^8 cells and more
    for family, b in sorted(PINNED_24, key=str):
        table = codes._family_table(family, b)
        wide = (family, b) in WIDE
        assert (_cells(table, 24) > 1 << _enum.CHUNK_BITS) == wide, (family, b)
        assert _route(monkeypatch, table, 24) == ("join" if wide else "transfer"), (family, b)
        # past BUILD_MAX_N the join is not taken, so the wide families are refused
        n = next(n for n in range(BUILD_MAX_N + 1, 63) if _rejection(codes._validate_structure, family, n, b) is None)
        assert _route(monkeypatch, table, n) == ("refused" if wide else "transfer"), (family, b)
        assert _route(monkeypatch, table, 63) == "refused"
    # cl2 at n = 8: one grid of 2,880 cells, on the transfer while a chunk holds as many
    cl2 = codes._family_table(Family.CL2, 2)
    assert _cells(cl2, 8) == 2880 and _route(monkeypatch, cl2, 8) == "transfer"
    monkeypatch.setattr(_enum, "CHUNK_BITS", 11)  # 2,048 cells
    assert _route(monkeypatch, cl2, 8) == "join"
    assert _route(monkeypatch, cl2, BUILD_MAX_N + 2) == "refused"
    monkeypatch.setattr(_enum, "CHUNK_BITS", 12)
    assert _route(monkeypatch, cl2, 8) == "transfer"
    monkeypatch.undo()
    # every VT, SVT and URLL count at n = 24..62 takes the transfer, and n = 63 is refused
    for table in (_vt_table(None), _vt_table(5), _svt_table(7), _urll_table(4, 7)):
        for n in (24, 30, 62):
            assert _route(monkeypatch, table, n) == "transfer", n
        assert _route(monkeypatch, table, 63) == "refused"


def test_join_and_build_tabulate_the_two_halves(monkeypatch):
    # the join splits at n // 2 when _classes takes it, and build always does
    spans, tabulate = [], _enum._tabulate

    def parts(table, n, lo, hi):
        spans.append((lo, hi))
        return tabulate(table, n, lo, hi)

    monkeypatch.setattr(_enum, "_tabulate", parts)
    for family, n, b in ((Family.AT_MOST_CONSECUTIVE, 12, 3), (Family.NONCONS3, 12, 3)):
        spans.clear()
        _enum._classes(codes._family_table(family, b), n)
        assert spans == [(0, n // 2), (n // 2, n)], (family, n)
    for family, n, b in ((Family.BURST_EXACT, 24, 3), (Family.C21, 13, 2), (Family.CHENG1, 9, 3)):
        spans.clear()
        build(best_params(family, n, b))
        assert spans == [(0, n // 2), (n // 2, n)], (family, n)


def test_transfer_starts_from_at_most_half_the_build_cap(monkeypatch):
    # the low part that starts the transfer has n // 2 positions up to
    # BUILD_MAX_N, so every count there keeps its width, and 13 past it
    widths, make_parts = [], _enum._parts

    def parts(table, n, lo, hi):
        widths.append(hi - lo)
        return make_parts(table, n, lo, hi)

    monkeypatch.setattr(_enum, "_parts", parts)
    for n in (10, 24, 26, 28, 62):
        widths.clear()
        _enum._classes(_vt_table(None), n)
        assert widths == [min(n, BUILD_MAX_N) // 2], n


def _ginzburg(n, a):
    """|VT_a(n)| by Ginzburg's closed form (Sloane, "On single-deletion-
    correcting codes", 2002): the sum over odd d dividing n + 1 of
    2^((n+1)/d) phi(d) mu(d/g) / phi(d/g), g = gcd(d, a), over 2(n + 1)."""

    def factors(k):
        p, out = 2, []
        while p * p <= k:
            while k % p == 0:
                out.append(p)
                k //= p
            p += 1
        return out + [k] * (k > 1)

    def phi(k):
        primes = set(factors(k))
        return k // math.prod(primes) * math.prod(p - 1 for p in primes)

    def mu(k):
        fs = factors(k)
        return 0 if len(set(fs)) < len(fs) else (-1) ** len(fs)

    total = 0
    for d in range(1, n + 2, 2):
        if (n + 1) % d == 0:
            e = d // math.gcd(d, a)
            total += (1 << (n + 1) // d) * phi(d) * mu(e) // phi(e)
    size, rest = divmod(total, 2 * (n + 1))
    assert rest == 0
    return size


def test_vt_class_sizes_equal_ginzburgs_closed_form():
    # an oracle independent of the transfer, at every length the counts reach
    for n in range(1, 63):
        assert vt_class_sizes(n) == [_ginzburg(n, a) for a in range(n + 1)], n
    assert [_ginzburg(4, a) for a in range(5)] == [4, 3, 3, 3, 3]  # VT_0(4): 0000 1001 0110 1111


@pytest.mark.parametrize("b, n", [(2, 62), (3, 60), (4, 60)])
def test_cheng1_class_is_a_power_of_one_vt_class(b, n):
    # every row of A_b is in VT_0(n/b), independently
    assert codes._best(Family.CHENG1, n, b) == ((), _ginzburg(n // b, 0) ** b)


@pytest.mark.parametrize("n", [28, 30])
def test_join_equals_transfer_past_the_build_cap(n):
    # the join, which _classes takes only up to BUILD_MAX_N, called directly
    tables = [(Family.BURST_EXACT, b) for b in (2, 3, 4) if n % b == 0] + [(Family.CL2, 2), (Family.C21, 2)]
    for family, b in tables:
        table = codes._family_table(family, b)
        (classes, sizes), (want_classes, want_sizes) = _enum._join(table, n, n // 2), _enum._transfer(table, n)
        assert np.array_equal(classes, want_classes) and np.array_equal(sizes, want_sizes), (family, b)


# The first length from which burst-exact's measured redundancy is below
# Cheng's b log2(n/b + 1), for good up to n = 62; below it only n = 2b is.
CROSSOVER = {2: 26, 3: 36, 4: 48}


@pytest.mark.parametrize("b", sorted(CROSSOVER))
def test_burst_exact_falls_below_cheng_past_the_crossover(b):
    below = []
    for n in range(2 * b, 63, b):
        _, size = codes._best(Family.BURST_EXACT, n, b)
        measured, refs = n - math.log2(size), reference_redundancies(n, b)
        assert measured < refs["burst_exact_bound"], n  # the paper's bound
        if measured < refs["cheng_baseline"]:
            below.append(n)
    assert below == [2 * b, *range(CROSSOVER[b], 63, b)]


def test_boundary_tables_are_cached_read_only():
    states = _enum._edges(6, 2, True)
    assert _enum._edges(6, 2, True) is states and not states.flags.writeable
    assert _enum._edges.cache_info().maxsize is not None


def test_best_params_c21_pigeonhole():
    spec = best_params(Family.C21, 8, 2)
    cb = build(spec)
    assert cb.cardinality >= math.ceil(256 / (4 * 15))


def test_empty_class_reports_zero():
    # the all-zero parameters of burst-exact at n=8 may or may not be empty;
    # force an empty class instead via a c21 class check
    sizes = {}
    for w in enumerate_words(4):
        a = sum(i * b for i, b in enumerate(w, start=1)) % 7
        c = sum(w) % 4
        sizes[(a, c)] = sizes.get((a, c), 0) + 1
    empty = next(
        (a, c) for a in range(7) for c in range(4) if (a, c) not in sizes
    )
    cb = build(CodeSpec(Family.C21, 4, 2, empty))
    assert cb.cardinality == 0
    assert cb.redundancy == math.inf


def test_decode_identity_and_length_errors():
    spec = best_params(Family.BURST_EXACT, 8, 2)
    cb = build(spec)
    w = cb.words[0]
    res = decode(spec, w)
    assert res.word == w and res.detail["kind"] == "none"
    with pytest.raises(DecodeFailure):
        decode(spec, (0,) * 8 if w != (0,) * 8 else (1,) * 8)
    with pytest.raises(DecodeFailure):
        decode(spec, w + (0,))
    with pytest.raises(DecodeFailure):
        decode(spec, w[:5])  # wrong deletion count


def test_decode_checks_its_input_once_on_entry():
    # any sequence of 0/1 entries decodes as the tuple of its ints; any other
    # entry raises DomainError, not a TypeError from inside a decoder
    spec = best_params(Family.BURST_EXACT, 12, 3)
    x = build(spec).words[0]
    for y in (x[:4] + x[7:], x):
        want = decode(spec, y)
        for same in (list(y), [bool(b) for b in y], [np.int64(b) for b in y], np.array(y)):
            got = decode(spec, same)
            assert got == want and all(type(b) is int for b in got.word)
        for bad in (list(map(str, y)), [float(b) for b in y], y[:-1] + (2,), "".join(map(str, y))):
            with pytest.raises(DomainError):
                decode(spec, bad)


def test_decode_agrees_with_oracle_all_families_small():
    cases = (
        (Family.CHENG1, 8, 2),
        (Family.BURST_EXACT, 8, 2),
        (Family.CL2, 8, 2),
        (Family.AT_MOST_CONSECUTIVE, 12, 3),
        (Family.C21, 8, 2),
        (Family.NONCONS3, 12, 3),
    )
    for family, n, b in cases:
        spec = best_params(family, n, b)
        cb = build(spec)
        model = target_model(spec)
        for w in cb.words:
            for y in sorted(balls.ball(w, model)):
                res = decode(spec, y)
                assert res.word == w
                assert verify.oracle_decode(cb, y, model).word == w


def _reference_search_decode(spec, y):
    """The search decoders as loops of their own, kept as a reference for
    the search over balls._inverse: the c21 refills of one deleted bit and
    of one (2,1)-burst, or every windowed a-deletion pattern, in order; the
    first refill giving a word sets its window and detail, and the unique
    member survives."""
    n, b = spec.n, spec.b
    cands = {}
    if spec.family is Family.C21:
        for t in range(n):
            for v in (0, 1):
                x = y[:t] + (v,) + y[t:]
                cands.setdefault(
                    x, {"kind": "single-deletion", "position": t + 1, "window": (t + 1, t + 1)}
                )
        for i in range(1, n):
            for b1, b2 in itertools.product((0, 1), repeat=2):
                x = y[: i - 1] + (b1, b2) + y[i:]
                cands.setdefault(x, {"kind": "burst-2-1", "position": i, "window": (i, i + 1)})
    else:
        a = n - len(y)
        for positions in _window_patterns(n, b, a):
            for bits in itertools.product((0, 1), repeat=a):
                fill, rest = dict(zip(positions, bits)), iter(y)
                x = tuple(fill[p] if p in fill else next(rest) for p in range(1, n + 1))
                cands.setdefault(
                    x,
                    {
                        "kind": "windowed-deletion",
                        "positions": positions,
                        "window": (positions[0], positions[-1]),
                    },
                )
    survivors = sorted(x for x in cands if member(spec, x))
    if not survivors:
        raise DecodeFailure("no codeword explains the received word")
    if len(survivors) > 1:
        raise DecodeFailure(f"{len(survivors)} codewords explain the received word")
    meta = dict(cands[survivors[0]])
    return DecodeResult(word=survivors[0], window=meta.pop("window"), detail=meta)


def _outcome(decoder, spec, y):
    try:
        res = decoder(spec, y)
    except DecodeFailure as exc:
        return str(exc)
    return res.word, res.window, dict(res.detail)


@pytest.mark.parametrize("family,n,m", [(Family.C21, 8, 7), (Family.C21, 10, 9),
                                        (Family.C21, 12, 11), (Family.NONCONS3, 12, 10)])
def test_search_decoders_match_reference_on_every_received_word(family, n, m):
    spec = best_params(family, n, 3 if family is Family.NONCONS3 else 2)
    outcomes = Counter()
    for y in enumerate_words(m):
        got = _outcome(decode, spec, y)
        assert got == _outcome(_reference_search_decode, spec, y), y
        outcomes[got if isinstance(got, str) else got[2]["kind"]] += 1
    assert len(outcomes) >= 2, outcomes  # both decodes and failures occur


# 1,000 seeded words per a in the slow run; tier-1 checks their first 100.
@pytest.mark.parametrize(
    "a,count",
    [(2, 100), (3, 100), pytest.param(2, 1000, marks=pytest.mark.slow),
     pytest.param(3, 1000, marks=pytest.mark.slow)],
)
def test_noncons4_search_matches_reference_on_seeded_words(a, count):
    spec = best_params(Family.NONCONS4, 24, 4)
    words = build(spec).words
    rng = random.Random(a)
    for i in range(count):
        if i % 2:  # a codeword less a windowed pattern, else a random word
            x, first = rng.choice(words), rng.randrange(1, 22)
            y = _delete(x, rng.sample(range(first, first + 4), a))
        else:
            y = tuple(rng.randrange(2) for _ in range(24 - a))
        assert _outcome(decode, spec, y) == _outcome(_reference_search_decode, spec, y), y


def _member_past_64_bits(family, n, b, rng):
    """A random member of some class at length n: a word drawn until its
    tie forms vanish and its capped rows keep their caps, with the
    parameters read off its own key forms."""
    zeros, caps, keys = _enum._compiled(codes._family_table(family, b), n)
    while True:
        v = rng.getrandbits(n)
        if all(f(v) == 0 for f in zeros) and all(
            _enum.max_run_le(row(v), cols, cap) for row, cols, cap in caps
        ):
            spec = CodeSpec(family, n, b, tuple(f(v) for f in keys))
            x = tuple(v >> i & 1 for i in range(n))
            assert member(spec, x)
            return spec, x


# (seeded events, the decode kinds they reach) per case. The first six reach
# the search decoders (single-deletion, burst-2-1, windowed-deletion); the
# rest reach every other path the target model and the deletion count select.
_PAST_64_BITS = {
    (Family.C21, 64, 2): (6, {"single-deletion", "burst-2-1"}),
    (Family.C21, 96, 2): (6, {"single-deletion", "burst-2-1"}),
    (Family.NONCONS3, 72, 3): (6, {"deletion", "windowed-deletion"}),
    (Family.NONCONS3, 96, 3): (6, {"deletion", "windowed-deletion", "burst-deletion"}),
    (Family.NONCONS4, 72, 4): (6, {"deletion", "windowed-deletion"}),
    (Family.NONCONS4, 96, 4): (6, {"deletion", "windowed-deletion"}),
    (Family.BURST_EXACT, 72, 3): (40, {"burst-deletion"}),
    (Family.BURST_EXACT, 96, 4): (40, {"burst-deletion"}),
    (Family.CL2, 96, 2): (40, {"deletion", "burst-deletion"}),
    (Family.AT_MOST_CONSECUTIVE, 72, 3): (40, {"deletion", "burst-deletion"}),
    (Family.CHENG1, 72, 3): (40, {"burst-deletion"}),
}


@pytest.mark.parametrize("family,n,b", list(_PAST_64_BITS))
def test_decode_past_64_bits(family, n, b):
    seeds, want = _PAST_64_BITS[family, n, b]
    rng = random.Random(n * 10 + b)
    spec, x = _member_past_64_bits(family, n, b, rng)
    model = target_model(spec)
    kinds = set()
    for seed in range(seeds):
        y, event = verify.apply_error(x, model, seed)
        res = decode(spec, y)
        assert res.word == x, (seed, event)
        kinds.add(res.detail["kind"])
    assert kinds == want


# The deletion counts that take the algebraic paths (VT, array-burst,
# cheng1), and the decode kinds they reach, per case of _PAST_64_BITS.
_ALGEBRAIC_PAST_64_BITS = {
    (Family.NONCONS3, 96, 3): ((1, 3), {"deletion", "burst-deletion"}),
    (Family.NONCONS4, 96, 4): ((1, 4), {"deletion", "burst-deletion"}),
    (Family.BURST_EXACT, 72, 3): ((3,), {"burst-deletion"}),
    (Family.BURST_EXACT, 96, 4): ((4,), {"burst-deletion"}),
    (Family.CL2, 96, 2): ((1, 2), {"deletion", "burst-deletion"}),
    (Family.AT_MOST_CONSECUTIVE, 72, 3): ((1, 2, 3), {"deletion", "burst-deletion"}),
    (Family.CHENG1, 72, 3): ((3,), {"burst-deletion"}),
}


@pytest.mark.parametrize("family,n,b", list(_ALGEBRAIC_PAST_64_BITS))
def test_algebraic_decoders_past_64_bits_undo_every_event(family, n, b):
    # the output of every burst of a deletions, an event of every target
    # model, for each a that takes an algebraic path, on the codeword that
    # test_decode_past_64_bits draws
    counts, want = _ALGEBRAIC_PAST_64_BITS[family, n, b]
    spec, x = _member_past_64_bits(family, n, b, random.Random(n * 10 + b))
    kinds = set()
    for a in counts:
        for m, u in balls.ball_ints(to_int(x), n, balls.del_exact(a)):
            res = decode(spec, from_int(u, m))
            assert res.word == x, (a, u)
            kinds.add(res.detail["kind"])
    assert kinds == want


def test_decode_fails_exactly_off_the_balls_of_the_code():
    # every received word of each length: the VT and array-view paths agree
    # with the oracle, failing where no codeword's ball holds the word (the
    # search paths are held to the reference search above)
    cases = ((Family.CHENG1, 8, 2), (Family.BURST_EXACT, 12, 3), (Family.CL2, 10, 2),
             (Family.AT_MOST_CONSECUTIVE, 12, 3))
    for family, n, b in cases:
        spec = best_params(family, n, b)
        cb, model = build(spec), target_model(spec)
        for a in range(1, b + 1):
            for y in enumerate_words(n - a):
                try:
                    want = verify.oracle_decode(cb, y, model).word
                except DecodeFailure:
                    want = None
                try:
                    got = decode(spec, y).word
                except DecodeFailure:
                    got = None
                assert got == want, (family, y)


def _renamed(table):
    """A copy of a constraint table with every key form renamed, its ties
    following the new names."""
    name = {key: f"renamed{i}" for i, (key, _) in enumerate(table.keys)}
    return _enum._Table(
        tuple((name[key], form) for key, form in table.keys),
        tuple((form, name.get(key)) for form, key in table.ties),
        table.caps,
    )


@pytest.mark.parametrize("family,n,b", [(Family.BURST_EXACT, 12, 3), (Family.CL2, 8, 2),
                                        (Family.NONCONS3, 12, 3)])
def test_decoders_read_the_forms_not_the_key_names(monkeypatch, family, n, b):
    # the decoder constants come from the table's forms, by their place in the
    # array view: a copy of the family whose keys have other names decodes
    # every received word of every length n - 1 .. n - b as the original does
    spec = best_params(family, n, b)
    received = [y for a in range(1, b + 1) for y in enumerate_words(n - a)]
    want = [_outcome(decode, spec, y) for y in received]
    assert len({isinstance(outcome, str) for outcome in want}) == 2  # decodes and failures
    caches = (codes._family_table, codes._decoder_params)
    record = codes._FAMILIES[family]
    monkeypatch.setitem(codes._FAMILIES, family,
                        dataclasses.replace(record, table=lambda b: _renamed(record.table(b))))
    try:
        for cache in caches:
            cache.cache_clear()
        assert set(param_fields(family, b)).isdisjoint(dict(record.table(b).keys))
        assert [_outcome(decode, spec, y) for y in received] == want
    finally:
        for cache in caches:
            cache.cache_clear()


def _named_decoder_params(spec, a):
    """The decoder constants by the key names, kept as the oracle of
    codes._decoder_params: the VT code of every row of A_b for a table of no
    keys; at a = 1 the whole-word VT code a_vt or a1; else the VT code of row 1
    of A_a and the shifted-VT code of its other rows from the keys a{tag},
    c{tag} and d{tag}, with the span of the c{tag} form, the tag empty for a
    del-exact family and a for the others."""
    n, p = spec.n, dict(zip(param_fields(spec.family, spec.b), spec.params))
    if not spec.params:
        return VtParams(n // spec.b, 0), None
    if a == 1:
        return VtParams(n, p.get("a_vt", p.get("a1"))), None
    tag = "" if codes._FAMILIES[spec.family].model is balls.ErrorKind.DEL_EXACT else str(a)
    span = dict(codes._family_table(spec.family, spec.b).keys)[f"c{tag}"].mod(n)
    m = n // a
    return VtParams(m, p[f"a{tag}"]), SvtParams(m, span, p[f"c{tag}"], p[f"d{tag}"])


def test_decoder_params_equal_the_named_constants(monkeypatch):
    # every (family, b <= 4, a) whose decode reaches _decoder_params, at the
    # least n that every b of the family divides, with seeded parameters
    reached = set()
    traced = codes._decoder_params
    monkeypatch.setattr(codes, "_decoder_params",
                        lambda spec, a: reached.add((spec.family, spec.b, a)) or traced(spec, a))
    rng = random.Random(4)
    specs = {}
    for family in Family:
        record = codes._FAMILIES[family]
        for b in [record.b] if record.fixed else range(record.b, 5):
            n = next(n for n in itertools.count(record.least_n(b)) if n % record.divisor(b) == 0)
            specs[family, b] = [
                CodeSpec(family, n, b, tuple(rng.randrange(top + 1) for top in param_ranges(family, n, b)))
                for _ in range(3)
            ]
            for a in range(1, b + 1):
                try:
                    decode(specs[family, b][0], tuple(rng.getrandbits(1) for _ in range(n - a)))
                except DecodeFailure:
                    pass
    assert reached == {
        *((Family.CHENG1, b, b) for b in range(1, 5)),
        *((Family.BURST_EXACT, b, b) for b in range(2, 5)),
        (Family.CL2, 2, 1), (Family.CL2, 2, 2),
        *((Family.AT_MOST_CONSECUTIVE, b, a) for b in (3, 4) for a in range(1, b + 1)),
        (Family.NONCONS3, 3, 1), (Family.NONCONS3, 3, 3),
        (Family.NONCONS4, 4, 1), (Family.NONCONS4, 4, 4),
    }
    for family, b, a in reached:
        for spec in specs[family, b]:
            assert traced(spec, a) == _named_decoder_params(spec, a), (spec, a)


def test_specs_hold_python_ints():
    # a spec equal to another in value is the same spec: numpy or list
    # parameters are stored as a tuple of Python ints, so decoder constants
    # cached for one serve the other and every decoded word holds ints
    plain = CodeSpec(Family.BURST_EXACT, 12, 3, (1, 0, 0))
    x = build(plain).words[0]
    y = x[:4] + x[7:]
    numpy = CodeSpec(Family.BURST_EXACT, 12, 3, tuple(map(np.int64, plain.params)))
    all_numpy = CodeSpec(Family.BURST_EXACT, np.int64(12), np.int64(3), numpy.params)
    listed = CodeSpec(Family.BURST_EXACT, 12, 3, [1, 0, 0])
    codes._decoder_params.cache_clear()
    for spec in (numpy, plain, listed, all_numpy):
        assert spec == plain and hash(spec) == hash(plain)
        assert all(type(v) is int for v in (spec.n, spec.b, *spec.params))
        assert type(spec.params) is tuple
        res = decode(spec, y)
        assert res.word == x and all(type(bit) is int for bit in res.word)
        json.dumps({"word": res.word, "window": res.window, "detail": res.detail})
    for bad in ({"n": 12.0}, {"b": 3.0}, {"params": (1.5, 0, 0)}, {"params": ("1", 0, 0)},
                {"params": 1}):
        fields = {"family": Family.BURST_EXACT, "n": 12, "b": 3, "params": (1, 0, 0), **bad}
        with pytest.raises(DomainError):
            CodeSpec(**fields)


def test_specs_refuse_a_family_that_is_not_a_family():
    # a family's name, None or another enum is refused, not looked up in the
    # family records (which ended in KeyError)
    for bad in ("burst-exact", None, balls.ErrorKind.DEL_EXACT):
        with pytest.raises(DomainError, match="Family"):
            CodeSpec(bad, 12, 3, (0, 0, 0))
    # so are the other calls that take a family: through _validate_structure
    for call in (lambda: best_params("cl2", 12, 2), lambda: codes.default_burst("cl2"),
                 lambda: param_ranges("cl2", 12, 2), lambda: codes._best("cl2", 12, 2)):
        with pytest.raises(DomainError, match="Family"):
            call()
    assert CodeSpec(parse_family("burst-exact"), 12, 3, (0, 0, 0)).family is Family.BURST_EXACT


def test_noncons3_gap_patterns_round_trip():
    spec = best_params(Family.NONCONS3, 12, 3)
    cb = build(spec)
    assert cb.cardinality >= 1
    for w in cb.words:
        for a in (1, 2, 3):
            for positions in _window_patterns(12, 3, a):
                y = _delete(w, positions)
                assert decode(spec, y).word == w


def test_insertion_duals_for_composite_families():
    # the deletion-correcting codebooks also verify against the mirrored
    # insertion models
    cases = (
        (Family.AT_MOST_CONSECUTIVE, 12, 3, balls.ins_at_most(3)),
        (Family.NONCONS3, 12, 3, balls.ins_at_most_noncons(3)),
        (Family.CL2, 10, 2, balls.ins_at_most(2)),
    )
    for family, n, b, model in cases:
        cb = build(best_params(family, n, b))
        assert verify.verify_code(cb, model).passed, family


def test_burst_exact_pigeonhole_bound():
    # the best class holds at least its share of the run-cap-qualified words
    n, b = 8, 2
    spec = best_params(Family.BURST_EXACT, n, b)
    m = n // b
    qualified = 0
    from burstcodes.bitseq import array_view
    from burstcodes.rll import ceil_log2, max_run

    for w in enumerate_words(n):
        if max_run(array_view(w, b)[0]) <= ceil_log2(2 * m):
            qualified += 1
    classes = (m + 1) * (ceil_log2(m) + 2) * 2
    assert build(spec).cardinality >= qualified / classes


def test_codebook_file_round_trip():
    spec = best_params(Family.BURST_EXACT, 8, 2)
    cb = build(spec)
    buf = io.StringIO()
    write_codebook(cb, buf)
    text = buf.getvalue()
    assert text.startswith("# family=burst-exact n=8 b=2 params=")
    lines = text.splitlines()
    assert lines[1:] == sorted(lines[1:])
    back = read_codebook(io.StringIO(text))
    assert back.words == cb.words
    assert back.spec == spec


def test_codebook_file_adhoc():
    cb = codebook_from_words([parse_word("0000"), parse_word("1111")], 4)
    buf = io.StringIO()
    write_codebook(cb, buf)
    back = read_codebook(io.StringIO(buf.getvalue()))
    assert back.words == cb.words and back.spec is None


@pytest.mark.parametrize(
    "header",
    [
        "# family=adhoc b=0 params=-",  # no n=
        "# family=adhoc n=0 b=0 params=-",
        "# family=burst-exact n=twelve b=2 params=0,0,0",
        "# family=burst-exact n=8 b=2 params=x,0,0",
        "# family=burst-exact n=8 params=0,0,0",  # no b=
        "# family burst-exact",
    ],
)
def test_read_codebook_rejects_malformed_header(header):
    with pytest.raises(DomainError):
        read_codebook(io.StringIO(header + "\n"))


def _reference_write_codebook(cb, out):
    """write_codebook from Word tuples, one formatted line per word, as it was
    before codebooks held packed rows."""
    if cb.spec is None:
        header = f"# family=adhoc n={cb.n} b=0 params=-\n"
    else:
        p = ",".join(map(str, cb.spec.params)) or "-"
        header = f"# family={cb.spec.family.value} n={cb.spec.n} b={cb.spec.b} params={p}\n"
    out.write(header + "".join(format_word(w) + "\n" for w in cb.words))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 24, 64, 65, 100])
def test_packed_codebook_round_trips(n):
    rng = random.Random(n)
    words = [tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(40)]
    words += words[:10]  # unsorted, with duplicates
    cb = codebook_from_words(words, n)
    assert cb.words == tuple(sorted(set(words)))
    assert cb.rows.dtype == np.uint8 and cb.rows.shape == (len(set(words)), (n + 7) // 8)
    assert not cb.rows.flags.writeable
    if n <= 64:
        assert codebook_from_ints([to_int(w) for w in words], n) == cb
    buf, ref = io.StringIO(), io.StringIO()
    write_codebook(cb, buf)
    _reference_write_codebook(cb, ref)
    assert buf.getvalue() == ref.getvalue()
    back = read_codebook(io.StringIO(buf.getvalue()))
    assert back == cb and hash(back) == hash(cb) and back.words == cb.words
    header, *body = buf.getvalue().splitlines(keepends=True)
    body += body[:5]
    rng.shuffle(body)
    assert read_codebook([header, *body]) == cb


def test_built_codebook_writes_like_the_tuple_writer():
    cb = build(best_params(Family.NONCONS3, 12, 3))
    buf, ref = io.StringIO(), io.StringIO()
    write_codebook(cb, buf)
    _reference_write_codebook(cb, ref)
    assert buf.getvalue() == ref.getvalue()
    assert read_codebook(io.StringIO(buf.getvalue())) == cb


@pytest.mark.parametrize("n", [1, 9, 100])
def test_empty_codebook(n):
    cb = codebook_from_words([], n)
    assert cb.cardinality == 0 and cb.redundancy == math.inf and cb.words == ()
    buf = io.StringIO()
    write_codebook(cb, buf)
    assert buf.getvalue() == f"# family=adhoc n={n} b=0 params=-\n"
    back = read_codebook(io.StringIO(buf.getvalue()))
    assert back == cb and back.rows.shape == (0, (n + 7) // 8)


def _matches_by_search(keys, want):
    """_enum._matches as it was before it counted dense keys: two binary
    searches of the sorted keys per want."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.searchsorted(ordered, want, "left")
    return order, first, np.searchsorted(ordered, want, "right") - first


def test_matches_counts_dense_keys_like_the_search():
    rng = np.random.default_rng(7)
    floor = 1 << 16  # _dense's floor: below it any key space is counted
    cases = [
        (rng.integers(0, 900, 4096), rng.integers(0, 1000, 500), 1000),  # wants past every key
        (rng.integers(0, 50, 30), np.arange(60), 60),  # most wants absent
        (np.array([], dtype=np.intp), rng.integers(0, 9, 20), 9),  # no keys
        (np.array([3]), np.array([0, 3, 3, 8]), 9),  # one key
        (rng.integers(0, floor, 100), rng.integers(0, floor, 300), floor),  # dense at the floor
        (rng.integers(0, floor + 1, 100), rng.integers(0, floor + 1, 300), floor + 1),  # just past it
        (rng.integers(0, floor + 9, floor + 9), rng.integers(0, floor + 9, 300), floor + 9),  # as many keys
        (rng.integers(0, floor + 9, floor + 8), rng.integers(0, floor + 9, 300), floor + 9),  # one key fewer
    ]
    for keys, want, size in cases:
        got, expect = _enum._matches(keys, want, size), _matches_by_search(keys, want)
        for a, b in zip(got, expect):
            assert a.tolist() == b.tolist(), (len(keys), size)
    # both paths are taken: counted up to the floor or the key count, searched past them
    assert [_enum._dense(size, len(keys)) for keys, _, size in cases] == [True] * 5 + [False, True, False]


@pytest.mark.parametrize("block", [13 * 12, 13 * 4, 13 * 3 + 12, 5])
def test_write_codebook_in_blocks_writes_like_the_tuple_writer(monkeypatch, block):
    # _enum.BLOCK // (n + 1) rows per block, at n = 12: 12 words in one block,
    # in 3 of 4 rows, in 4 of 3 rows (11 words: 3 full, the last of 2), and
    # one row per block where the budget is below one line
    cb = build(best_params(Family.BURST_EXACT, 12, 3))
    assert cb.cardinality == 12
    monkeypatch.setattr(_enum, "BLOCK", block)
    books = (cb, codebook_from_words(cb.words[:11], 12), codebook_from_words([], 12),
             codebook_from_words([], 12, cb.spec))
    for book in books:
        buf, ref = io.StringIO(), io.StringIO()
        write_codebook(book, buf)
        _reference_write_codebook(book, ref)
        assert buf.getvalue() == ref.getvalue()


@pytest.mark.parametrize("n", [1, 8, 9, 24])
def test_words_unpack_like_tolist(n):
    # words unpacks rows through struct; the tolist form is its oracle
    rng = random.Random(n)
    for k in (0, 1, 300):
        cb = codebook_from_words([tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(k)], n)
        want = tuple(map(tuple, np.unpackbits(cb.rows, axis=1, count=n).tolist()))
        assert cb.words == want
        assert all(type(bit) is int for w in cb.words for bit in w)


@pytest.mark.parametrize("words", [[], [()], [(), ()]])
def test_codebook_of_length_zero_is_refused(words):
    # as read_codebook does; two empty words would otherwise reach lexsort
    # and end in a TypeError
    with pytest.raises(DomainError, match="n=0"):
        codebook_from_words(words, 0)


def test_codebook_from_words_rejects_malformed_words():
    with pytest.raises(DomainError, match="share one length"):
        codebook_from_words([(0, 1, 1), (0, 1)], 3)
    with pytest.raises(DomainError, match="0 or 1"):
        codebook_from_words([(0, 1, 2)], 3)


@pytest.mark.parametrize("vs", [[16], [1 << 10], [-1], [3, -1], [1 << 64], [1.0], ["1"],
                                np.array([16]), np.array([-1]), np.array([1.0])])
def test_codebook_from_ints_refuses_values_outside_the_length(vs):
    # a value outside [0, 2^n) is refused, never cut to its low n bits
    with pytest.raises(DomainError, match=r"\[0, 2\^4\)"):
        codebook_from_ints(vs, 4)
    assert codebook_from_ints([15, 0, np.uint8(15)], 4).words == ((0, 0, 0, 0), (1, 1, 1, 1))
    assert codebook_from_ints(np.array([15, 0], dtype=np.uint64), 4).cardinality == 2
    assert codebook_from_ints([(1 << 64) - 1], 64).words == ((1,) * 64,)


def test_codebook_equality_takes_length_spec_and_words():
    a = codebook_from_words([parse_word("0110")], 4)
    assert a == codebook_from_words([parse_word("0110")] * 2, 4)
    assert a != codebook_from_words([parse_word("0111")], 4)
    assert a != codebook_from_words([parse_word("0110")], 4, CodeSpec(Family.CHENG1, 4, 2))
    assert a != codebook_from_words([parse_word("01100")], 5)


@pytest.mark.parametrize(
    "line, message",
    [
        ("0101", "share one length"),
        ("010101", "share one length"),
        ("01a10", "not a binary word"),
        ("01 10", "not a binary word"),
        ("0121", "not a binary word"),  # wrong length too: the bits are checked first
        ("01\u00e910", "not a binary word"),
    ],
)
def test_read_codebook_rejects_malformed_body_lines(line, message):
    text = f"# family=adhoc n=5 b=0 params=-\n01010\n{line}\n11000\n"
    with pytest.raises(DomainError, match=message):
        read_codebook(io.StringIO(text))


def test_read_codebook_strips_whitespace_around_lines():
    text = "# family=adhoc n=5 b=0 params=-\n01010  \n\t11000\r\n\n   \n"
    cb = read_codebook(io.StringIO(text))
    assert cb.words == (parse_word("01010"), parse_word("11000"))


def test_cheng1_pipeline_at_24_makes_no_word_tuples():
    cb = build(CodeSpec(Family.CHENG1, 24, 1))
    assert cb.cardinality == 671_092
    buf = io.StringIO()
    write_codebook(cb, buf)
    # recorded from the tuple-based build and writer
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "0cd9eb0b9ad093af89b44471a1b728e779b5e25beb9aabe981e1ad4fc4126a66"
    )
    assert verify.verify_code(cb, balls.del_exact(1)).passed
    assert "words" not in vars(cb)


def test_redundancy_report_fields(capsys):
    # the families whose at-most-2 component is VT with an exact-2-burst code
    # carry their record's note: tabulate ends its JSON and its text with it
    assert [f for f in Family if codes._record(f).note] == [Family.CL2, Family.AT_MOST_CONSECUTIVE]
    for family, b, noted in (("cl2", 2, True), ("at-most-consecutive", 3, True), ("burst-exact", 2, False)):
        argv = ["tabulate", "--family", family, "--b", str(b), "--n", "12"]
        assert main(argv + ["--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert [*record] == ["family", "b", "rows", *(["note"] if noted else [])]
        if noted:
            assert record["note"] == codes._record(parse_family(family)).note
            assert "two-adjacent-deletions" in record["note"] and last == f"note: {record['note']}"
        else:
            assert not last.startswith("note")


def test_build_cap():
    with pytest.raises(DomainError):
        build(CodeSpec(Family.CHENG1, BUILD_MAX_N + 2, 2))


def test_search_past_the_build_cap_refuses_only_the_wide_families():
    # cheng1 has no parameters to search, so best_params answers at any n;
    # past the build cap the other families search where their grids fit and
    # the wide ones are refused; building still stops at the build cap
    spec = best_params(Family.CHENG1, 30, 3)
    assert spec == CodeSpec(Family.CHENG1, 30, 3, ()) and best_params(Family.CHENG1, 300, 3).params == ()
    with pytest.raises(DomainError, match=f"build capped at n <= {BUILD_MAX_N}"):
        build(spec)
    assert best_params(Family.BURST_EXACT, 30, 3).params == (0, 0, 0)
    for family, b in sorted(WIDE, key=str):
        with pytest.raises(DomainError, match=f"the pair join stops at n = {BUILD_MAX_N}"):
            best_params(family, 48, b)


def test_huge_specs_are_refused_before_their_table(limited):
    # cheng1 at b = 10^8 is in the family's domain, but its table has 10^8 tie
    # forms: every entry that takes a spec refuses it at once, and builds none
    proc = limited(
        "import time\n"
        "from burstcodes import codes\n"
        "from burstcodes.codes import CodeSpec, Family\n"
        "n, b = 2 * 10**8, 10**8\n"
        "for call in (lambda: CodeSpec(Family.CHENG1, n, b, ()), lambda: codes.param_ranges(Family.CHENG1, n, b),\n"
        "             lambda: codes.best_params(Family.CHENG1, n, b), lambda: codes._best(Family.CHENG1, n, b)):\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "        raise AssertionError('accepted')\n"
        "    except codes.DomainError as exc:\n"
        "        assert str(exc) == 'cheng1 tables stop at 32 n b <= 2^20 residues at n >= 2b, got b=100000000'\n"
        "    assert time.perf_counter() - start < 0.1\n"
        "assert codes._family_table.cache_info().currsize == 0\n"
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


# Drawn library calls, all in one child process under the address-space
# limit: CodeSpec, param_ranges, param_fields, best_params, build and decode
# raise nothing but BurstCodesError. Lengths and burst sizes mix 0..64 with
# values up to 10^30, and b is often a fixed burst size (2..4) and n often a
# multiple of b or 6 b, so that many draws are in a family's domain; build and
# decode take the drawn spec and best_params' spec, and decode a word of
# length n - 4 .. n.
_LIBRARY_BOUNDARY = r"""
import sys
from hypothesis import HealthCheck, Phase, given, settings, strategies as st
from burstcodes import codes
from burstcodes.codes import CodeSpec, Family
from burstcodes.errors import BurstCodesError

sizes = st.one_of(st.integers(0, 64), st.integers(0, 10**30))


def attempt(call):
    try:
        return call()
    except BurstCodesError:
        return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None, phases=[Phase.generate],
          suppress_health_check=list(HealthCheck))
@given(st.data())
def boundary(data):
    family, b = data.draw(st.sampled_from(Family)), data.draw(st.one_of(st.integers(2, 4), sizes))
    n = data.draw(sizes) * data.draw(st.sampled_from([1, b, 6 * b]))
    params = tuple(data.draw(st.lists(st.integers(-1, 64), max_size=16)))
    y = data.draw(st.lists(st.integers(0, 1), min_size=64, max_size=64))[: max(0, n - data.draw(st.integers(0, 4)))]
    print(family.value, n, b, params, file=sys.__stdout__, flush=True)  # the last line names a call that hangs
    attempt(lambda: codes.param_ranges(family, n, b))
    attempt(lambda: codes.param_fields(family, b))
    for spec in attempt(lambda: CodeSpec(family, n, b, params)), attempt(lambda: codes.best_params(family, n, b)):
        if spec is not None:
            attempt(lambda: codes.build(spec))
            attempt(lambda: codes.decode(spec, y))


boundary()
"""


def test_library_boundary_raises_only_its_own_errors(limited):
    pytest.importorskip("hypothesis")
    proc = limited(_LIBRARY_BOUNDARY)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_target_models():
    assert target_model(CodeSpec(Family.CHENG1, 8, 2)).kind is balls.ErrorKind.DEL_EXACT
    assert (
        target_model(best_params(Family.C21, 8, 2)).kind is balls.ErrorKind.BURST_2_1
    )
