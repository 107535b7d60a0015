import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import burstcodes
from burstcodes import _enum, balls, bitseq, bounds, codes, rll, verify, vt
from burstcodes.cli import main, run
from burstcodes.codes import CodeSpec, Family
from burstcodes.errors import DecodeFailure, DomainError


def _capture(capsys, argv, stdin_text=None):
    code = run(argv, stdin_text=stdin_text)
    return code, capsys.readouterr().out


def test_bound_json(capsys):
    code, out = _capture(capsys, ["bound", "--n", "8", "--b", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_bound"] == "124/5"
    assert payload["transversal_weight"] == "124/5"
    assert "lower_bound" in payload["formulas"]


def test_bound_text(capsys):
    code, out = _capture(capsys, ["bound", "--n", "8", "--b", "2"])
    assert code == 0
    assert "upper_bound: 124/5" in out


def test_rll_encode_decode_round_trip(capsys):
    code, out = _capture(capsys, ["rll-encode"], stdin_text="0111111111111111\n")
    assert code == 0
    assert out.strip() == "01010010011001001"
    code, out = _capture(capsys, ["rll-decode"], stdin_text=out)
    assert code == 0
    assert out.strip() == "0111111111111111"


def test_build_verify_decode_flow(capsys, tmp_path):
    code, out = _capture(
        capsys, ["build", "--family", "burst-exact", "--n", "8", "--b", "2"]
    )
    assert code == 0
    assert out.startswith("# family=burst-exact n=8 b=2 params=")
    words = out.splitlines()[1:]
    assert words == sorted(words) and words

    code, vout = _capture(
        capsys,
        ["verify", "--family", "burst-exact", "--n", "8", "--b", "2", "--params", "best"],
    )
    assert code == 0
    assert "passed: true" in vout

    # corrupt the first codeword by a 2-burst at position 3 and decode it back
    w = words[0]
    corrupted = w[:2] + w[4:]
    code, dout = _capture(
        capsys,
        ["decode", "--family", "burst-exact", "--n", "8", "--b", "2", "--params", "best"],
        stdin_text=corrupted + "\n",
    )
    assert code == 0
    assert dout.strip() == w


def test_verify_json_and_violations_exit(capsys):
    code, out = _capture(
        capsys,
        [
            "verify",
            "--family", "cheng1", "--n", "8", "--b", "2", "--params", "best",
            "--model", "del-exact", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["pairs_checked"] == 120


def test_ball_listing(capsys):
    code, out = _capture(
        capsys,
        ["ball", "--model", "burst-2-1", "--b", "2"],
        stdin_text="010010\n",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ball(010010) model=burst-2-1 size=6"
    assert lines[1:] == sorted(["00010", "10010", "01010", "01110", "01000", "01001"])


def test_equiv_verb(capsys):
    code, out = _capture(
        capsys,
        ["equiv", "--n", "7", "--b", "2", "--model", "exact", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["equivalent"] is True


@pytest.mark.parametrize("n", ["-1", "0", "13"])
def test_equiv_out_of_range_n_exits_2(capsys, n):
    assert main(["equiv", "--n", n, "--b", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: pairwise sweep needs 1 <= n <= 12, got n={n}\n"


@pytest.mark.parametrize("n", [1036, 14290])
def test_bound_past_the_float_range_exits_2(capsys, n):
    # from n = 1036 at b = 2 the report's float upper bound overflows
    assert main(["bound", "--n", str(n), "--b", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: upper bound overflows a float at n={n}, b=2\n"


def test_bound_reports_just_below_the_float_range(capsys):
    code, out = _capture(capsys, ["bound", "--n", "1035", "--b", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["upper_bound_float"] > 1e308


_CL2_8 = CodeSpec(Family.CL2, 8, 2, (0, 0, 1, 0))

# One refusal of each kind that no other test reaches: (call, error, message).
_REFUSALS = {
    "spec-params": (lambda: CodeSpec(Family.CL2, 8, 2, (1, 2)), DomainError, "expects 4 parameters"),
    "spec-param-low": (lambda: CodeSpec(Family.CL2, 8, 2, (-1, 0, 0, 0)), DomainError,
                       r"^parameter a_vt=-1 outside \[0, 8\]$"),
    "spec-param-high": (lambda: CodeSpec(Family.CL2, 8, 2, (0, 0, 4, 0)), DomainError,
                        r"^parameter c2=4 outside \[0, 3\]$"),
    "codebook-empty": (lambda: codes.read_codebook([]), DomainError, "empty codebook file"),
    "codebook-header": (lambda: codes.read_codebook(["00000000"]), DomainError, "header"),
    "decode-deletions": (lambda: codes.decode(_CL2_8, (0,) * 5), DecodeFailure, "at most 2 deletions"),
    "rll-encode-length": (lambda: rll.rll_encode((0,)), DomainError, "length >= 2"),
    "flatten-ragged": (lambda: bitseq.flatten(((0, 1), (0,))), DomainError, "ragged"),
    "chunks-negative": (lambda: next(_enum.iter_chunks(-1)), DomainError, ">= 0"),
    "unpack-65": (lambda: _enum.unpack([0], 65), DomainError, "uint64"),
    "model-name": (lambda: balls.parse_model("bogus", 1), DomainError, "unknown error model"),
    "in-ball-short": (lambda: balls.in_ball((0, 0), 0, 2, balls.del_exact(3)), DomainError, "too short"),
    "tally-cap": (lambda: balls.ball_size_tally(25, 2), DomainError, "n <= 24"),
    "urll-cap-b": (lambda: rll.urll_cap(10, 2), DomainError, "b >= 3"),
    "rll-cap": (lambda: rll.RllSpec(5, 6), DomainError, "1 <= f <= n"),
    "ceil-log2": (lambda: rll.ceil_log2(0), DomainError, "positive"),
    "vt-length": (lambda: vt.VtParams(0, 0), DomainError, "length must be >= 1"),
    "svt-span": (lambda: vt.SvtParams(5, 1, 0, 0), DomainError, "P must be >= 2"),
    "svt-window": (lambda: vt.svt_decode((0,) * 7, vt.SvtParams(8, 3, 0, 0), 9), DomainError, "u must lie"),
    "model-b": (lambda: balls.ErrorModel(balls.ErrorKind.DEL_EXACT, 0), DomainError, "b must be >= 1"),
    "burst21-short": (lambda: balls.restricted_burst21_ball((0, 1), (0, 1), 1), DomainError, "too short"),
    "tally-n-b": (lambda: balls.ball_size_tally(3, 3), DomainError,
                  r"^word length 3 too short for del-exact\(b=3\)$"),
    "rll-enumerated-cap": (lambda: rll.rll_count_enumerated(rll.RllSpec(25, 3)), DomainError, "n <= 24"),
    "urll-spec-b": (lambda: rll.UrllSpec(12, 2), DomainError, "^universal constraint applies for b >= 3$"),
    "urll-spec-n": (lambda: rll.UrllSpec(0, 3), DomainError,
                    "^universal constraint needs length n >= 1, got n=0$"),
    "urll-member-length": (lambda: rll.urll_member((0,) * 5, rll.UrllSpec(6, 3)), DomainError,
                           "expected length 6, got 5"),
    "member-length": (lambda: codes.member(_CL2_8, (0,) * 7), DomainError, "expected length 8, got 7"),
    "vt-decode-length": (lambda: vt.vt_decode((0,) * 9, vt.VtParams(8, 0)), DomainError,
                         "expected received length 7, got 9"),
    "svt-decode-length": (lambda: vt.svt_decode((0,) * 9, vt.SvtParams(8, 3, 0, 0), 1), DomainError,
                          "expected received length 7, got 9"),
    "vt-decode-short": (lambda: vt.vt_decode((0,), vt.VtParams(1, 0)), DomainError, "code length >= 2"),
    "svt-length": (lambda: vt.SvtParams(1, 2, 0, 0), DomainError, "code length must be >= 2"),
    "svt-parity": (lambda: vt.SvtParams(5, 3, 0, 2), DomainError, "parity d must be 0 or 1"),
    "codebook-length": (lambda: codes.Codebook(0, np.zeros((1, 1), dtype=np.uint8)), DomainError,
                        "length must be >= 1"),
    "fields-huge-b": (lambda: codes.param_fields(Family.CHENG1, 10**8), DomainError,
                      r"^cheng1 tables stop at 32 n b <= 2\^20 residues at n >= 2b, got b=100000000$"),
    # the burst rule (_validate_burst), the one check of b for every spec entry
    "fields-b-low": (lambda: codes.param_fields(Family.BURST_EXACT, 0), DomainError,
                     r"^burst-exact needs b >= 2, got b=0$"),
    "fields-b-negative": (lambda: codes.param_fields(Family.BURST_EXACT, -5), DomainError,
                          r"^burst-exact needs b >= 2, got b=-5$"),
    "fields-b-fixed": (lambda: codes.param_fields(Family.CL2, 7), DomainError, r"^cl2 needs b = 2, got b=7$"),
    "fields-family": (lambda: codes.param_fields([], 2), DomainError, r"^family must be a Family, got \[\]$"),
    "fields-b-list": (lambda: codes.param_fields(Family.CHENG1, [2]), DomainError,
                      r"^burst size b must be an integer, got \[2\]$"),
    "spec-b-factorial": (lambda: CodeSpec(Family.AT_MOST_CONSECUTIVE, 6, 200, ()), DomainError,
                         r"^at-most-consecutive tables stop at 32 n b <= 2\^20 residues at n >= 2b, got b=200$"),
    # each rule of _validate_structure in its order: every case but the last
    # two also breaks the rule after its own (no b <= 128 breaks both n rules)
    "structure-b-domain": (lambda: codes.param_ranges(Family.CL2, 3, 129), DomainError,
                           r"^cl2 needs b = 2, got b=129$"),
    "structure-b-size": (lambda: codes.param_ranges(Family.CHENG1, 1, 129), DomainError,
                         r"^cheng1 tables stop at 32 n b <= 2\^20 residues at n >= 2b, got b=129$"),
    "structure-divisor": (lambda: codes.param_ranges(Family.BURST_EXACT, 1, 3), DomainError,
                          r"^burst-exact needs n a multiple of 3 at b=3, got n=1$"),
    "structure-least-n": (lambda: codes.param_ranges(Family.NONCONS4, 0, 4), DomainError,
                          r"^noncons4 needs n >= 12 at b=4, got n=0$"),
    "structure-table": (lambda: codes.param_ranges(Family.CHENG1, 384, 128), DomainError,
                        r"^cheng1 tables stop at 32 n b <= 2\^20 residues, got n=384, b=128$"),
    # the integer rule at the entries that take a length, burst size, run cap or span
    "vt-sizes-cap-float": (lambda: vt.vt_class_sizes(10, 2.5), DomainError, "^run cap must be an integer"),
    "vt-sizes-cap-list": (lambda: vt.vt_class_sizes(10, [3]), DomainError, "^run cap must be an integer"),
    "vt-sizes-n-float": (lambda: vt.vt_class_sizes(10.0), DomainError, "^code length n must be an integer"),
    "vt-best-rll-cap": (lambda: vt.vt_best_rll_param(10, 2.5), DomainError, "^run cap must be an integer"),
    "svt-sizes-span-float": (lambda: vt.svt_class_sizes(10, 2.5), DomainError,
                             "^position span P must be an integer"),
    "svt-sizes-span-list": (lambda: vt.svt_class_sizes(10, [3]), DomainError,
                            "^position span P must be an integer"),
    "svt-sizes-n-float": (lambda: vt.svt_class_sizes(10.0, 3), DomainError, "^code length n must be an integer"),
    "svt-best-span-str": (lambda: vt.svt_best_params(10, "3"), DomainError,
                          "^position span P must be an integer"),
    "greedy-n-float": (lambda: verify.greedy_code(8.0, balls.del_exact(1)), DomainError,
                       "^word length n must be an integer"),
    "equiv-n-float": (lambda: verify.equivalence_check(6.0, 2, "exact"), DomainError,
                      "^code length n must be an integer"),
    "equiv-flavor-list": (lambda: verify.equivalence_check(6, 2, ["exact"]), DomainError,
                          r"^flavor must be one of .*, got \['exact'\]$"),
    "events-n-float": (lambda: balls.event_count(5.0, balls.del_exact(1)), DomainError,
                       "^word length n must be an integer"),
    "urll-cap-n-str": (lambda: rll.urll_cap("10", 3), DomainError, "^n must be an integer"),
    "array-view-float": (lambda: bitseq.array_view((0, 1, 1, 0), 2.0), DomainError,
                         "^row count b must be an integer"),
    "array-view-str": (lambda: bitseq.array_view((0, 1, 1, 0), "2"), DomainError,
                       "^row count b must be an integer"),
    "enumerate-n-float": (lambda: next(bitseq.enumerate_words(3.0)), DomainError,
                          "^word length n must be an integer"),
    "ball-formula-b-float": (lambda: balls.ball_size_formula((0, 1, 1, 0), 2.0), DomainError,
                             "^burst size b must be an integer"),
    # the per-word paper functions check their words, bits and elements
    "burst21-bit": (lambda: balls.restricted_burst21_ball((0, 1, 1, 1), (0, 1), 5), DomainError,
                    r"^word bits must be 0 or 1, got \(5,\)$"),
    "burst21-word": (lambda: balls.restricted_burst21_ball((0, 2, 1, 1), (0, 1), 1), DomainError,
                     r"^word bits must be 0 or 1, got \(0, 2, 1, 1\)$"),
    "ball-formula-text": (lambda: balls.ball_size_formula("0110", 1), DomainError,
                          "^word bits must be 0 or 1, got '0110'$"),
    "ball-formula-word": (lambda: balls.ball_size_formula((0, 2, 1, 1), 1), DomainError,
                          r"^word bits must be 0 or 1, got \(0, 2, 1, 1\)$"),
    "urll-member-word": (lambda: rll.urll_member((0, 2, 1, 1, 1, 1), rll.UrllSpec(6, 3)), DomainError,
                         r"^word bits must be 0 or 1, got \(0, 2, 1, 1, 1, 1\)$"),
    "in-ball-element": (lambda: balls.in_ball((4,), 0, 5, balls.del_exact(1)), DomainError,
                        r"^ball element must be a \(length, value\) pair, got \(4,\)$"),
    # b >= 1 for the exact-burst counting laws, taken through del_exact(b)
    "ball-formula-b-0": (lambda: balls.ball_size_formula((0, 1, 1, 0), 0), DomainError,
                         "^burst size b must be >= 1$"),
    "ball-formula-b-negative": (lambda: balls.ball_size_formula((0, 1, 1, 0), -1), DomainError,
                                "^burst size b must be >= 1$"),
    "distribution-b-0": (lambda: balls.ball_size_distribution(5, 0), DomainError,
                         "^burst size b must be >= 1$"),
    "distribution-b-negative": (lambda: balls.ball_size_distribution(5, -1), DomainError,
                                "^burst size b must be >= 1$"),
    "references-b-0": (lambda: bounds.reference_redundancies(10, 0), DomainError, "got n=10, b=0$"),
    "references-b-negative": (lambda: bounds.reference_redundancies(10, -1), DomainError, "got n=10, b=-1$"),
    "references-n-0": (lambda: bounds.reference_redundancies(0, 1), DomainError, "got n=0, b=1$"),
    "references-n-negative": (lambda: bounds.reference_redundancies(-4, 2), DomainError, "got n=-4, b=2$"),
    "cli-b": (["tabulate", "--family", "burst-exact", "--n", "12"], 2, "--b is required"),
    # every verb refuses a spec whose table of about b forms is too large
    # before it is built, from b alone (_validate_burst)
    "cli-past-reach": (["tabulate", "--family", "cheng1", "--b", "100000000", "--n", "200000000"], 2,
                       "cheng1 tables stop at 32 n b <= 2^20 residues at n >= 2b, got b=100000000"),
    "cli-build-past-cap": (["build", "--family", "cheng1", "--b", "100000000", "--n", "200000000",
                            "--params", "best"], 2, "cheng1 tables stop at 32 n b <= 2^20 residues"),
    "cli-verify-past-cap": (["verify", "--family", "cheng1", "--b", "100000000", "--n", "200000000",
                             "--params", "best"], 2, "cheng1 tables stop at 32 n b <= 2^20 residues"),
    "cli-decode-table": (["decode", "--family", "cheng1", "--b", "100000000", "--n", "200000000"], 2,
                         "cheng1 tables stop at 32 n b <= 2^20 residues"),
    # a small table past what the counters and build reach
    "cli-past-reach-small-b": (["tabulate", "--family", "burst-exact", "--b", "2", "--n", "64"], 2,
                               "cannot count the classes at n=64"),
    "cli-build-past-cap-small-b": (["build", "--family", "cheng1", "--b", "2", "--n", "28"], 2,
                                   "build capped at n <= 26"),
    "cli-verify-past-cap-small-b": (["verify", "--family", "cheng1", "--b", "2", "--n", "28"], 2,
                                    "build capped at n <= 26"),
    "cli-params": (["decode", "--family", "cl2", "--n", "8"], 2, "--params is required"),
    # a value with a leading minus is the flag's, with or without "="
    "cli-params-minus": (["build", "--family", "c21", "--n", "8", "--params", "-1,0"], 2,
                         "error: parameter a=-1 outside [0, 14]"),
    "cli-params-minus-bound": (["build", "--family", "c21", "--n", "8", "--params=-1,0"], 2,
                               "error: parameter a=-1 outside [0, 14]"),
    # 2^10 x 115,910 ball keys, refused before any event table is built
    "cli-equiv-keys": (["equiv", "--n", "10", "--b", "9", "--model", "at-most-nonconsecutive"], 2,
                       "more than 4^12 ball keys"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_each_refusal_raises_its_error(capsys, case):
    call, error, message = _REFUSALS[case]
    if isinstance(call, list):  # a CLI invocation: its exit code and one stderr line
        assert main(call) == error
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and message in captured.err
    else:
        with pytest.raises(error, match=message):
            call()


def test_equiv_unknown_model_names_the_flag(capsys):
    assert main(["equiv", "--n", "6", "--b", "2", "--model", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --model must be one of ['at-most-consecutive', 'at-most-nonconsecutive', 'exact'],"
        " got 'bogus'\n"
    )


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--model", "del-at-most-consecutive", "--b", "2", "--seed", "9",
            "--format", "json"]
    stdin = "0110100101\n1110001110\n"
    code, out1 = _capture(capsys, argv, stdin_text=stdin)
    assert code == 0
    code, out2 = _capture(capsys, argv, stdin_text=stdin)
    assert out1 == out2
    rows = [json.loads(line) for line in out1.splitlines()]
    assert len(rows) == 2
    assert rows[0]["event"]["seed"] == 9 and rows[1]["event"]["seed"] == 10


# the lower bound, then every family's own column in registry order
_COLUMNS = [
    "lower_bound",
    "cheng_baseline",
    "burst_exact_bound",
    "two_burst_reference",
    "at_most_consecutive_bound",
    "burst21_bound",
    "noncons3_bound",
    "noncons4_bound",
]


def test_tabulate_columns(capsys):
    for family, b, lengths, own in (
        ("burst-exact", ["--b", "2"], "8,12", "burst_exact_bound"),
        ("c21", [], "8,10", "burst21_bound"),
        ("cl2", [], "8", "two_burst_reference"),
    ):
        argv = ["tabulate", "--family", family, "--n", lengths, *b]
        code, out = _capture(capsys, argv + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [r["n"] for r in payload["rows"]] == [int(t) for t in lengths.split(",")]
        for row in payload["rows"]:
            assert list(row) == ["n", "params", "cardinality", "redundancy_measured", *_COLUMNS]
            want = bounds.reference_redundancies(row["n"], payload["b"])[own]
            assert row[own] == round(want, 4), (family, own)
            assert row["redundancy_measured"] >= row["lower_bound"]
        code, text = _capture(capsys, argv)
        assert text.splitlines()[0].split() == list(payload["rows"][0])


def test_tabulate_text_table(capsys):
    code, out = _capture(
        capsys, ["tabulate", "--family", "cheng1", "--b", "2", "--n", "8"]
    )
    assert code == 0
    header, row = out.splitlines()
    assert "cheng_baseline" in header
    assert "16" in row


# stdout sha256 and exit status of main() for each (argv, stdin), recorded
# before the verbs became one table; the text of every verb and format, the
# violation lines of a failing verify, empty input, and failures that emit
# nothing (the sha256 of empty output is e3b0c442...).
_PINNED = [
    (["bound", "--n", "8", "--b", "2"], None, 0,
     "cd64bd633fcd581ca5f44f6791162883cc19c4465b15d780e21f1605f17a3215"),
    (["bound", "--n", "8", "--b", "2", "--format", "json"], None, 0,
     "8a6d186bc49ff073498e89b08cc7ad1922efed43259a6e0bd0256afa73f6d5f4"),
    (["build", "--family", "burst-exact", "--n", "8", "--b", "2"], None, 0,
     "2dc3c59e95411b4b867c04c2d8f975e89fc3751b14764ed24cbe09dc0c4149a9"),
    (["build", "--family", "c21", "--n", "10"], None, 0,
     "f1106336fc7b28801c75139a8c7d6652e15114fc384396b4b7cb0e46f356aad8"),
    (["build", "--family", "noncons3", "--n", "12", "--b", "3", "--params", "best"], None, 0,
     "a7dae041e740249d7ab40281ee7fc108a6d086cf974dc6b829f426fa8733d807"),
    (["verify", "--family", "burst-exact", "--n", "8", "--b", "2"], None, 0,
     "f7624077ec1f4dacc8ff0b11b727ab2104ea1704dff51ec4e744951a3e891823"),
    (["verify", "--family", "burst-exact", "--n", "8", "--b", "2", "--format", "json"], None, 0,
     "c83cb1900dec2b94891998fd02d3445ad32c67ecbb1854aa4c329209f6f6d809"),
    (["verify", "--family", "cheng1", "--n", "8", "--b", "2",
      "--model", "del-at-most-consecutive"], None, 1,
     "fb51d94369cae0008877b961402af2628ae14c097eacba1f8bc297dae149dff8"),
    (["verify", "--family", "cheng1", "--n", "8", "--b", "2",
      "--model", "del-at-most-consecutive", "--format", "json"], None, 1,
     "b38232ebd56fc8a73e2e71dcfcf6e13c0e5ad00ea20cbac25ee498db7f4d3d07"),
    (["verify", "--family", "c21", "--n", "8", "--params", "1,2"], None, 0,
     "d7f6ec05650361fbef2cd6907aba7e7a7c9c8ca2355274a4bba3f41a4aea7161"),
    (["decode", "--family", "burst-exact", "--n", "8", "--b", "2", "--params", "best"],
     "000010\n10000000\n101100\n", 0,
     "36e03288a57c7e35263d85f59c944e20215df581e37e2999ba09e8245cd5efef"),
    (["decode", "--family", "burst-exact", "--n", "8", "--b", "2", "--params", "best"],
     "001101\n\n010001\n", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["decode", "--family", "burst-exact", "--n", "8", "--b", "2", "--params", "best"], "", 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["decode", "--family", "c21", "--n", "8", "--params", "0,0"], "11111111\n", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["decode", "--family", "cheng1", "--n", "12", "--b", "3"], "000000000\n000000000000\n", 0,
     "73e8a7e1710e4495b2cf4a722a2cc39cc143144cac8e64f66add5b469539c08a"),
    (["rll-encode"], "0111111111111111\n0101\n", 0,
     "2df8717ef3596a4ba6f88292b484b3295ab4a30d299f4b50b93b7e7f82d89a7f"),
    (["rll-encode"], "", 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["rll-decode"], "01010010011001001\n", 0,
     "a443317aa24559bb9b3391c93ad9cbbea838be831593f1c704b74b4364eefcfb"),
    (["rll-decode"], "0000000000000000\n", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["ball", "--model", "burst-2-1"], "010010\n", 0,
     "79d0f817ed5a160d4e771c972efb6d32ee2d757cd1f63a90d8c4b43230740ed5"),
    (["ball", "--model", "burst-2-1", "--format", "json"], "010010\n", 0,
     "06391a7ab190442340acb92e1aa6bc3f8dccc35d467323a48a255f6c1020dc87"),
    (["ball", "--model", "del-exact", "--b", "2"], "0110\n111000\n", 0,
     "082cf8f77603cdd7701fc567e68a8c29f891c24b58f0f82ca88cc7cef1038f96"),
    (["ball", "--model", "ins-at-most-nonconsecutive", "--b", "3", "--format", "json"], "0110\n", 0,
     "c4fd046425a4442cd15a382e52a6b457e821309b3e123a489a953d72cc4937af"),
    (["equiv", "--n", "7", "--b", "2"], None, 0,
     "492d897c89b877f8212967cef8be1273c0346928767a100563cfa1236194b41d"),
    (["equiv", "--n", "7", "--b", "2", "--model", "exact", "--format", "json"], None, 0,
     "ec95517ad961f5c6fd3dbedd1547fd94012a866388ea3d7899dbd0f5ff49c678"),
    (["equiv", "--n", "8", "--b", "3", "--model", "at-most-nonconsecutive"], None, 0,
     "492d897c89b877f8212967cef8be1273c0346928767a100563cfa1236194b41d"),
    (["simulate", "--model", "del-exact", "--b", "2", "--seed", "7", "--format", "json"],
     "0110100101\n", 0,
     "3a5d19ee39e87c4aa9d875d994ceaf041b69b1e104f6e2eec285851f311ff49f"),
    (["simulate", "--model", "ins-at-most-consecutive", "--b", "3", "--seed", "3"],
     "0110100101\n1110001110\n", 0,
     "e27c3d5e9a609e64e85dd95f600bd1ae81b20a387bd32a2540bbc59ce4a56e25"),
    (["simulate", "--model", "del-exact", "--b", "2"], "", 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # b does not divide n - b: the transversal sums of odd lengths
    (["bound", "--n", "9", "--b", "2", "--format", "json"], None, 0,
     "c0b290945459a5cb47ddd6348ffe34be58b1549eafb4b8bb9eb64842e248ccb0"),
    (["bound", "--n", "19", "--b", "2", "--format", "json"], None, 0,
     "9b1b64b256d300372a26dc089cdcc42544d7f2f114b868b3276a78472e6bc61c"),
    # tabulate: the five families without a note print what they printed before
    # notes were added; cl2 and at-most-consecutive end with theirs
    (["tabulate", "--family", "cheng1", "--b", "3", "--n", "9,12,24,60"], None, 0,
     "f27aad8e3cd0d330781e60c356f513dc18c5a1872f8beeafe41cc6c848a5abbb"),
    (["tabulate", "--family", "cheng1", "--b", "3", "--n", "9,12,24,60", "--format", "json"], None, 0,
     "e40f1730134cc1ccfc472b8572972bf37286221b3ba1c3f42236861bd2de8daa"),
    (["tabulate", "--family", "burst-exact", "--b", "2", "--n", "8,16,32,62"], None, 0,
     "582affd1ba017d0b88d663a2aa3a98c9063f1cc53ac3ed9b33afc9d5eb31e7cd"),
    (["tabulate", "--family", "burst-exact", "--b", "2", "--n", "8,16,32,62", "--format", "json"], None, 0,
     "67d26c7dac08bd326dc61f83f5fa1042b9106c59caf8e27632442780bb4f3669"),
    (["tabulate", "--family", "c21", "--n", "4,10,16,24"], None, 0,
     "a7fe92b7da7fb4effd85e99db4146d4d5b28b0af1f2f8de62a834bac1e08f158"),
    (["tabulate", "--family", "c21", "--n", "4,10,16,24", "--format", "json"], None, 0,
     "ed1970ca4b36c2a48bbf29e3c7b5c3e8d63d68333c61f47f09dacab937133c6f"),
    (["tabulate", "--family", "noncons3", "--n", "12,18"], None, 0,
     "d28ad4795e0385ba800d2ab59ee65b97e869c4a1663928172753ba8129950581"),
    (["tabulate", "--family", "noncons3", "--n", "12,18", "--format", "json"], None, 0,
     "0c6025460c597f4281111d00e9cb9821864de066cdaf03804a3bef8caa6c9a19"),
    (["tabulate", "--family", "noncons4", "--n", "24"], None, 0,
     "7c6b8045739772a9f1167f14c30caea2ca06fb63dee9006bb78e8d832180a1a0"),
    (["tabulate", "--family", "noncons4", "--n", "24", "--format", "json"], None, 0,
     "6341a5c95e5ba1bae7f1f8710d4d01ffd68df039de1ea6d84281ebabc24fa8a0"),
    (["tabulate", "--family", "cl2", "--n", "8,16,32"], None, 0,
     "407a448998f96e846afcb4ab3975e8551e0acf552d1cc16bf1a35100b1e528c0"),
    (["tabulate", "--family", "cl2", "--n", "8,16,32", "--format", "json"], None, 0,
     "2fa90452577c129b3a0e39f08f4f851f2673de317352aa88faf18cd4a03da16d"),
    (["tabulate", "--family", "at-most-consecutive", "--b", "3", "--n", "6,12,18"], None, 0,
     "9a30fe25c9844170101aac733d9b2de67708b19d31dacddc8a0f7bbb28b18afb"),
    (["tabulate", "--family", "at-most-consecutive", "--b", "3",
      "--n", "6,12,18", "--format", "json"], None, 0,
     "987ca52b3d13573e91c0b0ca36c6702223ed78f7c47a2faa7827966b50cd660d"),
]


@pytest.mark.parametrize("argv, stdin, status, digest", _PINNED,
                         ids=[f"{i:02d}-{argv[0]}" for i, (argv, *_) in enumerate(_PINNED)])
def test_output_pinned(capsys, monkeypatch, argv, stdin, status, digest):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    assert main(argv) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_decode_parameterless_family_past_the_search_cap(capsys):
    # a 3-burst deleted from the all-zero cheng1 word of length 30
    code, out = _capture(
        capsys, ["decode", "--family", "cheng1", "--n", "30", "--b", "3"], stdin_text="0" * 27 + "\n"
    )
    assert code == 0
    assert out == "0" * 30 + "\n"
    assert main(["build", "--family", "cheng1", "--n", "30", "--b", "3"]) == 2
    assert "build capped at n <= 26" in capsys.readouterr().err


def test_decode_takes_tables_up_to_one_chunk_of_residues(capsys):
    # 32 n b = 2^20 at n = 256, b = 128: decoded; one row longer is refused
    argv = ["decode", "--family", "cheng1", "--n", "256", "--b", "128"]
    assert _capture(capsys, argv, stdin_text="0" * 128 + "\n") == (0, "0" * 256 + "\n")
    assert main(argv[:3] + ["--n", "384", "--b", "128"]) == 2
    assert capsys.readouterr().err == "error: cheng1 tables stop at 32 n b <= 2^20 residues, got n=384, b=128\n"


def test_wide_families_past_the_build_cap_exit_2_at_once(peak_rss_mb):
    # their transfer grids would hold 10^8 cells and more, and the pair join
    # stops at the build cap: every valid n in 28..48 is refused before any
    # part is tabulated, each in under a second, all under 100 MB
    peak = peak_rss_mb(
        "import time\n"
        "from burstcodes import codes\n"
        "from burstcodes.cli import main\n"
        "refused = 0\n"
        "for family, b in (('at-most-consecutive', 3), ('at-most-consecutive', 4),\n"
        "                  ('noncons3', 3), ('noncons4', 4)):\n"
        "    for n in range(28, 49):\n"
        "        try:\n"
        "            codes._validate_structure(codes.Family(family), n, b)\n"
        "        except codes.DomainError:\n"
        "            continue\n"
        "        start = time.perf_counter()\n"
        "        assert main(['tabulate', '--family', family, '--b', str(b), '--n', str(n)]) == 2\n"
        "        assert time.perf_counter() - start < 1, (family, n)\n"
        "        refused += 1\n"
        "assert refused == 10, refused\n"
    )
    assert peak < 100, peak


@pytest.mark.parametrize(
    "argv, word",
    [
        (["ball", "--model", "ins-exact", "--b", "18"], "0101"),
        (["simulate", "--model", "ins-exact", "--b", "40"], "0110100101"),
        (["ball", "--model", "del-at-most-nonconsecutive", "--b", "40"], "01" * 30),
    ],
)
def test_oversized_event_tables_exit_2_at_once(capsys, monkeypatch, argv, word):
    monkeypatch.setattr(sys, "stdin", io.StringIO(word + "\n"))
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "events; tables stop at 1048576" in captured.err


def test_decode_failure_exit_code(capsys, tmp_path):
    # length-8 input that is not a codeword of the class -> identity pass-through fails
    bad = tmp_path / "in.txt"
    bad.write_text("11111111\n", encoding="utf-8")
    code = main(["decode", "--family", "c21", "--n", "8", "--params", "0,0",
                 "--in", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "decode failure" in captured.err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["build", "--family", "bogus", "--n", "8"])
    assert exc.value.code == 2


def test_noncons4_builds_at_24_without_a_gate(capsys, tmp_path):
    out = tmp_path / "code.txt"
    code = main(["build", "--family", "noncons4", "--n", "24", "--b", "4", "--params", "best",
                 "--out", str(out)])
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "# family=noncons4 n=24 b=4 params=1,2,4,1,10,2,10,2,3,0,14,0,14,0"
    capsys.readouterr()


def test_non_integer_params_exit_code(capsys):
    code = main(["build", "--family", "burst-exact", "--n", "8", "--b", "2", "--params", "x,y,z"])
    assert code == 2
    assert "--params" in capsys.readouterr().err


@pytest.mark.parametrize("lengths", ["8,x", "8,,10"])
def test_non_integer_lengths_exit_code(capsys, lengths):
    code = main(["tabulate", "--family", "burst-exact", "--b", "2", "--n", lengths])
    assert code == 2
    assert "--n" in capsys.readouterr().err


def test_missing_input_file_exit_code(capsys, tmp_path):
    code = main(["rll-decode", "--in", str(tmp_path / "missing.txt")])
    assert code == 2
    assert "--in" in capsys.readouterr().err


def test_undecodable_input_file_exit_code(capsys, tmp_path):
    binary = tmp_path / "words.bin"
    binary.write_bytes(b"\xff\xfe01\n")
    code = main(["rll-decode", "--in", str(binary)])
    assert code == 2
    assert "--in" in capsys.readouterr().err


def test_output_to_directory_exit_code(capsys, tmp_path):
    code = main(["build", "--family", "burst-exact", "--n", "8", "--b", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(burstcodes.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "burstcodes", "bound", "--n", "12", "--b", "2", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "upper_bound" in json.loads(proc.stdout)


# Drawn CLI runs, all in one child process under an address-space limit: each
# exits 0, 1 or 2, a failure says so in one stderr line and no traceback, and
# a second run prints the same. Lengths and burst sizes mix 0..64 with values
# up to 10^30; ball, simulate and decode read one fixed word. build, verify
# and decode skip n = 17..26, where a build and its verify take seconds.
_BOUNDARY = r"""
import contextlib, io, sys
from hypothesis import HealthCheck, Phase, given, settings, strategies as st
from burstcodes import codes
from burstcodes.balls import ErrorKind
from burstcodes.cli import main
from burstcodes.codes import Family
from burstcodes.verify import _FLAVORS

ints = st.one_of(st.integers(0, 64), st.integers(0, 10**30))
sizes = ints.map(str)
families = st.sampled_from([f.value for f in Family])
values = st.one_of(st.sampled_from(["best", "-"]), st.lists(st.integers(-1, 40), max_size=8).map(
    lambda ps: ",".join(map(str, ps))))
# both spellings, --params=V and --params V, take a value with a leading minus
params = st.one_of(values.map(lambda v: ("--params=" + v,)), values.map(lambda v: ("--params", v)))


def in_domain(family, n, b):
    try:
        return codes._validate_structure(family, n, b)
    except codes.DomainError:
        return None


def spec(verb, family_n_b, params):
    family, n, b = family_n_b
    return verb, "--family", family, "--n", str(n), "--b", str(b), *params


# a spec in its family's domain at n <= 16, or drawn flags with n outside 17..26
small = [(f.value, n, b) for f in Family for b in range(1, 5) for n in range(17) if in_domain(f, n, b)]
lengths = st.one_of(st.integers(0, 16), st.integers(27, 64), st.integers(0, 10**30))
specs = st.builds(spec, st.sampled_from(["build", "verify", "decode"]),
                  st.one_of(st.sampled_from(small), st.tuples(families, lengths, ints)), params)
argvs = st.one_of(
    st.tuples(st.just("bound"), st.just("--n"), sizes, st.just("--b"), sizes),
    st.tuples(st.just("tabulate"), st.just("--family"), families, st.just("--n"), sizes, st.just("--b"), sizes),
    specs,
    st.tuples(st.sampled_from(["ball", "simulate"]), st.just("--model"),
              st.sampled_from([k.value for k in ErrorKind]), st.just("--b"), sizes),
    st.tuples(st.just("equiv"), st.just("--n"), st.integers(0, 10).map(str), st.just("--b"), sizes,
              st.just("--model"), st.sampled_from(sorted(_FLAVORS))),
)


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO("0110100101\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=400, deadline=None, phases=[Phase.generate],
          suppress_health_check=list(HealthCheck))
@given(argvs)
def boundary(argv):
    print(*argv, file=sys.__stdout__, flush=True)  # the last line names a command that hangs
    code, out, err = cli(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code:
        assert len(err.splitlines()) == 1, err
    assert cli(argv) == (code, out, err)


boundary()
"""


def test_cli_boundary_exits_cleanly_on_drawn_arguments(limited):
    pytest.importorskip("hypothesis")
    proc = limited(_BOUNDARY)
    assert proc.returncode == 0, proc.stderr[-4000:]
