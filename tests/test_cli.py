import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import burstcodes
from burstcodes import bounds
from burstcodes.cli import main, run


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


@pytest.mark.parametrize("n", ["-1", "0", "11"])
def test_equiv_out_of_range_n_exits_2(capsys, n):
    assert main(["equiv", "--n", n, "--b", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: pairwise sweep needs 1 <= n <= 10, got n={n}\n"


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
