import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burstcodes
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


def test_tabulate_columns(capsys):
    code, out = _capture(
        capsys,
        ["tabulate", "--family", "burst-exact", "--b", "2", "--n", "8,12",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload["rows"]] == [8, 12]
    for row in payload["rows"]:
        for col in (
            "redundancy_measured",
            "lower_bound",
            "cheng_baseline",
            "burst_exact_bound",
            "at_most_consecutive_bound",
            "noncons3_bound",
            "noncons4_bound",
        ):
            assert col in row
        assert row["redundancy_measured"] >= row["lower_bound"]


def test_tabulate_text_table(capsys):
    code, out = _capture(
        capsys, ["tabulate", "--family", "cheng1", "--b", "2", "--n", "8"]
    )
    assert code == 0
    header, row = out.splitlines()
    assert "cheng_baseline" in header
    assert "16" in row


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
