"""tools/bench_layers.py runs every workload against the library as it is,
at perfbench's smoke sizes, so that a change to a function or private hook
it times fails here rather than in the next measurement."""

import functools
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC, _TESTS = str(_ROOT / "src"), str(_ROOT / "tests")


@functools.cache  # one import: it puts src/ and perfbench/ on sys.path
def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", _ROOT / "tools" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_files() -> dict:
    return {path.name: path.read_bytes() for path in _ROOT.glob("BENCH_*.json")}


@pytest.mark.parametrize("workload", ["certify", "decode-mix", "ball-census"])
def test_every_stage_is_timed_on_two_versions(monkeypatch, workload):
    tool = _tool()
    monkeypatch.setattr(tool, "SMOKE", True)
    monkeypatch.setattr(tool, "ROUNDS", 2)
    before = _bench_files()
    figures = tool.measure(workload, {"one": _SRC, "two": _SRC}, 501)  # checks every output
    stages = [stage for stage, _, _ in tool.STAGES[workload](tool._load("burstcodes_check", _SRC), 501)]
    assert set(figures) == {"one", "two"}
    for record in figures.values():
        assert list(record["stages"]) == list(dict.fromkeys(stages))
        assert all(s["calls"] > 0 and s["call_us"] > 0 for s in record["stages"].values())
        # minor page faults per call beside the CPU time: a count, often 0
        assert all(s["call_faults"] >= 0 for s in record["stages"].values())
        assert record["pass_ms"] > 0
    assert _bench_files() == before


@pytest.mark.parametrize("code, message", [
    ([f"a={_SRC}", f"a={_SRC}"], "label 'a' given twice"),
    ([_SRC], f"--code {_SRC!r} is not LABEL=DIR"),
    ([f"a={_TESTS}"], f"no burstcodes/__init__.py under {_TESTS!r}"),
], ids=["repeated-label", "no-equals", "no-package"])
def test_bad_codes_end_in_one_line(code, message):
    with pytest.raises(SystemExit) as stop:
        _tool()._codes(code)
    assert str(stop.value) == f"bench_layers: {message}"


def test_short_stages_are_timed_over_several_calls(monkeypatch):
    # each call of a stage is repeated until the stage fills about FILL_S
    # seconds of a pass; calls stays the calls per pass
    tool = _tool()
    monkeypatch.setattr(tool, "SMOKE", True)
    monkeypatch.setattr(tool, "ROUNDS", 1)
    monkeypatch.setattr(tool, "FILL_S", 0.05)
    stages = tool.measure("ball-census", {"one": _SRC, "two": _SRC}, 501)["one"]["stages"]
    assert all(s["calls"] == 1 and s["repeats"] >= 1 for s in stages.values())
    assert max(s["repeats"] for s in stages.values()) > 1
    monkeypatch.setattr(tool, "FILL_S", 0.0)
    stages = tool.measure("ball-census", {"one": _SRC}, 501)["one"]["stages"]
    assert all(s["repeats"] == 1 for s in stages.values())
