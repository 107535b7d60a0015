"""The layer timing tools under tools/ run against the library as it is, so
that a change to a private hook they use fails here rather than in the next
measurement."""

import importlib.util
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_layer_sweep_runs_at_a_small_length(monkeypatch, tmp_path):
    tool = _tool("bench_certify_layers")
    monkeypatch.setattr(tool, "N", 12)
    monkeypatch.setattr(tool, "ROUNDS", 1)
    monkeypatch.setattr(tool, "OUT", tmp_path / "BENCH_certify.json")
    paths = []
    for family, b in tool.SWEEPS:
        record = tool._sweep(family, b)  # checks every counter against _classes
        assert set(record["ms"]) == {str(L) for L in range(1, 12)}, (family, b)
        assert record["classes_ms"] > 0 and record["transfer_ms"] > 0
        paths.append(record["path"])
    assert set(paths) <= {"transfer", "pair join"}
    assert not any(tmp_path.iterdir())


def test_decode_layer_tool_alternates_two_codes_at_a_small_size(monkeypatch, tmp_path):
    tool = _tool("bench_decode_layers")
    monkeypatch.setattr(tool, "BLOCKS", 1)
    monkeypatch.setattr(tool, "ROUNDS", 2)
    monkeypatch.setattr(tool, "OUT", tmp_path / "BENCH_decode.json")
    src = str(_TOOLS.parent / "src")
    packages = {label: tool._load(f"burstcodes_decode_{label}", src) for label in ("one", "two")}
    figures = tool._measure(packages, 501)  # checks every output of both codes
    paths = {path for _, _, path in tool.SLOTS}
    for us in figures.values():
        assert set(us) == paths | {"all"} and min(us.values()) > 0
    assert not any(tmp_path.iterdir())
