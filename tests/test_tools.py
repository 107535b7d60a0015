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
