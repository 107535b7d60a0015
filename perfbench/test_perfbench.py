"""Smoke tests of the benchmark: every workload's full path at n <= 12, run
the way the benchmark is run, from a copy of the repository without .git."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _copy(dest: Path, with_src: bool = True) -> Path:
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    return _copy(tmp_path_factory.mktemp("bench") / "checkout")


def _run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_declared_metric(checkout, workload, trace):
    proc = _run(checkout, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert (checkout / ".perfbench-out" / f"trace-{workload}-seed3.json.gz").is_file()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_metrics_are_owned_by_some_workload():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    owned = {m for cls in workloads.WORKLOADS.values() for m in cls.layer_metrics}
    # The runner measures these two itself on every workload.
    owned |= {"enum.kernel_ms", "trace.overhead_ms"}
    assert owned == {m["name"] for m in DECLARED["per_layer"]}


def test_sampler_takes_its_time_out_of_operations_and_restores_the_alarm():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import reference
    finally:
        del sys.path[0]
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(reference.python_kernel) as sampler:
        start = time.perf_counter_ns()
        while time.perf_counter_ns() - start < 100_000_000:
            pass
        end = time.perf_counter_ns()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [h for t, h in zip(sampler.starts, sampler.handler_ns) if start <= t < end]
    assert inside
    assert sampler.own_ns(start, end) == end - start - sum(inside)
    assert sampler.ref_ns(start, end) > 0


def test_wrong_decodes_fail_the_run(tmp_path):
    broken = _copy(tmp_path / "checkout")
    with open(broken / "src" / "burstcodes" / "codes.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_decode = decode\n\n\n"
            "def decode(spec, y):\n"
            "    r = _decode(spec, y)\n"
            "    return DecodeResult(word=r.word[::-1], window=r.window, detail=r.detail)\n"
        )
    proc = _run(broken, "decode-mix", 0, "--smoke")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    bare = _copy(tmp_path / "bare", with_src=False)
    proc = _run(bare, "certify", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
