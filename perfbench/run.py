"""Run one benchmark workload, check its outputs and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, decode-mix, ball-census (see workloads.py and README.md).
The set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS,
and its median is ``setup_s``; then
operations run one after another until ``--seconds`` have passed (the last
one is allowed to finish). Every output is checked; a wrong or failed
operation makes the exit status 1.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics. Operation times are given in ``ref``, the
time of one call of the workload's reference kernel, sampled evenly through
the run (reference.py); the wall-clock figures are printed on the line
before. With ``--trace 1`` operations alternate
between untraced and traced, the last line holds the per-layer metrics, and
the spans are written to ``.perfbench-out/`` at exit. ``--smoke`` runs every
workload at n <= 12 and is what the benchmark's own tests use.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# Set-up runs at least this many times and, except in smoke runs, for at
# least this long; its median is setup_s.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# The machine has two cores and the benchmark runs one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("certify", "decode-mix", "ball-census"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run at n <= 12")
    return ap.parse_args(argv)


def _git_sha() -> str | None:
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def _run_untraced(wl, seconds: float):
    """Run operations until `seconds` have passed, at least one, while a
    reference.Sampler times the workload's kernel. Returns (wall ns per
    operation less the sampler's time, ref per operation, kernel ns per
    sample, failed count)."""
    from reference import Sampler

    spans_ns = []
    failed = i = 0
    with Sampler(wl.reference) as sampler:
        deadline = time.perf_counter() + seconds
        while i == 0 or time.perf_counter() < deadline:
            start = time.perf_counter_ns()
            out = wl.op(i)
            spans_ns.append((start, time.perf_counter_ns()))
            failed += not wl.check(i, out)
            i += 1
    wall = [sampler.own_ns(s, e) for s, e in spans_ns]
    rel = [w / sampler.ref_ns(s, e) for w, (s, e) in zip(wall, spans_ns)]
    return wall, rel, sampler.kernel_ns, failed


def _run_ops(wl, seconds: float, tracer):
    """Run operations until `seconds` have passed; odd-numbered operations
    are traced and at least one of each kind runs. Returns (untraced ns,
    traced ns, failed count)."""
    plain: list[int] = []
    traced: list[int] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or not plain or not traced:
        on = i % 2 == 1
        if on:
            tracer.install()
            span = tracer.begin_op(wl.label(i))
        t0 = time.perf_counter_ns()
        out = wl.op(i)
        elapsed = time.perf_counter_ns() - t0
        if on:
            tracer.end_op(span)
            tracer.uninstall()
        (traced if on else plain).append(elapsed)
        failed += not wl.check(i, out)
        i += 1
    return plain, traced, failed


def _p50_tail(xs: list[float]) -> tuple[float, float]:
    """The median and the tail: the highest percentile, up to the 99th, with
    at least ten operations beyond it; with 20 operations or fewer the tail
    is the median."""
    tail_q = min(99, max(50, 100 + (-1000 // len(xs))))
    tail = statistics.quantiles(xs, n=100)[tail_q - 1] if len(xs) > 1 else xs[0]
    return statistics.median(xs), tail


def _end_to_end(rel: list[float], setup_times: list[float]) -> dict:
    p50, tail = _p50_tail(rel)
    return {
        "op_p50_ref": p50,
        "op_tail_ref": tail,
        "ops_per_kref": 1000 * len(rel) / sum(rel),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _kernel_ms(n: int) -> float:
    """The burst-exact b=3 signature kernels called directly on one chunk
    (2^20 words at n=24); median of five calls."""
    from burstcodes import _enum, codes

    chunk = next(_enum.iter_chunks(n))
    m, run_cap, span = codes._burst_consts(n, 3)
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        _enum.max_run_le(_enum.row_int(chunk, n, 3, 1), m, run_cap)
        _enum.row_weighted_sum_mod(chunk, n, 3, 1, m + 1)
        for r in (2, 3):
            _enum.row_weighted_sum_mod(chunk, n, 3, r, span)
            _enum.row_weight_mod(chunk, n, 3, r, 2)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def _layer_metrics(wl, seed: int, tracer, plain, traced, kernel_n: int):
    """Per-layer metrics of this workload's traced operations. Metrics of
    layers it does not reach come from one traced cycle of the workload that
    does, at smoke size, so every traced run reports every metric."""
    import spans
    import workloads

    metrics = {k: v for k, v in spans.layer_metrics(tracer).items() if k in wl.layer_metrics}
    coverage = {}
    failed = attempted = 0
    for cls in workloads.WORKLOADS.values():
        if cls.name == wl.name:
            continue
        other = cls(smoke=True)
        other.setup(seed)
        cov = spans.Tracer()
        for i in range(other.ops_per_cycle):
            cov.install()
            span = cov.begin_op(other.label(i))
            out = other.op(i)
            cov.end_op(span)
            cov.uninstall()
            attempted += 1
            failed += not other.check(i, out)
        coverage[cls.name] = cov
        for key, value in spans.layer_metrics(cov).items():
            if key in other.layer_metrics:
                metrics.setdefault(key, value)
    metrics["enum.kernel_ms"] = _kernel_ms(kernel_n)
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) / 1e6
    return metrics, coverage, attempted, failed


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "burstcodes" / "__init__.py").is_file():
        print(f"error: no burstcodes source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import spans
    import workloads

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }
    print(json.dumps({"meta": meta}))

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    setup_times = []
    try:
        min_seconds = 0 if args.smoke else SETUP_SECONDS
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < min_seconds:
            t0 = time.perf_counter()
            wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        tracer = spans.Tracer()
        plain, traced, failed = _run_ops(wl, args.seconds, tracer)
        attempted = len(plain) + len(traced)
        values, coverage, cov_attempted, cov_failed = _layer_metrics(
            wl, args.seed, tracer, plain, traced, kernel_n=12 if args.smoke else 24
        )
        attempted += cov_attempted
        failed += cov_failed
        metrics = _declared(declared["per_layer"], values)
        table = spans.self_time_table(tracer)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"self {row['self_s']:10.4f} s  total {row['total_s']:10.4f} s  calls {row['calls']:8d}  {name}")
        dump = {
            "meta": meta,
            "metrics": metrics,
            "self_times": table,
            "spans": tracer.to_json(),
            "coverage": {
                name: {"self_times": spans.self_time_table(cov), "spans": cov.to_json()}
                for name, cov in coverage.items()
            },
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(dump, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        wall, rel, kernel_ns, failed = _run_untraced(wl, args.seconds)
        attempted = len(wall)
        p50, tail = _p50_tail([ns / 1e6 for ns in wall])
        print(
            f"wall clock: op p50 {p50:.4f} ms, op tail {tail:.4f} ms, {len(wall) / (sum(wall) / 1e9):.4f} ops/s;"
            f" reference kernel mean {statistics.fmean(kernel_ns) / 1e3:.1f} us over {len(kernel_ns)} samples"
        )
        metrics = _declared(declared["end_to_end"], _end_to_end(rel, setup_times))
    print(f"fail_frac {failed / attempted} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _declared(declared_metrics: list[dict], values: dict) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics}


if __name__ == "__main__":
    sys.exit(main())
