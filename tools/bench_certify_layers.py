"""Layer timings of the certify pipeline, kept in BENCH_certify.json.

    python tools/bench_certify_layers.py --label after [--src DIR]

Imports burstcodes from DIR (default: this repository's src/) and measures,
in one process:

- each stage of the certify pipeline, burst-exact at n = 24, b = 3:
  codes.best_params, codes.build, codes.write_codebook to memory and
  verify.verify_code under del-exact(3), as medians over RUNS runs, after
  one warm-up run whose outputs are checked against pinned values;
- codes._classes at every split width L in 1..n-1 for burst-exact b = 3 and
  cl2 b = 2 at n = 24, L forced by replacing codes._split as the tests do,
  and with the L that codes._split chooses (timed right after that L
  forced), as medians over ROUNDS rounds that each visit every L once.

The figures are stored under the label in BENCH_certify.json at the
repository root, beside those of other labels, with the host they were
measured on and RUNS and ROUNDS; a label measured again is replaced.
Compare labels measured on one host in one session only: the host's speed
drifts between sessions.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_certify.json"

# (params, cardinality, sha256 of the written codebook) of burst-exact n=24
# b=3, as pinned by tests/test_codes.py and perfbench.
EXPECT = ((0, 0, 0), 17576, "b061452a3ba9e3efc176f789e0aa25491837493c939176159a58b289f9e76429")
SWEEPS = (("burst-exact", 3), ("cl2", 2))
N = 24
RUNS = 31  # pipeline runs per stage median
ROUNDS = 5  # visits of every L per _classes median


def _host() -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "date": time.strftime("%Y-%m-%d"),
    }


def _timed(ms: dict, stage: str, f, *args):
    start = time.perf_counter()
    out = f(*args)
    ms[stage] = (time.perf_counter() - start) * 1e3
    return out


def _stages() -> dict:
    from burstcodes import balls, codes, verify

    def once() -> tuple[dict, tuple]:
        ms, buf = {}, io.StringIO()
        spec = _timed(ms, "best_params", codes.best_params, codes.Family.BURST_EXACT, N, 3)
        cb = _timed(ms, "build", codes.build, spec)
        _timed(ms, "write_codebook", codes.write_codebook, cb, buf)
        report = _timed(ms, "verify_code", verify.verify_code, cb, balls.del_exact(3))
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        return ms, (spec.params, cb.cardinality, digest, report.passed)

    _, out = once()
    if out != (*EXPECT, True):
        raise SystemExit(f"certify pipeline gave {out}, expected {(*EXPECT, True)}")
    samples = [once()[0] for _ in range(RUNS)]
    medians = {k: round(statistics.median(s[k] for s in samples), 3) for k in samples[0]}
    medians["total"] = round(statistics.median(sum(s.values()) for s in samples), 3)
    return medians


def _sweep(family: str, b: int) -> dict:
    import numpy as np
    from burstcodes import codes

    table = codes._family_table(codes.Family(family), b)
    split, chosen = codes._split, []

    def spy(*args):
        chosen.append(split(*args))
        return chosen[-1]

    try:
        codes._split = spy
        want, _ = codes._classes(table, N)  # also fills the caches of the table
        # the chosen split runs right after the same L forced, so that both
        # follow a run of about their own size
        ms = {L: [] for L in (*range(1, chosen[0] + 1), "chosen", *range(chosen[0] + 1, N))}
        for _ in range(ROUNDS):
            for L in ms:
                codes._split = spy if L == "chosen" else lambda *args: L
                start = time.perf_counter()
                got, _ = codes._classes(table, N)
                ms[L].append((time.perf_counter() - start) * 1e3)
                if not all(map(np.array_equal, got, want)):
                    raise SystemExit(f"{family} b={b} at L={L} counts other classes")
    finally:
        codes._split = split
    medians = {str(L): round(statistics.median(v), 3) for L, v in ms.items()}
    return {"chosen_L": chosen[0], "chosen_ms": medians.pop("chosen"), "ms": medians}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of these figures in BENCH_certify.json")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds burstcodes")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    record = {"host": _host(), "runs": RUNS, "rounds": ROUNDS, "stages_ms": _stages()}
    record["classes_ms"] = {f"{family} b={b} n={N}": _sweep(family, b) for family, b in SWEEPS}
    bench = json.loads(OUT.read_text()) if OUT.exists() else {"about": __doc__.split("\n\n")[0]}
    bench.setdefault("labels", {})[args.label] = record
    OUT.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps({args.label: record}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
