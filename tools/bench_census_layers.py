"""Stage timings of a ball-census pass, kept in BENCH_census.json.

    python tools/bench_census_layers.py --code "before=DIR" --code "after=src"

Each --code LABEL=DIR imports the burstcodes package in DIR under its own
name, so that several versions of the library live in one process, and
times each stage of one pass of perfbench's ball-census workload at its
full sizes:

- `bound --n 20 --b 2 --format json` and `bound --n 19 --b 2 --format json`
  through cli.run (the transversal sum at n - b = 18, which b divides, and
  at 17, which it does not);
- `equiv --n 9 --b 3 --format json` for each of the three burst flavors;
- verify.greedy_code(12, ins-at-most-nonconsecutive(3));
- verify.verify_code of the burst-exact n = 20 b = 2 code with residues
  (0, 0, 0) under ins-exact(2);
- rll.rll_encode of all 2^16 words of length 16 and rll.rll_decode of every
  output.

One warm-up pass per code checks every output: the transversal sums equal
the upper bound, the sweeps say equivalent, the greedy code has its pinned
61 words and passes verify_code, the n = 20 code passes, and every RLL word
decodes to its input. Then RUNS rounds each run one pass of every code in
turn, in reverse order every other round and each after a full garbage
collection, so that the codes alternate, share the host's drift and take
each place in a round equally often; the figures are each code's median
milliseconds per stage and per pass. Times are process CPU time, which a
busy neighbour on the host inflates less than wall time.

The figures are stored under each label in BENCH_census.json at the
repository root, beside those of other labels, with the host they were
measured on and RUNS; a label measured again is replaced. Compare labels
measured together only: the host's speed drifts between sessions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import itertools
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_census.json"

BOUNDS = ((20, 2), (19, 2))
EQUIV = (9, 3, ("exact", "at-most-consecutive", "at-most-nonconsecutive"))
GREEDY = (12, 61)  # length and pinned cardinality of the greedy code
CODE = (20, 2, (0, 0, 0))  # burst-exact code checked under ins-exact(2)
RLL_BITS = 16
RUNS = 31  # rounds per median


def _host() -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "date": time.strftime("%Y-%m-%d"),
    }


def _load(name: str, src: str):
    """The burstcodes package under src, imported as the package `name`."""
    pkg = Path(src) / "burstcodes"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("balls", "cli", "codes", "rll", "verify"):
        importlib.import_module(f"{name}.{sub}")
    return module


def _stages(bc) -> list[tuple[str, object, object]]:
    """(name, stage, check of its output) in the order of a pass."""
    balls, codes, rll, verify = bc.balls, bc.codes, bc.rll, bc.verify

    def cli(argv: list[str]) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = bc.cli.run(argv)
        if status != 0:
            raise SystemExit(f"{' '.join(argv)} exited {status}")
        return json.loads(buf.getvalue())

    stages = []
    for n, b in BOUNDS:
        want = Fraction(2 ** (n - b + 1) - 2**b, n - 2 * b + 1)
        stages.append((
            f"bound n={n} b={b}",
            lambda n=n, b=b: cli(["bound", "--n", str(n), "--b", str(b), "--format", "json"]),
            lambda out, want=want: Fraction(out["transversal_weight"]) == want,
        ))
    n, b, flavors = EQUIV
    for flavor in flavors:
        stages.append((
            f"equiv {flavor} n={n} b={b}",
            lambda f=flavor: cli(["equiv", "--n", str(n), "--b", str(b), "--model", f, "--format", "json"]),
            lambda out: out["equivalent"] is True,
        ))
    model = balls.ins_at_most_noncons(3)
    stages.append((
        f"greedy n={GREEDY[0]} {model}",
        lambda: verify.greedy_code(GREEDY[0], model),
        lambda cb: cb.cardinality == GREEDY[1] and verify.verify_code(cb, model).passed,
    ))
    code = codes.build(codes.CodeSpec(codes.Family.BURST_EXACT, *CODE))
    stages.append((
        f"verify_code n={CODE[0]} ins-exact(2)",
        lambda: verify.verify_code(code, balls.ins_exact(2)),
        lambda report: report.passed,
    ))
    words = list(itertools.product((0, 1), repeat=RLL_BITS))
    stages.append((
        f"rll round trips n={RLL_BITS}",
        lambda: [rll.rll_decode(y) for y in [rll.rll_encode(x) for x in words]],
        lambda decoded: decoded == words,
    ))
    return stages


def _pass(stages) -> dict:
    ms = {}
    for name, stage, _ in stages:
        start = time.process_time()
        stage()
        ms[name] = (time.process_time() - start) * 1e3
    return ms


def _medians(samples: list[dict]) -> dict:
    medians = {k: round(statistics.median(s[k] for s in samples), 3) for k in samples[0]}
    medians["pass"] = round(statistics.median(sum(s.values()) for s in samples), 3)
    return medians


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--code", action="append", required=True, metavar="LABEL=DIR",
                    help="a label and the directory that holds its burstcodes; repeat to alternate")
    args = ap.parse_args(argv)
    codes = dict(code.split("=", 1) for code in args.code)
    stages = {label: _stages(_load(f"burstcodes_{i}", src)) for i, (label, src) in enumerate(codes.items())}
    for label, code_stages in stages.items():
        for name, stage, check in code_stages:
            if not check(stage()):
                raise SystemExit(f"{label}: {name} gave a wrong output")
    samples = {label: [] for label in stages}
    for r in range(RUNS):
        for label in list(stages)[:: 1 if r % 2 else -1]:
            gc.collect()
            samples[label].append(_pass(stages[label]))
    bench = json.loads(OUT.read_text()) if OUT.exists() else {"about": __doc__.split("\n\n")[0]}
    host = _host()
    for label, runs in samples.items():
        bench.setdefault("labels", {})[label] = {"host": host, "runs": RUNS, "stages_ms": _medians(runs)}
    OUT.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps({label: bench["labels"][label] for label in samples}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
