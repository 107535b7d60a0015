"""Stage timings of perfbench's workloads on several versions of the library,
kept in BENCH_certify.json, BENCH_decode.json and BENCH_census.json.

    python tools/bench_layers.py WORKLOAD --code parent=DIR --code change=src [--seed S]

WORKLOAD is certify, decode-mix or ball-census, as BENCHMARK.json names them.
Each --code LABEL=DIR imports the burstcodes package in DIR under its own
name, so that several versions of the library live in one process. The
inputs and expected outputs are perfbench's (perfbench/workloads.py), at its
full sizes:

- certify: codes.best_params, codes.build, codes.write_codebook to memory and
  verify.verify_code under del-exact(3), burst-exact at n = 24 and b = 3;
  then codes._classes at n = 24: burst-exact b = 3 and cl2 b = 2, which take
  the transfer, and at-most-consecutive b = 3, noncons3 and noncons4, which
  take the pair join (noncons4 at n = 24 in smoke runs too, its least
  length); then the CLI's tabulate (cli.run) of burst-exact and
  at-most-consecutive at b = 3 and n = 24, each checked against the
  cardinality of the code build lists;
- decode-mix: every request of the mix, a received line parsed, decoded and
  printed, in the mix's order, one stage per decoder path; then the final
  check of decode alone, balls.in_ball on every request's received word,
  decoded word and the model of its path, as one stage; the requests are
  drawn with --seed;
- ball-census: the bound, equiv, greedy and verify_code calls of one pass,
  balls.ball_keys of 2 words at n = 10 under ins-at-most-nonconsecutive(3)
  (the kernel's fixed cost, which many small blocks pay), then
  rll.rll_encode of every word of the RLL length and rll.rll_decode of every
  output, each of the two as one call.

One warm-up pass per version checks every output and times it. Then ROUNDS
rounds each run one pass of every version in turn, in reverse order every
other round and each after a full garbage collection, so that the versions
alternate, share the host's drift and take each place in a round equally
often. Within a pass, each call of a stage is repeated as often as the
stage's warm-up time (the slowest version's) says will fill about FILL_S
seconds, at least once and equally often in every version, so that a stage
of one short call is not timed from one call per round. Every
call is timed alone in process CPU time, which a busy neighbour on the host
inflates less than wall time, and its minor page faults are counted (the
ru_minflt delta of getrusage around it): a first touch of a page that the
allocator handed back to the OS costs a fault. The figures of a stage are
its calls per pass, how often each call is repeated, the median over rounds
of each round's median call time, the same median of its faults per call
and the median over rounds of its time per pass (the repeats' mean); the
pass is the median over rounds of a whole pass.

The figures are stored under each label in the workload's BENCH file at the
repository root, beside those of other labels, with the host they were
measured on, ROUNDS and the seed; a label measured again is replaced.
Compare labels measured together only: the host's speed drifts between
sessions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from spans import EQUIV_FLAVORS  # noqa: E402

OUT = {"certify": "BENCH_certify.json", "decode-mix": "BENCH_decode.json", "ball-census": "BENCH_census.json"}
SMOKE = False  # perfbench's smoke sizes, n <= 12
ROUNDS = 31
FILL_S = 0.02  # CPU seconds each stage fills per pass, by repeating its calls


def _load(name: str, src: str):
    """The burstcodes package under src, imported afresh as the package `name`."""
    for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
        del sys.modules[key]
    pkg = Path(src) / "burstcodes"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("balls", "bitseq", "cli", "codes", "rll", "verify"):
        importlib.import_module(f"{name}.{sub}")
    return module


def _spec(bc, spec):
    """A CodeSpec of perfbench's burstcodes as one of the package bc."""
    return bc.codes.CodeSpec(bc.codes.Family(spec.family.value), spec.n, spec.b, spec.params)


def _cli(bc, *argv: str) -> dict:
    """The JSON record that the CLI of the package bc prints for argv."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = bc.cli.run([*argv, "--format", "json"])
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} exited {status}")
    return json.loads(buf.getvalue())


def _certify(bc, seed: int) -> list:
    codes, verify = bc.codes, bc.verify
    n = 12 if SMOKE else 24
    params, cardinality, digest = workloads.CERTIFY_EXPECT[n]
    family = codes.Family.BURST_EXACT
    cb = codes.build(codes.CodeSpec(family, n, 3, params))

    def write() -> str:
        buf = io.StringIO()
        codes.write_codebook(cb, buf)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    calls = [
        (f"best_params n={n} b=3", lambda: codes.best_params(family, n, 3),
         lambda spec: spec.params == params),
        (f"build n={n} b=3", lambda: codes.build(cb.spec), lambda out: out.cardinality == cardinality),
        (f"write_codebook n={n} b=3", write, lambda out: out == digest),
        (f"verify_code n={n} del-exact(3)", lambda: verify.verify_code(cb, bc.balls.del_exact(3)),
         lambda report: report.passed),
    ]
    sizes = {}
    for name, b, m in (("burst-exact", 3, n), ("cl2", 2, n), ("at-most-consecutive", 3, n),
                        ("noncons3", 3, n), ("noncons4", 4, 24)):
        table = codes._family_table(codes.Family(name), b)
        # the largest class has as many words as build lists for its residues
        sizes[name] = best = codes.build(codes.best_params(codes.Family(name), m, b)).cardinality
        calls.append((
            f"_classes {name} b={b} n={m}",
            lambda table=table, m=m: codes._classes(table, m),
            lambda out, best=best: out[0][1].max() == best,
        ))
    for name in ("burst-exact", "at-most-consecutive"):
        calls.append((
            f"tabulate {name} b=3 n={n}",
            lambda name=name: _cli(bc, "tabulate", "--family", name, "--b", "3", "--n", str(n)),
            lambda out, best=sizes[name]: out["rows"][0]["cardinality"] == best,
        ))
    return calls


def _decode_mix(bc, seed: int) -> list:
    balls, codes, bitseq = bc.balls, bc.codes, bc.bitseq
    mix = workloads.DecodeMix(SMOKE)
    mix.setup(seed)

    def request(spec, line: str):
        return lambda: bitseq.format_word(codes.decode(spec, bitseq.parse_word(line)).word)

    def final_check(spec, line: str, sent: str, path: str):
        # the model decode's path checks y against: the (2,1)-burst for c21,
        # the windowed deletions of b for windowed, else a burst of n - |y|
        y, x = bitseq.parse_word(line), bitseq.parse_word(sent)
        if path == "c21":
            model = balls.burst21()
        elif path == "windowed":
            model = balls.del_at_most_noncons(spec.b)
        else:
            model = balls.del_exact(len(x) - len(y))
        args = ((len(y), bitseq.to_int(y)), bitseq.to_int(x), len(x), model)
        return lambda: balls.in_ball(*args)

    return [
        (path, request(_spec(bc, spec), line), lambda out, sent=sent: out == sent)
        for spec, line, sent, path in mix.requests
    ] + [("final check", final_check(*req), lambda out: out is True) for req in mix.requests]


def _ball_census(bc, seed: int) -> list:
    balls, rll, verify = bc.balls, bc.rll, bc.verify
    sizes = workloads.CENSUS_SIZES[SMOKE]
    cli = functools.partial(_cli, bc)
    calls = []
    for n, b in sizes["bounds"]:
        want = Fraction(2 ** (n - b + 1) - 2**b, n - 2 * b + 1)
        calls.append((
            f"bound n={n} b={b}",
            lambda n=n, b=b: cli("bound", "--n", str(n), "--b", str(b)),
            lambda out, want=want: Fraction(out["transversal_weight"]) == want,
        ))
    n, b = sizes["equiv"]
    for flavor in EQUIV_FLAVORS:
        calls.append((
            f"equiv {flavor} n={n} b={b}",
            lambda flavor=flavor: cli("equiv", "--n", str(n), "--b", str(b), "--model", flavor),
            lambda out: out["equivalent"] is True,
        ))
    g, size = sizes["greedy"]
    model = balls.ErrorModel(balls.ErrorKind(workloads.GREEDY_MODEL.kind.value), workloads.GREEDY_MODEL.b)
    calls.append((
        f"greedy n={g} {model}",
        lambda: verify.greedy_code(g, model),
        lambda cb: cb.cardinality == size and verify.verify_code(cb, model).passed,
    ))
    m, params = sizes["code"]
    code = bc.codes.build(bc.codes.CodeSpec(bc.codes.Family.BURST_EXACT, m, 2, params))
    calls.append((
        f"verify_code n={m} ins-exact(2)",
        lambda: verify.verify_code(code, balls.ins_exact(2)),
        lambda report: report.passed,
    ))
    pair, noncons3 = [0b0110100110, 0b1001011001], balls.ins_at_most_noncons(3)
    calls.append((
        f"ball_keys 2 words n=10 {noncons3}",
        lambda: balls.ball_keys(pair, 10, noncons3),
        lambda out: [set(row) for row in out.tolist()]
        == [{(1 << m) | y for m, y in balls.ball_ints(v, 10, noncons3)} for v in pair],
    ))
    k = sizes["rll"]
    words = list(itertools.product((0, 1), repeat=k))
    encoded = [rll.rll_encode(x) for x in words]
    cap = (k - 1).bit_length() + 3  # the run cap perfbench checks
    calls.append((
        f"rll_encode all n={k}",
        lambda: [rll.rll_encode(x) for x in words],
        lambda out: all(workloads._max_run(y) <= cap for y in out),
    ))
    calls.append((
        f"rll_decode all n={k}",
        lambda: [rll.rll_decode(y) for y in encoded],
        lambda out: out == words,
    ))
    return calls


STAGES = {"certify": _certify, "decode-mix": _decode_mix, "ball-census": _ball_census}


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _pass(calls, repeats: dict[str, int]) -> tuple[dict[str, list[float]], dict[str, list[int]]]:
    """Seconds and minor page faults of every call, by stage, each call made
    repeats[stage] times."""
    took: dict[str, list[float]] = {}
    faults: dict[str, list[int]] = {}
    clock = time.process_time
    for stage, call, _ in calls:
        for _ in range(repeats[stage]):
            before = _minflt()
            start = clock()
            call()
            took.setdefault(stage, []).append(clock() - start)
            faults.setdefault(stage, []).append(_minflt() - before)
    return took, faults


def _figures(passes: list[tuple[dict, dict]], repeats: dict[str, int]) -> dict:
    med = statistics.median
    times = [took for took, _ in passes]
    per_pass = [{stage: sum(t) / repeats[stage] for stage, t in p.items()} for p in times]
    stages = {
        stage: {
            "calls": len(times[0][stage]) // repeats[stage],
            "repeats": repeats[stage],
            "call_us": round(med(med(p[stage]) for p in times) * 1e6, 3),
            "call_faults": med(med(faults[stage]) for _, faults in passes),
            "pass_ms": round(med(p[stage] for p in per_pass) * 1e3, 3),
        }
        for stage in times[0]
    }
    return {"stages": stages, "pass_ms": round(med(sum(p.values()) for p in per_pass) * 1e3, 3)}


def measure(workload: str, dirs: dict[str, str], seed: int) -> dict[str, dict]:
    """The figures of each label's version of the library on the workload."""
    calls = {
        label: STAGES[workload](_load(f"burstcodes_{i}", src), seed)
        for i, (label, src) in enumerate(dirs.items())
    }
    warm: dict[str, float] = {}  # the slowest version's warm-up seconds per stage
    for label, version in calls.items():
        took: dict[str, float] = {}
        for stage, call, check in version:
            start = time.process_time()
            out = call()
            took[stage] = took.get(stage, 0.0) + time.process_time() - start
            if not check(out):
                raise SystemExit(f"{label}: {stage} gave a wrong output")
        warm = {stage: max(t, warm.get(stage, 0.0)) for stage, t in took.items()}
    # every version repeats a stage equally often
    repeats = {stage: max(1, round(FILL_S / max(t, 1e-6))) for stage, t in warm.items()}
    passes: dict[str, list[dict]] = {label: [] for label in calls}
    for r in range(ROUNDS):
        for label in list(calls)[:: 1 if r % 2 else -1]:
            gc.collect()
            passes[label].append(_pass(calls[label], repeats))
    return {label: _figures(runs, repeats) for label, runs in passes.items()}


def _codes(pairs: list[str]) -> dict[str, str]:
    """{label: directory} of the --code LABEL=DIR arguments."""
    dirs: dict[str, str] = {}
    for pair in pairs:
        label, eq, src = pair.partition("=")
        if not eq or not label:
            raise SystemExit(f"bench_layers: --code {pair!r} is not LABEL=DIR")
        if label in dirs:
            raise SystemExit(f"bench_layers: label {label!r} given twice")
        if not (Path(src) / "burstcodes" / "__init__.py").is_file():
            raise SystemExit(f"bench_layers: no burstcodes/__init__.py under {src!r}")
        dirs[label] = src
    return dirs


def _store(path: Path, records: dict[str, dict]) -> None:
    """Put each record under its label in the BENCH file at path."""
    bench = json.loads(path.read_text()) if path.exists() else {"about": __doc__.split("\n\n")[0]}
    bench.setdefault("labels", {}).update(records)
    path.write_text(json.dumps(bench, indent=1) + "\n")


def _host() -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "date": time.strftime("%Y-%m-%d"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=OUT, help="the perfbench workload whose stages to time")
    ap.add_argument("--code", action="append", required=True, metavar="LABEL=DIR",
                    help="a label and the directory that holds its burstcodes; repeat to alternate")
    ap.add_argument("--seed", type=int, default=501, help="seed of decode-mix's requests (default 501)")
    args = ap.parse_args(argv)
    figures = measure(args.workload, _codes(args.code), args.seed)
    head = {"host": _host(), "rounds": ROUNDS, "seed": args.seed}
    records = {label: {**head, **record} for label, record in figures.items()}
    _store(ROOT / OUT[args.workload], records)
    print(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
