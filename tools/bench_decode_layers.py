"""Per-path timings of decode requests, kept in BENCH_decode.json.

    python tools/bench_decode_layers.py --code "before=DIR" --code "after=src"

Each --code LABEL=DIR imports the burstcodes package in DIR under its own
name, so that several versions of the library live in one process. Every
request is one operation of perfbench's decode-mix workload at its full
sizes: a received line is parsed (bitseq.parse_word), decoded
(codes.decode) and printed (bitseq.format_word), and the request is timed
as a whole. The requests are BLOCKS blocks of the workload's eleven slots
(code, channel, decoder path), each block shuffled, the codewords drawn from
the codes' pinned parameters and the channels applied with
random.Random(--seed), as the workload does.

One warm-up pass per code checks that every request prints the word that
was sent. Then ROUNDS rounds each run every request on every code in turn,
in reverse order every other round and each after a full garbage
collection, so that the codes alternate and share the host's drift. The
figures are each code's median over rounds of its per-round median
microseconds per request, per decoder path and over the whole mix.

The figures are stored under each label in BENCH_decode.json at the
repository root, beside those of other labels, with the host they were
measured on, ROUNDS, BLOCKS and the seed; a label measured again is
replaced. Compare labels measured together only: the host's speed drifts
between sessions.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_census_layers import _host, _load  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_decode.json"

# decode-mix's codes: (family, n, b, params), pinned from codes.best_params.
SPECS = {
    "burst-exact": ("burst-exact", 21, 3, (0, 0, 0)),
    "cheng1": ("cheng1", 18, 3, ()),
    "cl2": ("cl2", 20, 2, (0, 5, 4, 1)),
    "at-most-consecutive": ("at-most-consecutive", 18, 3, (0, 7, 5, 1, 0, 0, 0)),
    "noncons3": ("noncons3", 18, 3, (0, 0, 2, 0, 15, 3, 15, 3)),
    "c21": ("c21", 20, 2, (27, 2)),
}


def _burst(a: int):
    def channel(rng: random.Random, x):
        i = rng.randrange(len(x) - a + 1)
        return x[:i] + x[i + a :]

    return channel


def _two_in_window_of_three(rng: random.Random, x):
    p = rng.randrange(len(x) - 1)
    q = rng.randrange(p + 1, min(p + 3, len(x)))
    return x[:p] + x[p + 1 : q] + x[q + 1 :]


def _burst21_or_single(rng: random.Random, x):
    i = rng.randrange(len(x) - 1)
    if rng.randrange(2):
        return x[:i] + (rng.randrange(2),) + x[i + 2 :]
    return x[:i] + x[i + 1 :]


# decode-mix's block of requests: (code, channel, decoder path).
SLOTS = (
    ("burst-exact", _burst(3), "array-burst"),
    ("cheng1", _burst(3), "cheng1"),
    ("cl2", _burst(1), "vt"),
    ("cl2", _burst(2), "array-burst"),
    ("at-most-consecutive", _burst(1), "vt"),
    ("at-most-consecutive", _burst(2), "array-burst"),
    ("at-most-consecutive", _burst(3), "array-burst"),
    ("noncons3", _burst(1), "vt"),
    ("noncons3", _burst(3), "array-burst"),
    ("c21", _burst21_or_single, "c21"),
    ("noncons3", _two_in_window_of_three, "windowed"),
)
BLOCKS = 200  # as in decode-mix
ROUNDS = 31


def _requests(bc, seed: int) -> list[tuple[str, str, str, str]]:
    """(code, received line, sent line, path) per request, in order."""
    codes = bc.codes
    books = {
        key: codes.build(codes.CodeSpec(codes.parse_family(f), n, b, p)).words
        for key, (f, n, b, p) in SPECS.items()
    }
    rng = random.Random(seed)
    out = []
    for _ in range(BLOCKS):
        order = list(SLOTS)
        rng.shuffle(order)
        for key, channel, path in order:
            x = rng.choice(books[key])
            out.append((key, "".join(map(str, channel(rng, x))), "".join(map(str, x)), path))
    return out


def _runner(bc):
    """One request on the package bc: parse, decode and print a line."""
    codes, bitseq = bc.codes, bc.bitseq
    specs = {key: codes.CodeSpec(codes.parse_family(f), n, b, p) for key, (f, n, b, p) in SPECS.items()}

    def run(key: str, line: str) -> str:
        return bitseq.format_word(codes.decode(specs[key], bitseq.parse_word(line)).word)

    return run


def _pass(run, requests) -> dict[str, list[int]]:
    """Nanoseconds of every request, by path and under "all"."""
    ns: dict[str, list[int]] = {"all": []}
    clock = time.perf_counter_ns
    for key, line, _, path in requests:
        start = clock()
        run(key, line)
        took = clock() - start
        ns.setdefault(path, []).append(took)
        ns["all"].append(took)
    return ns


def _measure(packages: dict, seed: int) -> dict[str, dict[str, float]]:
    """Each label's median over ROUNDS of its per-round median us per
    request, by path and over the whole mix; every output is checked once."""
    requests = _requests(next(iter(packages.values())), seed)
    runners = {label: _runner(bc) for label, bc in packages.items()}
    for label, run in runners.items():
        for key, line, sent, path in requests:
            if run(key, line) != sent:
                raise SystemExit(f"{label}: {path} request {line} did not decode to {sent}")
    rounds: dict[str, list[dict]] = {label: [] for label in runners}
    for r in range(ROUNDS):
        for label in list(runners)[:: 1 if r % 2 else -1]:
            gc.collect()
            ns = _pass(runners[label], requests)
            rounds[label].append({path: statistics.median(v) / 1e3 for path, v in ns.items()})
    return {
        label: {path: round(statistics.median(s[path] for s in samples), 3) for path in samples[0]}
        for label, samples in rounds.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--code", action="append", required=True, metavar="LABEL=DIR",
                    help="a label and the directory that holds its burstcodes; repeat to alternate")
    ap.add_argument("--seed", type=int, default=501, help="seed of the requests (default 501)")
    args = ap.parse_args(argv)
    dirs = dict(code.split("=", 1) for code in args.code)
    packages = {label: _load(f"burstcodes_{i}", src) for i, (label, src) in enumerate(dirs.items())}
    figures = _measure(packages, args.seed)
    bench = json.loads(OUT.read_text()) if OUT.exists() else {"about": __doc__.split("\n\n")[0]}
    host = _host()
    for label, us in figures.items():
        bench.setdefault("labels", {})[label] = {
            "host": host, "rounds": ROUNDS, "blocks": BLOCKS, "seed": args.seed, "us_per_request": us,
        }
    OUT.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps({label: bench["labels"][label] for label in figures}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
