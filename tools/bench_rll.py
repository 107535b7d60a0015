"""Per-word timings of the RLL encoder and decoder, kept in BENCH_rll.json.

    python tools/bench_rll.py --label after [--src DIR]

Imports burstcodes from DIR (default: this repository's src/) and, in one
process, encodes all 2^N words of length N = 16 with rll.rll_encode and
decodes every output with rll.rll_decode, as the ball-census workload of
perfbench does. One warm-up pass checks the outputs: the encoder outputs
hash to the pinned sha256 and every decode returns its input. Then ROUNDS
rounds each time one encode pass, one decode pass and one reference pass
that only converts each word to bytes and back to a tuple, the conversions
every codec call makes. The figures are the median nanoseconds per word of
each pass, and the median over rounds of each codec pass's time over the
reference pass of its round: the host's speed can move by half within a
run, and the ratio moves much less.

The figures are stored under the label in BENCH_rll.json at the repository
root, beside those of other labels, with the host they were measured on and
ROUNDS; a label measured again is replaced. Compare labels measured on one
host in one session only: the host's speed drifts between sessions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_rll.json"

N = 16
# sha256 of the concatenated encoder outputs of all length-N words, in
# lexicographic order, one byte per bit
EXPECT = "d90b3d75f018f793da2c6093f71b54a58fe0028ee02bb96281d44a9910f41ba5"
ROUNDS = 31  # timed rounds per median


def _host() -> dict:
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "date": time.strftime("%Y-%m-%d"),
    }


def _pass(f, words) -> tuple[list, float]:
    """f of every word, and the nanoseconds per word that took."""
    start = time.perf_counter()
    out = [f(w) for w in words]
    return out, (time.perf_counter() - start) * 1e9 / len(words)


def _convert(w):
    """The reference: a word to bytes and back, as every codec call does."""
    return tuple(bytes(w))


def _per_word() -> dict:
    from burstcodes import rll

    words = list(itertools.product((0, 1), repeat=N))
    encoded, _ = _pass(rll.rll_encode, words)
    decoded, _ = _pass(rll.rll_decode, encoded)
    digest = hashlib.sha256(bytes(bit for y in encoded for bit in y)).hexdigest()
    if digest != EXPECT or decoded != words:
        raise SystemExit(f"RLL codec at n={N}: encoder outputs hash to {digest}, expected {EXPECT}, "
                         f"round trips {'hold' if decoded == words else 'fail'}")
    ns: dict[str, list[float]] = {"encode": [], "decode": [], "reference": []}
    for _ in range(ROUNDS):
        ns["reference"].append(_pass(_convert, words)[1])
        ns["encode"].append(_pass(rll.rll_encode, words)[1])
        ns["decode"].append(_pass(rll.rll_decode, encoded)[1])
    per_ref = {k: [t / r for t, r in zip(ns[k], ns["reference"])] for k in ("encode", "decode")}
    return {
        "ns_per_word": {k: round(statistics.median(v), 1) for k, v in ns.items()},
        "per_reference": {k: round(statistics.median(v), 3) for k, v in per_ref.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of these figures in BENCH_rll.json")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds burstcodes")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    record = {"host": _host(), "n": N, "rounds": ROUNDS, **_per_word()}
    bench = json.loads(OUT.read_text()) if OUT.exists() else {"about": __doc__.split("\n\n")[0]}
    bench.setdefault("labels", {})[args.label] = record
    OUT.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps({args.label: record}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
