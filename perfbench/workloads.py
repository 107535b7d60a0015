"""The benchmark's three workloads.

Each workload builds its inputs in ``setup(seed)``, runs one operation per
``op(i)`` call and checks that operation's output in ``check(i, out)``
against an expectation the library does not compute: a value pinned from the
seed commit, a closed form, or the input the benchmark itself corrupted.
``smoke=True`` runs the same code paths at lengths n <= 12. ``reference``
is the kernel the runner times alongside the operations (see reference.py).

* certify     - the certification pipeline behind ``build --params best`` and
  ``verify`` for burst-exact at n=24, b=3: two 2^24-word signature sweeps
  dominate, so this is where sweep changes show.
* decode-mix  - a closed loop with one caller decoding received lines. About
  4 in 5 requests take algebraic VT/SVT/array paths and 1 in 5 take
  candidate-search paths (c21, windowed noncons3), so the median follows the
  algebraic paths and the 99th percentile the search paths. Membership tests
  run the per-word (plain int) form of the sweep kernels.
* ball-census - exhaustive ground truth at small n with no numpy sweep in the
  timed part: transversal sums on both ball-size paths, the
  deletion/insertion equivalence sweep, a greedy code, an insertion-model
  verification and an RLL round trip over every 16-bit word.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

from burstcodes import balls, bitseq, cli, codes, rll, verify
from burstcodes.codes import CodeSpec, Family
from burstcodes.errors import DecodeFailure
from reference import numpy_kernel, python_kernel
from spans import BALL_MODELS, DECODE_PATHS, EQUIV_FLAVORS, SEARCH_PATHS


class SetupError(Exception):
    """A workload's set-up produced output that fails its own check."""


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# (params, cardinality, sha256 of the written codebook) of burst-exact b=3,
# pinned from the seed commit.
CERTIFY_EXPECT = {
    24: ((0, 0, 0), 17576, "b061452a3ba9e3efc176f789e0aa25491837493c939176159a58b289f9e76429"),
    18: ((2, 0, 0), 441, "8b13dc0aa729a3087cb2efc3dd34d37bf5cf9a665e42385b401c2066a5b1ad77"),
    12: ((1, 0, 0), 12, "f5e8df7d90c177f9c4b6bb9ba96cfc809ffb1e2ad1f07f92bfd8d2c84f633192"),
}


def certify_pipeline(n: int):
    spec = codes.best_params(Family.BURST_EXACT, n, 3)
    cb = codes.build(spec)
    buf = io.StringIO()
    codes.write_codebook(cb, buf)
    report = verify.verify_code(cb, balls.del_exact(3))
    return spec.params, cb.cardinality, hashlib.sha256(buf.getvalue().encode()).hexdigest(), report.passed


def certify_ok(n: int, out) -> bool:
    params, cardinality, digest, passed = out
    return (params, cardinality, digest) == CERTIFY_EXPECT[n] and passed


class Certify:
    name = "certify"
    layer_metrics = (
        "enum.chunks",
        "codes.best_params_s",
        "codes.build_s",
        "codes.best_params.chunk_ms",
        "codes.build.chunk_ms",
        "codes.build.extract_s",
        "codes.write_codebook_s",
        "verify.verify_code_s",
        "verify.ball_elements",
        "verify.collisions",
        "balls.ball_ints_us.del-exact",
        "balls.ball_ints_calls.del-exact",
    )
    ops_per_cycle = 1
    reference = staticmethod(numpy_kernel)

    def __init__(self, smoke: bool) -> None:
        self.n, self.warmup_n = (12, 12) if smoke else (24, 18)

    def setup(self, seed: int) -> None:
        # The inputs are fixed; set-up is a warm-up pipeline at a smaller n so
        # that lazy imports and allocator pools are settled before timing.
        if not certify_ok(self.warmup_n, certify_pipeline(self.warmup_n)):
            raise SetupError(f"warm-up pipeline at n={self.warmup_n} gave unexpected output")

    def label(self, i: int) -> None:
        return None

    def op(self, i: int):
        return certify_pipeline(self.n)

    def check(self, i: int, out) -> bool:
        return certify_ok(self.n, out)


# ---------------------------------------------------------------------------
# decode-mix
# ---------------------------------------------------------------------------

# Pinned best parameters (codes.best_params at the seed commit).
DECODE_CODES = {
    False: {
        "burst-exact": CodeSpec(Family.BURST_EXACT, 21, 3, (0, 0, 0)),
        "cheng1": CodeSpec(Family.CHENG1, 18, 3, ()),
        "cl2": CodeSpec(Family.CL2, 20, 2, (0, 5, 4, 1)),
        "at-most-consecutive": CodeSpec(Family.AT_MOST_CONSECUTIVE, 18, 3, (0, 7, 5, 1, 0, 0, 0)),
        "noncons3": CodeSpec(Family.NONCONS3, 18, 3, (0, 0, 2, 0, 15, 3, 15, 3)),
        "c21": CodeSpec(Family.C21, 20, 2, (27, 2)),
    },
    True: {
        "burst-exact": CodeSpec(Family.BURST_EXACT, 12, 3, (1, 0, 0)),
        "cheng1": CodeSpec(Family.CHENG1, 12, 3, ()),
        "cl2": CodeSpec(Family.CL2, 12, 2, (0, 2, 2, 1)),
        "at-most-consecutive": CodeSpec(Family.AT_MOST_CONSECUTIVE, 12, 3, (0, 2, 2, 1, 0, 5, 0)),
        "noncons3": CodeSpec(Family.NONCONS3, 12, 3, (0, 0, 1, 0, 1, 3, 9, 3)),
        "c21": CodeSpec(Family.C21, 12, 2, (16, 2)),
    },
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


# One block of the mix: (code, channel, decoder path). Nine algebraic slots
# and two candidate-search slots; every block of requests holds each slot once.
DECODE_SLOTS = (
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


class DecodeMix:
    name = "decode-mix"
    layer_metrics = (
        *(f"codes.decode_us.{p}" for p in DECODE_PATHS),
        *(f"codes.member_calls.{p}" for p in SEARCH_PATHS),
        *(f"codes.useful_ratio.{p}" for p in SEARCH_PATHS),
        "codes.member_us",
        "vt.vt_decode_us",
        "svt.svt_decode_us",
        "bitseq.array_view_us",
        "bitseq.flatten_us",
        "bitseq.parse_format_us",
    )
    ops_per_cycle = len(DECODE_SLOTS)
    reference = staticmethod(python_kernel)

    def __init__(self, smoke: bool) -> None:
        self.specs = DECODE_CODES[smoke]
        self.blocks = 4 if smoke else 200

    def setup(self, seed: int) -> None:
        books = {key: codes.build(spec).words for key, spec in self.specs.items()}
        rng = random.Random(seed)
        # (spec, received line, sent line, path) per request.
        self.requests = []
        for _ in range(self.blocks):
            order = list(DECODE_SLOTS)
            rng.shuffle(order)
            for key, channel, path in order:
                x = rng.choice(books[key])
                # Lines are formatted here rather than by bitseq, so the
                # expected output does not depend on the code under test.
                line = "".join(map(str, channel(rng, x)))
                self.requests.append((self.specs[key], line, "".join(map(str, x)), path))

    def label(self, i: int) -> str:
        return self.requests[i % len(self.requests)][3]

    def op(self, i: int):
        spec, line, _, _ = self.requests[i % len(self.requests)]
        try:
            return bitseq.format_word(codes.decode(spec, bitseq.parse_word(line)).word)
        except DecodeFailure:
            return None

    def check(self, i: int, out) -> bool:
        return out == self.requests[i % len(self.requests)][2]


# ---------------------------------------------------------------------------
# ball-census
# ---------------------------------------------------------------------------

CENSUS_SIZES = {
    # bound (n, b) on the ball-size formula path and on the enumeration
    # path, equiv (n, b), greedy n, pinned greedy cardinality, verified
    # burst-exact b=2 code (n, params), RLL input length.
    False: {"bounds": ((20, 2), (19, 2)), "equiv": (9, 3), "greedy": (12, 61), "code": (20, (0, 0, 0)), "rll": 16},
    True: {"bounds": ((10, 2), (9, 2)), "equiv": (6, 3), "greedy": (8, 8), "code": (12, (2, 0, 0)), "rll": 10},
}
GREEDY_MODEL = balls.ins_at_most_noncons(3)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(argv)
    return status, buf.getvalue()


def _max_run(x) -> int:
    return max(len(list(g)) for _, g in itertools.groupby(x))


class BallCensus:
    name = "ball-census"
    layer_metrics = (
        "verify.verify_code_s",
        "verify.ball_elements",
        "verify.collisions",
        *(f"verify.equivalence_s.{f}" for f in EQUIV_FLAVORS),
        "verify.greedy_s",
        *(f"balls.ball_ints_us.{m}" for m in BALL_MODELS),
        *(f"balls.ball_ints_calls.{m}" for m in BALL_MODELS),
        "bounds.transversal_formula_s",
        "bounds.transversal_enum_s",
        "rll.encode_us",
        "rll.decode_us",
        "cli.self_ms",
    )
    ops_per_cycle = 1
    reference = staticmethod(python_kernel)

    def __init__(self, smoke: bool) -> None:
        self.sizes = CENSUS_SIZES[smoke]

    def setup(self, seed: int) -> None:
        n, params = self.sizes["code"]
        self.code = codes.build(CodeSpec(Family.BURST_EXACT, n, 2, params))
        self.words = list(itertools.product((0, 1), repeat=self.sizes["rll"]))

    def label(self, i: int) -> None:
        return None

    def op(self, i: int) -> dict:
        s = self.sizes
        n_eq, b_eq = s["equiv"]
        out = {
            "bounds": [_cli(["bound", "--n", str(n), "--b", str(b), "--format", "json"]) for n, b in s["bounds"]],
            "equiv": [
                _cli(["equiv", "--n", str(n_eq), "--b", str(b_eq), "--model", f, "--format", "json"])
                for f in EQUIV_FLAVORS
            ],
            "greedy": verify.greedy_code(s["greedy"][0], GREEDY_MODEL),
            "verify": verify.verify_code(self.code, balls.ins_exact(2)),
        }
        out["encoded"] = [rll.rll_encode(x) for x in self.words]
        out["decoded"] = [rll.rll_decode(y) for y in out["encoded"]]
        return out

    def check(self, i: int, out: dict) -> bool:
        s = self.sizes
        for (n, b), (status, text) in zip(s["bounds"], out["bounds"]):
            want = Fraction(2 ** (n - b + 1) - 2**b, n - 2 * b + 1)
            if status != 0 or Fraction(json.loads(text)["transversal_weight"]) != want:
                return False
        if any(status != 0 or not json.loads(text)["equivalent"] for status, text in out["equiv"]):
            return False
        greedy = out["greedy"]
        if greedy.cardinality != s["greedy"][1] or not verify.verify_code(greedy, GREEDY_MODEL).passed:
            return False
        if not out["verify"].passed:
            return False
        cap = (s["rll"] - 1).bit_length() + 3
        return out["decoded"] == self.words and all(_max_run(y) <= cap for y in out["encoded"])


WORKLOADS = {w.name: w for w in (Certify, DecodeMix, BallCensus)}
