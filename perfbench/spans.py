"""Span recording around the library's public functions, and the per-layer
metrics computed from the spans.

A span is (name, start, end, parent). Spans are opened by wrappers that the
tracer installs on the module attribute each caller looks the function up
through, so the library itself is never edited: ``codes.build`` calls
``_enum.iter_chunks``, so the chunk wrapper replaces ``_enum.iter_chunks``;
``codes.decode`` calls its own global ``vt_decode``, so that wrapper replaces
``codes.vt_decode``. Every span belongs to one benchmark operation (the "op"
span the runner opens), which is how per-request sums are formed. Spans stay
in packed arrays in memory and are written once, by the runner, at exit.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter, defaultdict

from burstcodes import _enum, balls, bitseq, bounds, cli, codes, rll, verify

clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        # -1 for no outcome, else the boolean a membership test returned.
        self.flag = array("b")
        self.op_labels: list[str | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._verify_span = -1
        self._verify_keys: set = set()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, start: int | None = None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(clock() if start is None else start)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.flag.append(-1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.remove(idx)

    def begin_op(self, label: str | None) -> int:
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        return self.open("op")

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self._op = -1

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        """Wrap fn in a span; name is a string or a function of the call's
        arguments."""
        label = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            idx = self.open(label(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_member(self, fn):
        def traced(spec, x):
            idx = self.open("codes.member")
            try:
                ok = fn(spec, x)
            finally:
                self.close(idx)
            self.flag[idx] = 1 if ok else 0
            return ok

        return traced

    def _wrap_ball_ints(self, fn):
        def traced(v, n, model):
            idx = self.open("balls.ball_ints." + model.kind.value)
            try:
                out = fn(v, n, model)
            finally:
                self.close(idx)
            parent = self.parent[idx]
            if parent >= 0 and self.name_of(parent) == "verify.verify_code":
                # verify_code owns each key for the first codeword whose ball
                # holds it; every later arrival of the key is a collision.
                if parent != self._verify_span:
                    self._verify_span, self._verify_keys = parent, set()
                before = len(self._verify_keys)
                self._verify_keys |= out
                self.counts["verify.ball_elements"] += len(out)
                self.counts["verify.collisions"] += len(out) - (len(self._verify_keys) - before)
            return out

        return traced

    def _wrap_iter_chunks(self, fn):
        """Each chunk span runs from the request for the chunk until the
        consumer asks for the next one, so it covers the chunk's creation and
        everything the consumer does with it."""

        def traced(n):
            inner = fn(n)
            while True:
                start = clock()
                try:
                    chunk = next(inner)
                except StopIteration:
                    return
                idx = self.open("enum.chunk", start)
                try:
                    yield chunk
                finally:
                    self.close(idx)

        return traced

    def _patches(self):
        transversal_path = lambda n, b: (
            "bounds.transversal_weight." + ("formula" if (n - b) % b == 0 else "enum")
        )
        return [
            (_enum, "iter_chunks", self._wrap_iter_chunks(_enum.iter_chunks)),
            (codes, "best_params", self._wrap(codes.best_params, "codes.best_params")),
            (codes, "build", self._wrap(codes.build, "codes.build")),
            (codes, "write_codebook", self._wrap(codes.write_codebook, "codes.write_codebook")),
            (codes, "decode", self._wrap(codes.decode, "codes.decode")),
            (codes, "member", self._wrap_member(codes.member)),
            (codes, "vt_decode", self._wrap(codes.vt_decode, "vt.vt_decode")),
            (codes, "svt_decode", self._wrap(codes.svt_decode, "svt.svt_decode")),
            (codes, "array_view", self._wrap(codes.array_view, "bitseq.array_view")),
            (codes, "flatten", self._wrap(codes.flatten, "bitseq.flatten")),
            (bitseq, "parse_word", self._wrap(bitseq.parse_word, "bitseq.parse_word")),
            (bitseq, "format_word", self._wrap(bitseq.format_word, "bitseq.format_word")),
            (verify, "verify_code", self._wrap(verify.verify_code, "verify.verify_code")),
            (
                verify,
                "equivalence_check",
                self._wrap(
                    verify.equivalence_check,
                    lambda n, b, flavor: "verify.equivalence_check." + flavor,
                ),
            ),
            (verify, "greedy_code", self._wrap(verify.greedy_code, "verify.greedy_code")),
            (balls, "ball_ints", self._wrap_ball_ints(balls.ball_ints)),
            (bounds, "transversal_weight", self._wrap(bounds.transversal_weight, transversal_path)),
            (rll, "rll_encode", self._wrap(rll.rll_encode, "rll.rll_encode")),
            (rll, "rll_decode", self._wrap(rll.rll_decode, "rll.rll_decode")),
            (cli, "run", self._wrap(cli.run, "cli.run")),
        ]

    def install(self) -> None:
        for owner, attr, traced in self._patches():
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "op_labels": self.op_labels,
            "name_id": self.name_id.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

DECODE_PATHS = ("array-burst", "cheng1", "vt", "c21", "windowed")
SEARCH_PATHS = ("c21", "windowed")
EQUIV_FLAVORS = ("exact", "at-most-consecutive", "at-most-nonconsecutive")
BALL_MODELS = tuple(
    k.value for k in balls.ErrorKind if k is not balls.ErrorKind.BURST_2_1
)


def self_times(tr: Tracer) -> tuple[list[int], list[int]]:
    """Durations and self times (duration minus the time direct children
    cover), in ns, per span."""
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    covered = [0] * len(dur)
    for i, p in enumerate(tr.parent):
        if p >= 0:
            covered[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def self_time_table(tr: Tracer) -> dict[str, dict[str, float]]:
    dur, own = self_times(tr)
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    selfs: Counter[str] = Counter()
    for i, nid in enumerate(tr.name_id):
        name = tr.names[nid]
        calls[name] += 1
        total[name] += dur[i]
        selfs[name] += own[i]
    return {
        name: {"calls": calls[name], "total_s": total[name] / 1e9, "self_s": selfs[name] / 1e9}
        for name in sorted(calls)
    }


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric the spans support; a metric whose layer was not
    reached is left out. Totals are per traced operation; `_us` metrics are
    medians over calls."""
    dur, own = self_times(tr)
    spans: dict[str, list[int]] = defaultdict(list)
    for i, nid in enumerate(tr.name_id):
        spans[tr.names[nid]].append(i)
    n_ops = len(spans["op"])
    out: dict[str, float] = {}

    def per_op(key: str, name: str, scale: float, times=dur) -> None:
        if spans[name]:
            out[key] = sum(times[i] for i in spans[name]) / n_ops / scale

    def median(key: str, idxs: list[int], scale: float) -> None:
        if idxs:
            out[key] = statistics.median(dur[i] for i in idxs) / scale

    def under(name: str, parent: str) -> list[int]:
        return [i for i in spans[name] if tr.name_of(tr.parent[i]) == parent]

    if spans["enum.chunk"]:
        out["enum.chunks"] = len(spans["enum.chunk"]) / n_ops
    for fn in ("best_params", "build"):
        per_op(f"codes.{fn}_s", f"codes.{fn}", 1e9)
        median(f"codes.{fn}.chunk_ms", under("enum.chunk", f"codes.{fn}"), 1e6)
    per_op("codes.build.extract_s", "codes.build", 1e9, times=own)
    per_op("codes.write_codebook_s", "codes.write_codebook", 1e9)

    decode_by_path: dict[str, list[int]] = defaultdict(list)
    for i in spans["codes.decode"]:
        decode_by_path[tr.op_labels[tr.op[i]]].append(i)
    for path in DECODE_PATHS:
        median(f"codes.decode_us.{path}", decode_by_path[path], 1e3)
    for path in SEARCH_PATHS:
        decodes = set(decode_by_path[path])
        tried = [i for i in spans["codes.member"] if tr.parent[i] in decodes]
        if decodes:
            out[f"codes.member_calls.{path}"] = len(tried) / len(decodes)
        if tried:
            out[f"codes.useful_ratio.{path}"] = sum(tr.flag[i] for i in tried) / len(tried)
    median("codes.member_us", spans["codes.member"], 1e3)
    median("vt.vt_decode_us", spans["vt.vt_decode"], 1e3)
    median("svt.svt_decode_us", spans["svt.svt_decode"], 1e3)
    median("bitseq.array_view_us", spans["bitseq.array_view"], 1e3)
    median("bitseq.flatten_us", spans["bitseq.flatten"], 1e3)
    parse_format: Counter[int] = Counter()
    for name in ("bitseq.parse_word", "bitseq.format_word"):
        for i in spans[name]:
            parse_format[tr.op[i]] += dur[i]
    if parse_format:
        out["bitseq.parse_format_us"] = statistics.median(parse_format.values()) / 1e3

    per_op("verify.verify_code_s", "verify.verify_code", 1e9)
    if spans["verify.verify_code"]:
        for key in ("verify.ball_elements", "verify.collisions"):
            out[key] = tr.counts[key] / n_ops
    for flavor in EQUIV_FLAVORS:
        per_op(f"verify.equivalence_s.{flavor}", f"verify.equivalence_check.{flavor}", 1e9)
    per_op("verify.greedy_s", "verify.greedy_code", 1e9)
    for model in BALL_MODELS:
        idxs = spans[f"balls.ball_ints.{model}"]
        median(f"balls.ball_ints_us.{model}", idxs, 1e3)
        if idxs:
            out[f"balls.ball_ints_calls.{model}"] = len(idxs) / n_ops
    per_op("bounds.transversal_formula_s", "bounds.transversal_weight.formula", 1e9)
    per_op("bounds.transversal_enum_s", "bounds.transversal_weight.enum", 1e9)
    median("rll.encode_us", spans["rll.rll_encode"], 1e3)
    median("rll.decode_us", spans["rll.rll_decode"], 1e3)
    per_op("cli.self_ms", "cli.run", 1e6, times=own)
    return out
