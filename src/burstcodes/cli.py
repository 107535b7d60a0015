"""Command-line front end.

Verbs: build, verify, decode, bound, tabulate, rll-encode, rll-decode, ball,
equiv, simulate. Words travel as '0'/'1' lines on --in/--out (default the
standard streams); every run is deterministic given its flags and seed.

The CLI is one table of verbs (_VERBS). Each verb is registered with its help
line and its flags, and is a function (args, stdin_text) -> (status, text);
run parses the arguments, calls the verb and writes its text once, so a verb
that raises writes nothing. One rule (_render) picks the output form: a verb
hands it a JSON-ready record and its text lines, and --format json prints the
record as one JSON line, text the lines. decode, rll-encode and rll-decode map
each input word to one output word through one path (_map_words).

Exit codes: 0 success, 1 decode failure or verification violations, 2 usage
or domain errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from io import StringIO

from . import balls, bounds, codes, rll, verify
from .bitseq import format_word, parse_word
from .errors import BurstCodesError, DecodeFailure, DomainError

# verb name -> (function, help, flags), in the order the help lists them
_VERBS: dict = {}


def _verb(name: str, help_: str, *flags):
    """Register the decorated function as verb `name`; each flag adds its
    arguments to the verb's parser."""

    def register(fn):
        _VERBS[name] = (fn, help_, flags)
        return fn

    return register


def _flag(*names, **kwargs):
    """A flag, as the function that adds it to a verb's parser."""
    return lambda p: p.add_argument(*names, **kwargs)


_FAMILY = _flag("--family", required=True, choices=[f.value for f in codes.Family])
_N = _flag("--n", type=int, required=True)
_B = _flag("--b", type=int, required=True)
_BURST = _flag("--b", type=int, default=None, help="burst parameter (fixed for some families)")
_MODEL_FLAGS = (_flag("--model", required=True), _flag("--b", type=int, default=1))
_FORMAT = _flag("--format", choices=("text", "json"), default="text")
_IN = _flag("--in", dest="infile", default="-", help="input file or - for stdin")
_OUT = _flag("--out", dest="outfile", default="-", help="output file or - for stdout")


def _spec_flags(params_default: str | None = "best") -> tuple:
    params = _flag("--params", default=params_default, help="comma-separated residues or 'best'")
    return _FAMILY, _N, _BURST, params


@functools.cache  # built once per process: _VERBS is complete at import
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="burstcodes",
        description="burst-deletion/insertion-correcting codes with brute-force verification",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for name, (_, help_, flags) in _VERBS.items():
        p = sub.add_parser(name, help=help_)
        for add in flags:
            add(p)
    return ap


def _burst(args, family: codes.Family) -> int:
    """--b, or the burst parameter the family fixes."""
    b = codes.default_burst(family) if args.b is None else args.b
    if b is None:
        raise DomainError(f"--b is required for family {family.value}")
    return b


def _resolve_spec(args) -> codes.CodeSpec:
    family = codes.parse_family(args.family)
    b = _burst(args, family)
    if args.params in (None, "", "best"):
        if args.params == "best" or not codes.param_ranges(family, args.n, b):
            return codes.best_params(family, args.n, b)
        raise DomainError("--params is required (residues or 'best')")
    try:
        params = () if args.params == "-" else tuple(int(t) for t in args.params.split(","))
    except ValueError:
        raise DomainError(f"--params takes comma-separated integers, got {args.params!r}") from None
    return codes.CodeSpec(family, args.n, b, params)


def _read_words(args, stdin_text: str | None) -> list:
    if args.infile == "-":
        text = stdin_text if stdin_text is not None else sys.stdin.read()
    else:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read --in {args.infile!r}: {exc}") from None
    return [parse_word(line.strip()) for line in text.splitlines() if line.strip()]


def _emit(args, text: str) -> None:
    if args.outfile == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.outfile!r}: {exc}") from None


def _render(args, record, lines) -> str:
    """The record as one JSON line under --format json, else the text lines."""
    if args.format == "json":
        return json.dumps(record) + "\n"
    return "".join(line + "\n" for line in lines)


def _map_words(args, stdin_text, fn) -> tuple[int, str]:
    """Status 0 and one line per input word: fn of the word."""
    return 0, "".join(format_word(fn(x)) + "\n" for x in _read_words(args, stdin_text))


def run(argv: list[str], stdin_text: str | None = None) -> int:
    """Execute one command; returns the exit status. Testable entry point."""
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse reads a value like -1,0 as an option: bind it by =
        if argv[i - 1][:2] == "--" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1] += "=" + argv.pop(i)
    args = _build_parser().parse_args(argv)
    status, text = _VERBS[args.verb][0](args, stdin_text)
    _emit(args, text)
    return status


@_verb("build", "enumerate a codebook and write it as a file", *_spec_flags(), _OUT)
def _build(args, stdin_text):
    buf = StringIO()
    codes.write_codebook(codes.build(_resolve_spec(args)), buf)
    return 0, buf.getvalue()


@_verb(
    "verify", "exhaustively verify ball disjointness", *_spec_flags(),
    _flag("--model", default=None, help="error model (defaults to the family target)"),
    _FORMAT, _OUT,
)
def _verify(args, stdin_text):
    spec = _resolve_spec(args)
    cb = codes.build(spec)
    model = codes.target_model(spec) if args.model is None else balls.parse_model(args.model, spec.b)
    report = verify.verify_code(cb, model)
    lines = [
        f"codebook: {report.codebook}",
        f"model: {report.model}",
        f"cardinality: {cb.cardinality}",
        f"pairs_checked: {report.pairs_checked}",
        f"passed: {str(report.passed).lower()}",
    ]
    lines += [f"violation: {format_word(x)} {format_word(y)} -> {format_word(z)}"
              for x, y, z in report.violations]
    return int(not report.passed), _render(args, report.to_json(), lines)


@_verb("decode", "decode received words line by line", *_spec_flags(None), _IN, _OUT)
def _decode(args, stdin_text):
    spec = _resolve_spec(args)
    return _map_words(args, stdin_text, lambda y: codes.decode(spec, y).word)


@_verb("bound", "cardinality bound report", _N, _B, _FORMAT, _OUT)
def _bound(args, stdin_text):
    j = bounds.bound_report(args.n, args.b).to_json()
    lines = [
        f"upper_bound: {j['upper_bound']} ({j['upper_bound_float']:.6g})",
        f"lower_bound_redundancy: {j['lower_bound_redundancy']:.6f}",
        f"transversal_weight: {j['transversal_weight']}",
    ]
    lines += [f"formula {k}: {v:.6f}" if isinstance(v, float) else f"formula {k}: {v}"
              for k, v in j["formulas"].items()]
    return 0, _render(args, j, lines)


@_verb(
    "tabulate", "redundancy comparison across lengths", _FAMILY, _flag("--b", type=int, default=None),
    _flag("--n", required=True, help="comma-separated lengths, e.g. 8,12,16"), _FORMAT, _OUT,
)
def _tabulate(args, stdin_text):
    family = codes.parse_family(args.family)
    b = _burst(args, family)
    # the lower bound, then each family's own column, in registry order
    columns = ["lower_bound", *dict.fromkeys(rec.bound for rec in codes._FAMILIES.values())]
    try:
        lengths = [int(t) for t in args.n.split(",")]
    except ValueError:
        raise DomainError(f"--n takes comma-separated integers, got {args.n!r}") from None
    rows = []
    for n in lengths:
        params, size = codes._best(family, n, b)  # the size of the best class is the code's
        refs = bounds.reference_redundancies(n, b)
        rows.append({
            "n": n,
            "params": ",".join(map(str, params)) or "-",
            "cardinality": size,
            "redundancy_measured": round(n - math.log2(size), 4),
            **{col: None if refs.get(col) is None else round(refs[col], 4) for col in columns},
        })
    cells = [[h, *("-" if r[h] is None else str(r[h]) for r in rows)] for h in rows[0]]
    widths = [max(map(len, col)) for col in cells]
    lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in zip(*cells)]
    record = {"family": family.value, "b": b, "rows": rows}
    if note := codes._record(family).note:
        record["note"] = note
        lines.append(f"note: {note}")
    return 0, _render(args, record, lines)


@_verb("rll-encode", "run-length-limited systematic encoding", _IN, _OUT)
def _rll_encode(args, stdin_text):
    return _map_words(args, stdin_text, rll.rll_encode)


@_verb("rll-decode", "invert rll-encode", _IN, _OUT)
def _rll_decode(args, stdin_text):
    return _map_words(args, stdin_text, rll.rll_decode)


@_verb("ball", "list or size error balls of input words", *_MODEL_FLAGS, _FORMAT, _IN, _OUT)
def _ball(args, stdin_text):
    model = balls.parse_model(args.model, args.b)
    out = []
    for x in _read_words(args, stdin_text):
        word, elements = format_word(x), [format_word(e) for e in sorted(balls.ball(x, model))]
        record = {"word": word, "model": str(model), "size": len(elements), "elements": elements}
        out.append(_render(args, record, [f"ball({word}) model={model} size={len(elements)}", *elements]))
    return 0, "".join(out)


@_verb(
    "equiv", "deletion/insertion equivalence sweep", _N, _B,
    _flag("--model", default="exact", help="exact | at-most-consecutive | at-most-nonconsecutive"),
    _FORMAT, _OUT,
)
def _equiv(args, stdin_text):
    if args.model not in verify._FLAVORS:
        raise DomainError(f"--model must be one of {sorted(verify._FLAVORS)}, got {args.model!r}")
    result = verify.equivalence_check(args.n, args.b, args.model)
    record = {"n": args.n, "b": args.b, "flavor": args.model, "equivalent": result}
    return 0, _render(args, record, [f"equivalent: {str(result).lower()}"])


@_verb(
    "simulate", "apply seeded channel errors to input words", *_MODEL_FLAGS,
    _flag("--seed", type=int, default=0), _FORMAT, _IN, _OUT,
)
def _simulate(args, stdin_text):
    model = balls.parse_model(args.model, args.b)
    out = []
    for idx, x in enumerate(_read_words(args, stdin_text)):
        corrupted, event = verify.apply_error(x, model, args.seed + idx)
        record = {"input": format_word(x), "output": format_word(corrupted), "event": event.to_json()}
        line = f"{record['input']} -> {record['output']} event={json.dumps(record['event'])}"
        out.append(_render(args, record, [line]))
    return 0, "".join(out)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except DecodeFailure as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return 1
    except (DomainError, BurstCodesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
