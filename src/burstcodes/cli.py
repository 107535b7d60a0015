"""Command-line front end.

Verbs: build, verify, decode, bound, tabulate, rll-encode, rll-decode, ball,
equiv, simulate. Words travel as '0'/'1' lines on --in/--out (default the
standard streams); every run is deterministic given its flags and seed.

Exit codes: 0 success, 1 decode failure or verification violations, 2 usage
or domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from io import StringIO

from . import balls, bounds, codes, rll, verify
from .bitseq import format_word, parse_word
from .errors import BurstCodesError, DecodeFailure, DomainError


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="burstcodes",
        description="burst-deletion/insertion-correcting codes with brute-force verification",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def family_flags(p: argparse.ArgumentParser, params_default: str | None = "best") -> None:
        p.add_argument("--family", required=True, choices=[f.value for f in codes.Family])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--b", type=int, default=None, help="burst parameter (fixed for some families)")
        p.add_argument("--params", default=params_default, help="comma-separated residues or 'best'")

    def io_flags(p: argparse.ArgumentParser, inp: bool = True, out: bool = True) -> None:
        if inp:
            p.add_argument("--in", dest="infile", default="-", help="input file or - for stdin")
        if out:
            p.add_argument("--out", dest="outfile", default="-", help="output file or - for stdout")

    def fmt_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("build", help="enumerate a codebook and write it as a file")
    family_flags(p)
    io_flags(p, inp=False)

    p = sub.add_parser("verify", help="exhaustively verify ball disjointness")
    family_flags(p)
    p.add_argument("--model", default=None, help="error model (defaults to the family target)")
    fmt_flag(p)
    io_flags(p, inp=False)

    p = sub.add_parser("decode", help="decode received words line by line")
    family_flags(p, params_default=None)
    io_flags(p)

    p = sub.add_parser("bound", help="cardinality bound report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    fmt_flag(p)
    io_flags(p, inp=False)

    p = sub.add_parser("tabulate", help="redundancy comparison across lengths")
    p.add_argument("--family", required=True, choices=[f.value for f in codes.Family])
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--n", required=True, help="comma-separated lengths, e.g. 8,12,16")
    fmt_flag(p)
    io_flags(p, inp=False)

    p = sub.add_parser("rll-encode", help="run-length-limited systematic encoding")
    io_flags(p)

    p = sub.add_parser("rll-decode", help="invert rll-encode")
    io_flags(p)

    p = sub.add_parser("ball", help="list or size error balls of input words")
    p.add_argument("--model", required=True)
    p.add_argument("--b", type=int, default=1)
    fmt_flag(p)
    io_flags(p)

    p = sub.add_parser("equiv", help="deletion/insertion equivalence sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--model", default="exact", help="exact | at-most-consecutive | at-most-nonconsecutive")
    fmt_flag(p)
    io_flags(p, inp=False)

    p = sub.add_parser("simulate", help="apply seeded channel errors to input words")
    p.add_argument("--model", required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    fmt_flag(p)
    io_flags(p)

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
        # checked first: an unchecked b could ask param_fields for ~b^2 forms
        codes._validate_structure(family, args.n, b)
        if args.params == "best" or not codes.param_fields(family, b):
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
    if getattr(args, "outfile", "-") == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.outfile!r}: {exc}") from None


def run(argv: list[str], stdin_text: str | None = None) -> int:
    """Execute one command; returns the exit status. Testable entry point."""
    args = _build_parser().parse_args(argv)
    verb = args.verb

    if verb == "build":
        spec = _resolve_spec(args)
        cb = codes.build(spec)
        buf = StringIO()
        codes.write_codebook(cb, buf)
        _emit(args, buf.getvalue())
        return 0

    if verb == "verify":
        spec = _resolve_spec(args)
        cb = codes.build(spec)
        model = (
            codes.target_model(spec)
            if args.model is None
            else balls.parse_model(args.model, spec.b)
        )
        report = verify.verify_code(cb, model)
        if args.format == "json":
            _emit(args, json.dumps(report.to_json()) + "\n")
        else:
            lines = [
                f"codebook: {report.codebook}",
                f"model: {report.model}",
                f"cardinality: {cb.cardinality}",
                f"pairs_checked: {report.pairs_checked}",
                f"passed: {str(report.passed).lower()}",
            ]
            for x, y, z in report.violations:
                lines.append(f"violation: {format_word(x)} {format_word(y)} -> {format_word(z)}")
            _emit(args, "\n".join(lines) + "\n")
        return 0 if report.passed else 1

    if verb == "decode":
        spec = _resolve_spec(args)
        out_lines = []
        for y in _read_words(args, stdin_text):
            res = codes.decode(spec, y)
            out_lines.append(format_word(res.word))
        _emit(args, "\n".join(out_lines) + ("\n" if out_lines else ""))
        return 0

    if verb == "bound":
        report = bounds.bound_report(args.n, args.b)
        if args.format == "json":
            _emit(args, json.dumps(report.to_json()) + "\n")
        else:
            j = report.to_json()
            lines = [
                f"upper_bound: {j['upper_bound']} ({j['upper_bound_float']:.6g})",
                f"lower_bound_redundancy: {j['lower_bound_redundancy']:.6f}",
                f"transversal_weight: {j['transversal_weight']}",
            ]
            lines += [
                f"formula {k}: {v:.6f}" if isinstance(v, float) else f"formula {k}: {v}"
                for k, v in j["formulas"].items()
            ]
            _emit(args, "\n".join(lines) + "\n")
        return 0

    if verb == "tabulate":
        return _tabulate(args)

    if verb == "rll-encode":
        out = [format_word(rll.rll_encode(x)) for x in _read_words(args, stdin_text)]
        _emit(args, "\n".join(out) + ("\n" if out else ""))
        return 0

    if verb == "rll-decode":
        out = [format_word(rll.rll_decode(y)) for y in _read_words(args, stdin_text)]
        _emit(args, "\n".join(out) + ("\n" if out else ""))
        return 0

    if verb == "ball":
        model = balls.parse_model(args.model, args.b)
        chunks = []
        for x in _read_words(args, stdin_text):
            elements = sorted(balls.ball(x, model))
            if args.format == "json":
                chunks.append(
                    json.dumps(
                        {
                            "word": format_word(x),
                            "model": str(model),
                            "size": len(elements),
                            "elements": [format_word(e) for e in elements],
                        }
                    )
                    + "\n"
                )
            else:
                chunks.append(f"ball({format_word(x)}) model={model} size={len(elements)}\n")
                chunks.extend(format_word(e) + "\n" for e in elements)
        _emit(args, "".join(chunks))
        return 0

    if verb == "equiv":
        result = verify.equivalence_check(args.n, args.b, args.model)
        if args.format == "json":
            _emit(
                args,
                json.dumps({"n": args.n, "b": args.b, "flavor": args.model, "equivalent": result})
                + "\n",
            )
        else:
            _emit(args, f"equivalent: {str(result).lower()}\n")
        return 0

    if verb == "simulate":
        model = balls.parse_model(args.model, args.b)
        chunks = []
        for idx, x in enumerate(_read_words(args, stdin_text)):
            corrupted, event = verify.apply_error(x, model, args.seed + idx)
            if args.format == "json":
                chunks.append(
                    json.dumps(
                        {
                            "input": format_word(x),
                            "output": format_word(corrupted),
                            "event": event.to_json(),
                        }
                    )
                    + "\n"
                )
            else:
                chunks.append(
                    f"{format_word(x)} -> {format_word(corrupted)} "
                    f"event={json.dumps(event.to_json())}\n"
                )
        _emit(args, "".join(chunks))
        return 0

    raise DomainError(f"unhandled verb {verb}")  # pragma: no cover


def _tabulate(args) -> int:
    family = codes.parse_family(args.family)
    b = _burst(args, family)
    columns = (
        "lower_bound",
        "cheng_baseline",
        "burst_exact_bound",
        "at_most_consecutive_bound",
        "noncons3_bound",
        "noncons4_bound",
    )
    try:
        lengths = [int(t) for t in args.n.split(",")]
    except ValueError:
        raise DomainError(f"--n takes comma-separated integers, got {args.n!r}") from None
    rows = []
    for n in lengths:
        spec = codes.best_params(family, n, b)
        cb = codes.build(spec)
        refs = bounds.reference_redundancies(n, b)
        row = {
            "n": n,
            "params": ",".join(map(str, spec.params)) or "-",
            "cardinality": cb.cardinality,
            "redundancy_measured": None if not cb.cardinality else round(cb.redundancy, 4),
        }
        for col in columns:
            val = refs.get(col)
            row[col] = None if val is None else round(val, 4)
        rows.append(row)
    if args.format == "json":
        _emit(args, json.dumps({"family": family.value, "b": b, "rows": rows}) + "\n")
        return 0
    headers = ["n", "params", "cardinality", "redundancy_measured", *columns]
    widths = {
        h: max(len(h), *(len(_cell(r.get(h))) for r in rows)) for h in headers
    }
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    for r in rows:
        lines.append("  ".join(_cell(r.get(h)).ljust(widths[h]) for h in headers))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cell(v) -> str:
    if v is None:
        return "-"
    return str(v)


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
