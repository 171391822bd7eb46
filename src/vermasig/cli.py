"""Command line front end: decomposition, classification, quantum, and Bethe reports.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Exact rationals
are serialized as strings like "-7/10" so reports round-trip losslessly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

# lets argparse treat "-1/2,-3/4" as a value, not an option (no option string
# here starts with a digit, so this cannot shadow a real flag)
_NEGATIVE_RATIONAL_LIST = re.compile(r"^-\d[\d/,.\-]*$")

from . import __version__
from .sigchar import DomainError, GenericityError, multiplicity_dim, peel_decompose
from .classify import ExplicitType, classify_definite, explicit_type_of, verify_type
from .quantum import (
    QParam, RootOfUnityError, crystal_multiplicity, multiplicity_signature, multiplicity_signatures,
)


class UsageError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {text!r}: {exc}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"malformed integer {text.strip()!r}") from None


def _parse_list(text: str, parse_item) -> list:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise UsageError("empty list")
    return [parse_item(s) for s in items]


def _emit(args, command: str, config: dict, rows: list[dict], columns: list[str], **fields) -> None:
    """Render the report once, print it, and append the same text to --out.

    ``fields`` are extra report keys (``complete_up_to``, ``verified``); the
    JSON report carries them all, the table shows only the verified line.
    """
    if args.json:
        report = {"command": command, "version": __version__, "config": config, "rows": rows}
        text = json.dumps({**report, **fields}, sort_keys=True)
    else:
        # config and version ride along as a comment line in the text formats
        lines = [f"# vermasig {__version__} {json.dumps(config, sort_keys=True)}"]
        if args.csv:
            lines.append(",".join(columns))
            lines += [",".join(str(row[c]) for c in columns) for row in rows]
        else:
            widths = {
                c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
                for c in columns
            }
            lines.append("  ".join(c.ljust(widths[c]) for c in columns))
            lines += ["  ".join(str(row[c]).ljust(widths[c]) for c in columns) for row in rows]
            if "verified" in fields:
                lines.append(f"verified: {fields['verified']}")
        text = "\n".join(lines)
    # --out is written first: a path that cannot be opened prints no report, and
    # a reader that closes stdout early (`| head`) does not cost the file its copy
    try:
        out = open(args.out, "a", encoding="utf-8") if args.out else None
    except OSError as exc:
        raise UsageError(f"cannot open --out: {exc}") from None
    if out:
        with out:
            out.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # not an error of this command; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    formats = parser.add_mutually_exclusive_group()
    formats.add_argument("--json", action="store_true", help="emit a JSON report")
    formats.add_argument("--csv", action="store_true", help="emit CSV rows")
    parser.add_argument("--out", help="also append the report, as printed, to this file")


def _cmd_decompose(args) -> int:
    weights = _parse_list(args.weights, _parse_rational)
    dec = peel_decompose(weights, args.max_level)
    rows = []
    for e in dec.entries:
        rows.append(
            {
                "m": e.level,
                "pos": e.pos,
                "neg": e.neg,
                "sgn": e.signature,
                "dim": e.dim,
                "definite": e.is_definite,
            }
        )
    config = {"weights": [str(w) for w in weights], "max_level": args.max_level}
    _emit(args, "decompose", config, rows, ["m", "pos", "neg", "sgn", "dim", "definite"])
    return 0


def _cmd_classify(args) -> int:
    if args.type is not None:
        values = _parse_list(args.type, _parse_int)
        etype = ExplicitType(values[0], tuple(values[1:]))
    else:
        etype = explicit_type_of(_parse_list(args.weights, _parse_rational))
    report_obj = classify_definite(etype, args.bound)
    bound = report_obj.complete_up_to  # --bound, or the type's default
    rows = [{"level": lv, "sign": s} for lv, s in report_obj.entries]
    config = {
        "total_floor": etype.total_floor,
        "factor_floors": list(etype.factor_floors),
        "bound": bound,
        "seed": args.seed,
    }
    fields = {"complete_up_to": bound}
    if args.verify:
        fields["verified"] = verify_type(etype, bound, random.Random(args.seed))
    _emit(args, "classify", config, rows, ["level", "sign"], **fields)
    return 0 if fields.get("verified", True) else 1


def _cmd_quantum(args) -> int:
    # each mode rejects the flags that only the other mode reads
    if args.q1:
        mode, unused = "--q1", {"-m": args.m, "--a": args.a, "--t": args.t}
        unused["--all-levels"] = args.all_levels or None
    else:
        mode, unused = "generic-q", {"--weights": args.weights, "--max-level": args.max_level}
    given = [flag for flag, value in unused.items() if value is not None]
    if given:
        raise UsageError(f"{mode} mode does not use {', '.join(given)}")
    if args.q1:
        if args.weights is None or args.max_level is None:
            raise UsageError("--q1 needs --weights and --max-level")
        if args.max_level < 0:
            raise UsageError("--max-level must be nonnegative")
        weights = _parse_list(args.weights, _parse_rational)
        rows = [
            {"m": m, "sgn": sgn, "dim": multiplicity_dim(len(weights), m)}
            for m, sgn in enumerate(multiplicity_signatures(weights, args.max_level))
        ]
        config = {
            "mode": "q1",
            "weights": [str(w) for w in weights],
            "max_level": args.max_level,
        }
        columns = ["m", "sgn", "dim"]
    else:
        if args.a is None or args.t is None:
            raise UsageError("generic-q mode needs --a and --t")
        for piece in args.a.split(","):
            piece = piece.strip()
            if piece and not piece.lstrip("+").isdigit():
                raise UsageError(f"--a expects nonnegative integers, got {piece!r}")
        a = _parse_list(args.a, _parse_int)
        t = _parse_rational(args.t)
        qp = QParam(t.numerator, t.denominator)
        if args.all_levels:
            signs = dict(enumerate(multiplicity_signatures(a, sum(a) // 2, qp)))
        elif args.m is not None:
            signs = {args.m: multiplicity_signature(a, args.m, qp)}
        else:
            raise UsageError("give -m or --all-levels")
        rows = [
            {
                "a": "+".join(str(x) for x in a),
                "m": m,
                "t": str(t),
                "sgn": sgn,
                "dim": crystal_multiplicity(a, m),
            }
            for m, sgn in signs.items()
        ]
        config = {"mode": "generic", "a": a, "t": str(t), "levels": list(signs)}
        columns = ["a", "m", "t", "sgn", "dim"]
    _emit(args, "quantum", config, rows, columns)
    return 0


def _parse_sweep(expr: str) -> list[int]:
    try:
        key, rng = expr.split("=")
        if key.strip() != "m":
            raise ValueError("only m ranges are supported")
        lo, hi = rng.split("..")
        lo, hi = int(lo), int(hi)
        if lo < 1:
            raise ValueError("levels start at 1")
        if hi < lo:
            raise ValueError("empty range")
        return list(range(lo, hi + 1))
    except ValueError as exc:
        raise UsageError(f"bad --sweep {expr!r}: {exc}") from None


def _bethe_level_job(job):
    """One sweep instance: its row, or the message of the FalsificationError that
    ``bound_check`` raised.  Module-level so process pools can run it."""
    from .bethe import FalsificationError, bound_check, find_critical_points

    cfg, seed = job
    try:
        report_m = bound_check(cfg, seed=seed)
    except FalsificationError as exc:
        return str(exc)
    points = find_critical_points(cfg, report_m.witnesses)
    return {
        "m": cfg.m,
        "dim": report_m.dim,
        "sgn": report_m.signature,
        "abs_sgn": abs(report_m.signature),
        "n_real": report_m.n_real,
        "n_roots_found": len(points),
        "n_roots_real": sum(1 for p in points if p.is_real),
        "seed": seed,
        "points": [
            {
                "q_coefficients": [[c.real, c.imag] for c in p.qpoly],
                "residual": p.residual,
                "is_real": p.is_real,
            }
            for p in points
        ],
    }


def _cmd_bethe(args) -> int:
    # the one command that needs numpy, so bethe is imported here, not at load
    from .bethe import MasterConfig

    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    weights = _parse_list(args.weights, _parse_rational)
    z = _parse_list(args.z, _parse_rational)
    levels = [args.m] if args.sweep is None else _parse_sweep(args.sweep)
    # every usage error comes before any output: each config is built, and the
    # weights (the same at every level) checked, before the first job runs
    configs = [MasterConfig(tuple(z), tuple(weights), m) for m in levels]
    configs[0].require_generic()
    jobs = [(cfg, args.seed + idx) for idx, cfg in enumerate(configs)]
    # the pool starts all its workers at once, so never more than there are jobs
    workers = min(args.threads, len(jobs))
    rows = []
    failures = 0
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a parallel sweep
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_bethe_level_job, jobs)
    else:
        results = map(_bethe_level_job, jobs)
    for outcome in results:
        if isinstance(outcome, str):
            print(f"verification failure: {outcome}", file=sys.stderr)
            failures += 1
        else:
            rows.append(outcome)
    config = {
        "weights": [str(w) for w in weights],
        "z": [str(v) for v in z],
        "levels": levels,
        "seed": args.seed,
    }
    # JSON carries every row field; the text formats show these columns
    cols = ["m", "dim", "abs_sgn", "n_real", "n_roots_found", "n_roots_real"]
    _emit(args, "bethe", config, rows, cols)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermasig",
        description="multiplicity space signatures, definite-space classification, "
        "quantum signature formulas, and Bethe real critical point counts",
    )
    parser._negative_number_matcher = _NEGATIVE_RATIONAL_LIST
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="peel a tensor product character")
    p.add_argument("--weights", required=True, help="comma-separated rationals")
    p.add_argument("--max-level", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("classify", help="definite multiplicity spaces of an explicit type")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--type", help="total floor,factor floors (e.g. 1,0,0,-1)")
    source.add_argument("--weights", help="derive the explicit type from weights")
    p.add_argument("--bound", type=int)
    p.add_argument("--verify", action="store_true", help="cross-check against peeling")
    p.add_argument("--seed", type=int, default=0)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("quantum", help="multiplicity signatures at unit-circle q or q=1")
    p.add_argument("--a", help="nonnegative integer weights, comma separated")
    p.add_argument("--t", help="q = exp(i*pi*t) for rational t = p/D in (0,1)")
    levels = p.add_mutually_exclusive_group()
    levels.add_argument("-m", type=int)
    levels.add_argument("--all-levels", action="store_true")
    p.add_argument("--q1", action="store_true", help="evaluate the formula at q = 1")
    p.add_argument("--weights", help="rational weights for --q1 mode")
    p.add_argument("--max-level", type=int)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("bethe", help="real critical point counts and the signature bound")
    p.add_argument("--weights", required=True)
    p.add_argument("--z", required=True)
    levels = p.add_mutually_exclusive_group(required=True)
    levels.add_argument("-m", type=int)
    levels.add_argument("--sweep", help="level range, e.g. m=1..3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="sweep worker processes")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_bethe)

    for sp in sub.choices.values():
        sp._negative_number_matcher = _NEGATIVE_RATIONAL_LIST
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call, then reused


def main(argv: list[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, DomainError, GenericityError, RootOfUnityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
