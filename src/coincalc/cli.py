"""Command-line front end.

    coincalc pi M Q                     print pi_M(S^Q)
    coincalc stems K                    print pi_K^S
    coincalc nielsen ...                invariants of one pair of maps
    coincalc compare ...                equivalence table over a range of m
    coincalc witnesses --claim a|b|c    inequivalence witnesses
    coincalc selfloose ...              self-coincidence verdicts
    coincalc verify-s ...               exact geometry of the pairwise rotation
    coincalc wecken ...                 does MCC = N# hold for all pairs?
    coincalc validate-data              internal consistency of the dataset

Each command returns its answer as (text, --machine document, outcome) and
raises on bad input or bad data; `main` alone prints the text or the JSON
document and turns the outcome or the exception into the exit code.

Exit codes: 0 ok; 1 an Unknown verdict under --strict (every command that
can be Unknown then prints one `strict mode:` line on stderr); 2 bad input or
out of tabulated range; 3 invalid or unreadable data file.  A reader that
closes stdout early (`coincalc ... | head -1`) is not an error: the exit
code stays the command's.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import load_default_tables
from .exprs import ExprError, parse_class
from .fgab import FgAbError
from .invariants import (
    Report,
    ScanVerdict,
    WeckenStatus,
    equivalence_scan,
    projective_report,
    sphere_report,
    wecken_status,
)
from .projective import decompose_valid, space
from .selfco import (
    Verdict,
    fiber_projection_self_loose,
    quaternion_counterexample,
    residual_not_parallel,
    sample_unit_vectors,
    self_loose,
    selfmap_s,
)
from .spheres import SphereTables
from .tables import (
    _INT,
    OutOfTabulatedRange,
    ParseError,
    SchemaError,
    TableError,
    UnregisteredName,
    load_tables,
)

ENV_TABLES = "COINCALC_TABLES"

EXIT_OK = 0
EXIT_STRICT = 1
EXIT_INPUT = 2
EXIT_DATA = 3

# What a command's answer means for the exit code; main alone maps it.
OK, UNKNOWN, INVALID, FAILED = "ok", "unknown", "invalid", "failed"


class TablesUnreadable(Exception):
    """The table file named by --tables or $COINCALC_TABLES cannot be read."""


def _load(args) -> SphereTables:
    path = args.tables or os.environ.get(ENV_TABLES)
    if path:
        try:
            with open(path, "rb") as fh:
                return SphereTables(load_tables(fh))
        except OSError as exc:
            raise TablesUnreadable(exc) from None
    return load_default_tables()


class _IntArg(str):
    """The text of an integer argument.  main reads it with _integer, in the
    grammar of the table and of expressions, so that a bad one is an input
    error of one line rather than argparse's usage error."""


def _integer(text: str, what: str) -> int:
    """An integer argument: ASCII -?[0-9]+, which int() alone extends."""
    if not _INT.fullmatch(text):
        raise ValueError(f"{what} must be an integer -?[0-9]+, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise ValueError(f"{what} is too long: {exc}") from None


def _has_unknown(rep: Report) -> bool:
    return any(v.is_unknown for v in rep.values().values())


def _listing(entry) -> str:
    """A group with its generator names and citation, one per line."""
    lines = [f"{entry.group}\n"]
    if entry.gen_names:
        lines.append(f"generators: {', '.join(entry.gen_names)}\n")
    if entry.source:
        lines.append(f"source: {entry.source}\n")
    return "".join(lines)


# Each cmd_* returns (text, doc, outcome): the text it prints, its --machine
# document (None for commands without --machine) and one of the outcomes
# above.  Bad input and data faults are raised; main reports them.


def cmd_pi(args):
    return _listing(_load(args).lookup(args.m, args.q)), None, OK


def cmd_stems(args):
    return _listing(_load(args).ring.stem(args.k)), None, OK


def _expr_context(tables: SphereTables, sp, m: int) -> tuple[int, int]:
    """Which pi_m(S^?) command-line expressions live in for this target."""
    if sp.n == 1 or decompose_valid(tables, sp, m):
        return m, sp.q
    return m, sp.n


def cmd_nielsen(args):
    tables = _load(args)
    sp = space(args.field, args.nprime)
    try:
        str(sp.q)  # the largest dimension a report prints
    except ValueError as exc:  # past the interpreter's digit limit
        raise FgAbError(
            f"--nprime is too large: the dimension of S^q cannot be printed: {exc}"
        ) from None
    m, q = _expr_context(tables, sp, args.m)
    f1 = parse_class(tables, args.f1, m, q)
    f2 = parse_class(tables, args.f2, m, q)
    rep = projective_report(
        tables, sp, args.m, f1, f2, assume_self_loose=args.assume_self_loose
    )
    return rep.render() + "\n", rep.to_dict(), UNKNOWN if _has_unknown(rep) else OK


SURFACES = {"CP1": ("C", 1), "RP2": ("R", 2)}


def cmd_compare(args):
    tables = _load(args)
    if args.surface not in SURFACES:
        raise FgAbError(f"unknown surface {args.surface!r}; expected CP1 or RP2")
    sp = space(*SURFACES[args.surface])
    try:
        lo, hi = (_integer(bound, "--m-range") for bound in args.m_range.split(".."))
    except ValueError:
        raise FgAbError(f"bad m-range {args.m_range!r}; expected A..B") from None
    rows = [equivalence_scan(tables, sp, m) for m in range(lo, hi + 1)]
    doc, unknown = {"surface": args.surface, "rows": []}, False
    for s in rows:
        row = {"m": s.m, "pattern": s.pattern(),
               "verdicts": {k: v.value for k, (v, _w) in s.verdicts.items()}}
        # Each relation left undecided, with the gap or gate that blocked it.
        reasons = {k: str(w) for k, (v, w) in s.verdicts.items() if v is ScanVerdict.UNKNOWN}
        if reasons:
            row["reasons"], unknown = reasons, True
        doc["rows"].append(row)
    return "".join(s.row() + "\n" for s in rows), doc, UNKNOWN if unknown else OK


def _witness_reports(tables: SphereTables, claim: str) -> list[tuple[str, Report]]:
    """The (description, report) pairs of one claim; argparse admits a, b, c."""
    rp5 = space("R", 5)
    if claim == "a":
        w5 = tables.whitehead(5)
        return [
            ("Whitehead square of S^5 against a constant (sphere level): "
             "N# = 1 but N~ = 0", sphere_report(tables, 9, 5, w5, tables.zero(9, 5))),
            ("same class pushed to RP(5): N# = 2, N~ = 0",
             projective_report(tables, rp5, 9, w5, tables.zero(9, 5))),
        ]
    if claim == "b":
        eta5 = tables.suspend_iter(tables.named("hopfC"), 3)
        return [
            ("triple suspension of the complex Hopf class (sphere level): N~ = 1",
             sphere_report(tables, 6, 5, eta5, tables.zero(6, 5))),
            ("same class on RP(5): N~ = 2 but N = 0 (twice the stable class dies)",
             projective_report(tables, rp5, 6, eta5, tables.zero(6, 5))),
            ("24 times the quaternionic Hopf class on HP(1) = S^4: N~ = 1 but N = 0",
             projective_report(tables, space("H", 1), 7, tables.cls(7, 4, [24, 0]),
                               tables.zero(7, 4))),
        ]
    e2a = tables.suspend_iter(tables.named("alpha1_3"), 2)
    return [
        ("double suspension of the order-12 class of pi_6(S^3) (sphere level): "
         "N = 1 but NZ = 0", sphere_report(tables, 8, 5, e2a, tables.zero(8, 5))),
        ("same class on RP(5): N = 2 but NZ = 0",
         projective_report(tables, rp5, 8, e2a, tables.zero(8, 5))),
    ]


def cmd_witnesses(args):
    pairs = _witness_reports(_load(args), args.claim)
    text = "".join(f"== {desc}\n{rep.render()}\n\n" for desc, rep in pairs)
    doc = [{"description": desc, "report": rep.to_dict()} for desc, rep in pairs]
    unknown = any(_has_unknown(rep) for _d, rep in pairs)
    return text, doc, UNKNOWN if unknown else OK


def cmd_selfloose(args):
    if args.fiber:
        verdict = fiber_projection_self_loose(args.field, args.nprime)
        subject = f"(p, p) for the fibration over {args.field}P({args.nprime})"
    else:
        if args.m is None:
            raise FgAbError("selfloose needs --m unless --fiber is given")
        verdict = self_loose(args.field, args.m, args.nprime)
        subject = f"(f, f) for every f: S^{args.m} -> {args.field}P({args.nprime})"
    doc = {"subject": subject, "verdict": verdict.verdict.value, "reason": str(verdict.reason)}
    outcome = UNKNOWN if verdict.verdict is Verdict.UNKNOWN else OK
    return f"{subject}: {verdict}\n", doc, outcome


def _fmt_scalar(s) -> str:
    return " + ".join(f"{c}{u}" for c, u in zip(s, ("", "i", "j", "k")) if c) or "0"


def cmd_verify_s(args):
    if args.samples < 1:
        raise FgAbError("--samples must be >= 1")
    nprime = args.nprime if args.nprime is not None else 3
    if nprime < 1:
        raise FgAbError("n' must be >= 1")
    if args.field == "H":
        x, lam = quaternion_counterexample()
        sx = selfmap_s(x)
        if not (sx - x.scalar_mul_left(lam)).is_zero:
            return "FAIL: s(x) - lambda*x is not zero\n", None, FAILED
        text = (
            f"x = {tuple(_fmt_scalar(e) for e in x.entries)}\n"
            f"s(x) = {tuple(_fmt_scalar(e) for e in sx.entries)}\n"
            f"lambda = {_fmt_scalar(lam)} with |lambda|^2 = 1\n"
            f"s(x) - lambda*x = 0 exactly; residual = {residual_not_parallel(x)!s}\n"
        )
        return text, None, OK
    if nprime % 2 == 0:
        raise FgAbError("the pairwise rotation needs n' odd")
    samples = sample_unit_vectors(args.field, nprime, args.samples, seed=args.seed)
    smallest = min(residual_not_parallel(vec) for vec in samples)
    if smallest <= 0:
        return "FAIL: found a vector with s(x) on the line K.x\n", None, FAILED
    text = (
        f"{args.samples} exact rational samples over {args.field}, n' = {nprime}: "
        f"all residuals positive (smallest {smallest!s})\n"
    )
    return text, None, OK


def cmd_validate_data(args):
    report = _load(args).validate()
    return f"{report}\n", None, OK if report.ok else INVALID


def cmd_wecken(args):
    sp = space(args.field, args.nprime)
    answer = wecken_status(sp, args.m)
    text = f"{sp.name}, m = {args.m}: {answer.status.value} ({answer.reason})\n"
    doc = {
        "target": sp.name,
        "m": args.m,
        "status": answer.status.value,
        "reason": answer.reason,
    }
    if answer.witness is not None:
        text += answer.witness.render() + "\n"
        doc["witness"] = answer.witness.to_dict()
    return text, doc, UNKNOWN if answer.status is WeckenStatus.UNKNOWN else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coincalc",
        description="Exact coincidence invariants for maps from spheres into "
        "projective spaces.",
    )
    parser.add_argument(
        "--tables", metavar="PATH", default=None,
        help=f"table file (default: ${ENV_TABLES} or the bundled dataset)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when a verdict is Unknown for lack of data",
    )
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", required=True, choices=["R", "C", "H"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="print pi_m(S^q)")
    p.add_argument("m", type=_IntArg)
    p.add_argument("q", type=_IntArg)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("stems", help="print a stable stem")
    p.add_argument("k", type=_IntArg)
    p.set_defaults(func=cmd_stems)

    p = sub.add_parser("nielsen", parents=[field], help="invariants of one pair of maps")
    p.add_argument("--nprime", required=True, type=_IntArg)
    p.add_argument("--m", required=True, type=_IntArg)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--assume-self-loose", action="store_true")
    p.set_defaults(func=cmd_nielsen)

    p = sub.add_parser("compare", help="equivalence table over a range of m")
    p.add_argument("--surface", required=True, help="CP1 or RP2")
    p.add_argument("--m-range", required=True, dest="m_range", metavar="A..B")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("witnesses", help="inequivalence witnesses")
    p.add_argument("--claim", required=True, choices=["a", "b", "c"])
    p.set_defaults(func=cmd_witnesses)

    p = sub.add_parser("selfloose", parents=[field], help="self-coincidence verdicts")
    p.add_argument("--nprime", required=True, type=_IntArg)
    p.add_argument("--m", type=_IntArg, default=None)
    p.add_argument("--fiber", action="store_true", help="judge the fiber projection")
    p.set_defaults(func=cmd_selfloose)

    p = sub.add_parser("verify-s", parents=[field], help="exact check of the pairwise rotation")
    p.add_argument("--nprime", type=_IntArg, default=None)
    p.add_argument("--samples", type=_IntArg, default=25)
    p.add_argument("--seed", type=_IntArg, default=0)
    p.set_defaults(func=cmd_verify_s)

    p = sub.add_parser("wecken", parents=[field], help="does MCC = N# hold for all pairs?")
    p.add_argument("--nprime", required=True, type=_IntArg)
    p.add_argument("--m", required=True, type=_IntArg)
    p.set_defaults(func=cmd_wecken)

    p = sub.add_parser("validate-data", help="check dataset consistency")
    p.set_defaults(func=cmd_validate_data)

    # Declared last, so that it follows each command's own options in usage.
    for name in ("nielsen", "compare", "witnesses", "selfloose", "wecken"):
        sub.choices[name].add_argument("--machine", action="store_true", help="JSON output")
    return parser


def _emit(stream, text: str) -> None:
    """Write text; a reader that has gone away (`| head -1`) is no error."""
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        # Later writes, and the flush at exit, go to devnull instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, _IntArg):
                setattr(args, name, _integer(value, name))
        text, doc, outcome = args.func(args)
    except (ParseError, SchemaError, UnregisteredName) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OutOfTabulatedRange as exc:
        print(f"out of tabulated range: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ExprError, FgAbError, TableError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TablesUnreadable as exc:
        print(f"cannot read tables: {exc}", file=sys.stderr)
        return EXIT_DATA
    if getattr(args, "machine", False):
        import json

        text = json.dumps(doc, indent=2) + "\n"
    _emit(sys.stderr if outcome is FAILED else sys.stdout, text)
    if outcome is UNKNOWN and args.strict:
        print("strict mode: Unknown verdicts present", file=sys.stderr)
        return EXIT_STRICT
    return {INVALID: EXIT_DATA, FAILED: EXIT_STRICT}.get(outcome, EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
