"""Command-line front end.

    coincalc pi M Q                     print pi_M(S^Q)
    coincalc stems K                    print pi_K^S
    coincalc nielsen ...                invariants of one pair of maps
    coincalc compare ...                equivalence table over a range of m
    coincalc witnesses --claim a|b|c    inequivalence witnesses
    coincalc selfloose ...              self-coincidence verdicts
    coincalc verify-s ...               exact geometry of the pairwise rotation
    coincalc validate-data              internal consistency of the dataset

Exit codes: 0 ok; 1 an Unknown verdict under --strict; 2 bad input or out of
tabulated range; 3 invalid data file.
"""

from __future__ import annotations

import argparse
import json
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


def _load(args) -> SphereTables:
    path = args.tables or os.environ.get(ENV_TABLES)
    if path:
        with open(path, "rb") as fh:
            return SphereTables(load_tables(fh))
    return load_default_tables()


def _report_lines(rep: Report, machine: bool) -> str:
    if machine:
        return json.dumps(rep.to_dict(), indent=2)
    return rep.render()


def _has_unknown(rep: Report) -> bool:
    return any(v.is_unknown for v in rep.values().values())


def _finish(args, unknown_seen: bool) -> int:
    if unknown_seen and getattr(args, "strict", False):
        print("strict mode: Unknown verdicts present", file=sys.stderr)
        return EXIT_STRICT
    return EXIT_OK


def cmd_pi(args) -> int:
    tables = _load(args)
    entry = tables.lookup(args.m, args.q)
    print(entry.group)
    if entry.gen_names:
        print("generators:", ", ".join(entry.gen_names))
    if entry.source:
        print("source:", entry.source)
    return EXIT_OK


def cmd_stems(args) -> int:
    tables = _load(args)
    stem = tables.ring.stem(args.k)
    print(stem.group)
    if stem.gen_names:
        print("generators:", ", ".join(stem.gen_names))
    if stem.source:
        print("source:", stem.source)
    return EXIT_OK


def _expr_context(tables: SphereTables, sp, m: int) -> tuple[int, int]:
    """Which pi_m(S^?) command-line expressions live in for this target."""
    if sp.n == 1 or decompose_valid(tables, sp, m):
        return m, sp.q
    return m, sp.n


def cmd_nielsen(args) -> int:
    tables = _load(args)
    sp = space(args.field, args.nprime)
    m, q = _expr_context(tables, sp, args.m)
    f1 = parse_class(tables, args.f1, m, q)
    f2 = parse_class(tables, args.f2, m, q)
    rep = projective_report(
        tables, sp, args.m, f1, f2, assume_self_loose=args.assume_self_loose
    )
    print(_report_lines(rep, args.machine))
    return _finish(args, _has_unknown(rep))


SURFACES = {"CP1": ("C", 1), "RP2": ("R", 2)}


def cmd_compare(args) -> int:
    tables = _load(args)
    if args.surface not in SURFACES:
        raise FgAbError(f"unknown surface {args.surface!r}; expected CP1 or RP2")
    tag, nprime = SURFACES[args.surface]
    sp = space(tag, nprime)
    try:
        lo_text, hi_text = args.m_range.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise FgAbError(f"bad m-range {args.m_range!r}; expected A..B") from None
    rows = []
    unknown_seen = False
    for m in range(lo, hi + 1):
        scan = equivalence_scan(tables, sp, m)
        rows.append(scan)
        unknown_seen = unknown_seen or any(
            v is ScanVerdict.UNKNOWN for v, _w in scan.verdicts.values()
        )
    if args.machine:
        doc = {
            "surface": args.surface,
            "rows": [
                {
                    "m": s.m,
                    "pattern": s.pattern(),
                    "verdicts": {k: v.value for k, (v, _w) in s.verdicts.items()},
                }
                for s in rows
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for s in rows:
            print(s.row())
    return _finish(args, unknown_seen)


def _witness_reports(tables: SphereTables, claim: str) -> list[tuple[str, Report]]:
    rp5 = space("R", 5)
    out: list[tuple[str, Report]] = []
    if claim == "a":
        w5 = tables.whitehead(5)
        out.append(
            (
                "Whitehead square of S^5 against a constant (sphere level): "
                "N# = 1 but N~ = 0",
                sphere_report(tables, 9, 5, w5, tables.zero(9, 5)),
            )
        )
        out.append(
            (
                "same class pushed to RP(5): N# = 2, N~ = 0",
                projective_report(tables, rp5, 9, w5, tables.zero(9, 5)),
            )
        )
    elif claim == "b":
        eta5 = tables.suspend_iter(tables.named("hopfC"), 3)
        out.append(
            (
                "triple suspension of the complex Hopf class (sphere level): "
                "N~ = 1",
                sphere_report(tables, 6, 5, eta5, tables.zero(6, 5)),
            )
        )
        out.append(
            (
                "same class on RP(5): N~ = 2 but N = 0 (twice the stable "
                "class dies)",
                projective_report(tables, rp5, 6, eta5, tables.zero(6, 5)),
            )
        )
        hp1 = space("H", 1)
        out.append(
            (
                "24 times the quaternionic Hopf class on HP(1) = S^4: "
                "N~ = 1 but N = 0",
                projective_report(
                    tables, hp1, 7, tables.cls(7, 4, [24, 0]), tables.zero(7, 4)
                ),
            )
        )
    elif claim == "c":
        e2a = tables.suspend_iter(tables.named("alpha1_3"), 2)
        out.append(
            (
                "double suspension of the order-12 class of pi_6(S^3) "
                "(sphere level): N = 1 but NZ = 0",
                sphere_report(tables, 8, 5, e2a, tables.zero(8, 5)),
            )
        )
        out.append(
            (
                "same class on RP(5): N = 2 but NZ = 0",
                projective_report(tables, rp5, 8, e2a, tables.zero(8, 5)),
            )
        )
    else:
        raise FgAbError(f"unknown claim {claim!r}; expected a, b or c")
    return out


def cmd_witnesses(args) -> int:
    tables = _load(args)
    pairs = _witness_reports(tables, args.claim)
    unknown_seen = False
    if args.machine:
        doc = [
            {"description": desc, "report": rep.to_dict()} for desc, rep in pairs
        ]
        print(json.dumps(doc, indent=2))
    else:
        for desc, rep in pairs:
            print(f"== {desc}")
            print(rep.render())
            print()
    unknown_seen = any(_has_unknown(rep) for _d, rep in pairs)
    return _finish(args, unknown_seen)


def cmd_selfloose(args) -> int:
    if args.fiber:
        verdict = fiber_projection_self_loose(args.field, args.nprime)
        subject = f"(p, p) for the fibration over {args.field}P({args.nprime})"
    else:
        if args.m is None:
            raise FgAbError("selfloose needs --m unless --fiber is given")
        verdict = self_loose(args.field, args.m, args.nprime)
        subject = f"(f, f) for every f: S^{args.m} -> {args.field}P({args.nprime})"
    if args.machine:
        print(
            json.dumps(
                {"subject": subject, "verdict": verdict.verdict.value, "reason": verdict.reason},
                indent=2,
            )
        )
    else:
        print(f"{subject}: {verdict}")
    if verdict.verdict is Verdict.UNKNOWN and args.strict:
        return EXIT_STRICT
    return EXIT_OK


def _fmt_scalar(s) -> str:
    units = ["", "i", "j", "k"]
    parts = []
    for c, u in zip(s, units):
        if c:
            parts.append(f"{c}{u}")
    return " + ".join(parts) if parts else "0"


def cmd_verify_s(args) -> int:
    if args.samples < 1:
        raise FgAbError("--samples must be >= 1")
    if args.field == "H":
        x, lam = quaternion_counterexample()
        sx = selfmap_s(x)
        print("x =", tuple(_fmt_scalar(e) for e in x.entries))
        print("s(x) =", tuple(_fmt_scalar(e) for e in sx.entries))
        print("lambda =", _fmt_scalar(lam), "with |lambda|^2 = 1")
        print("s(x) - lambda*x = 0 exactly; residual =", residual_not_parallel(x))
        return EXIT_OK
    nprime = args.nprime if args.nprime is not None else 3
    if nprime < 1:
        raise FgAbError("n' must be >= 1")
    if nprime % 2 == 0:
        raise FgAbError("the pairwise rotation needs n' odd")
    samples = sample_unit_vectors(args.field, nprime, args.samples, seed=args.seed)
    worst = None
    for vec in samples:
        res = residual_not_parallel(vec)
        if res <= 0:
            print("FAIL: found a vector with s(x) on the line K.x", file=sys.stderr)
            return EXIT_STRICT
        worst = res if worst is None or res < worst else worst
    print(
        f"{args.samples} exact rational samples over {args.field}, n' = {nprime}: "
        f"all residuals positive (smallest {worst})"
    )
    return EXIT_OK


def cmd_validate_data(args) -> int:
    tables = _load(args)
    report = tables.validate()
    print(report)
    return EXIT_OK if report.ok else EXIT_DATA


def cmd_wecken(args) -> int:
    sp = space(args.field, args.nprime)
    answer = wecken_status(sp, args.m)
    if args.machine:
        doc = {
            "target": sp.name,
            "m": args.m,
            "status": answer.status.value,
            "reason": answer.reason,
        }
        if answer.witness is not None:
            doc["witness"] = answer.witness.to_dict()
        print(json.dumps(doc, indent=2))
    else:
        print(f"{sp.name}, m = {args.m}: {answer.status.value} ({answer.reason})")
        if answer.witness is not None:
            print(answer.witness.render())
    if answer.status is WeckenStatus.UNKNOWN and args.strict:
        return EXIT_STRICT
    return EXIT_OK


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="print pi_m(S^q)")
    p.add_argument("m", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("stems", help="print a stable stem")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_stems)

    p = sub.add_parser("nielsen", help="invariants of one pair of maps")
    p.add_argument("--field", required=True, choices=["R", "C", "H"])
    p.add_argument("--nprime", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--assume-self-loose", action="store_true")
    p.add_argument("--machine", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_nielsen)

    p = sub.add_parser("compare", help="equivalence table over a range of m")
    p.add_argument("--surface", required=True, help="CP1 or RP2")
    p.add_argument("--m-range", required=True, dest="m_range", metavar="A..B")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("witnesses", help="inequivalence witnesses")
    p.add_argument("--claim", required=True, choices=["a", "b", "c"])
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_witnesses)

    p = sub.add_parser("selfloose", help="self-coincidence verdicts")
    p.add_argument("--field", required=True, choices=["R", "C", "H"])
    p.add_argument("--nprime", required=True, type=int)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--fiber", action="store_true", help="judge the fiber projection")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_selfloose)

    p = sub.add_parser("verify-s", help="exact check of the pairwise rotation")
    p.add_argument("--field", required=True, choices=["R", "C", "H"])
    p.add_argument("--nprime", type=int, default=None)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_s)

    p = sub.add_parser("wecken", help="does MCC = N# hold for all pairs?")
    p.add_argument("--field", required=True, choices=["R", "C", "H"])
    p.add_argument("--nprime", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_wecken)

    p = sub.add_parser("validate-data", help="check dataset consistency")
    p.set_defaults(func=cmd_validate_data)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaError, UnregisteredName) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OutOfTabulatedRange as exc:
        print(f"out of tabulated range: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ExprError, FgAbError, TableError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"cannot read tables: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
