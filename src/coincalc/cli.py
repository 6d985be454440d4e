"""Command-line front end.  One table, COMMANDS, holds each command with its
arguments and help texts (`coincalc -h`, `coincalc CMD -h`); a small reader
reads it in place of argparse, so a call loads no argparse, gettext or locale.

Each command returns its answer as (text, --machine document, outcome) and
raises on bad input or bad data; `main` alone prints the text or the JSON
document and turns the outcome or the exception into the exit code.

Exit codes: 0 ok; 1 an Unknown verdict under --strict (every command that
can be Unknown then prints one `strict mode:` line on stderr); 2 bad input,
which a deliberate check raises as an InputError, or out of tabulated range;
3 invalid or unreadable data file; any other exception propagates.  A reader
that closes stdout early (`coincalc ... | head -1`) is not an error: the exit
code stays the command's.

`run` is the process entry; `main` is the in-process one.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace
from typing import Optional

from . import load_default_tables
from .exprs import parse_class
from .fgab import InputError
from .invariants import (
    SPHERE,
    Report,
    ScanVerdict,
    WeckenStatus,
    equivalence_scan,
    projective_report,
    route,
    sphere_report,
    wecken_status,
)
from .projective import space
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
from .tables import _INT, OutOfTabulatedRange, TableError, load_tables

ENV_TABLES = "COINCALC_TABLES"

EXIT_OK = 0
EXIT_STRICT = 1
EXIT_INPUT = 2
EXIT_DATA = 3
VERIFY_S_MAX_COORDS = 100_000  # verify-s's exact coordinates: a few seconds' work

# What a command's answer means for the exit code; main alone maps it.
OK, UNKNOWN, INVALID, FAILED = "ok", "unknown", "invalid", "failed"


class TablesUnreadable(Exception):
    """The table file named by --tables or $COINCALC_TABLES cannot be read."""


def _load(args) -> SphereTables:
    # A given --tables is a path even when empty; an empty variable is unset.
    path = args.tables
    if path is None:
        path = os.environ.get(ENV_TABLES) or None
    if path is not None:
        try:
            with open(path, "rb") as fh:
                return SphereTables(load_tables(fh))
        except OSError as exc:
            raise TablesUnreadable(exc) from None
    return load_default_tables()


class _IntArg(str):
    """The text of an integer argument.  main reads it with _integer once the
    whole line is read, in the grammar of the table and of expressions, so a
    bad one is an input error of one line, and a usage error wins over it."""


def _integer(text: str, what: str) -> int:
    """An integer argument: ASCII -?[0-9]+, which int() alone extends."""
    if not _INT.fullmatch(text):
        raise InputError(f"{what} must be an integer -?[0-9]+, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise InputError(f"{what} is too long: {exc}") from None


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


def cmd_nielsen(args):
    tables = _load(args)
    sp = space(args.field, args.nprime)
    try:
        str(sp.q)  # the largest dimension a report prints
    except ValueError as exc:  # past the interpreter's digit limit
        raise InputError(
            f"--nprime is too large: the dimension of S^q cannot be printed: {exc}"
        ) from None
    if args.m < 2:
        raise InputError("projective reports need a simply connected domain, m >= 2")
    q = sp.n if route(tables, sp, args.m)[0] is SPHERE else sp.q  # pi_m(S^n), or lifts
    f1 = parse_class(tables, args.f1, args.m, q)
    f2 = parse_class(tables, args.f2, args.m, q)
    rep = projective_report(
        tables, sp, args.m, f1, f2, assume_self_loose=args.assume_self_loose
    )
    return rep.render() + "\n", rep.to_dict(), UNKNOWN if _has_unknown(rep) else OK


SURFACES = {"CP1": ("C", 1), "RP2": ("R", 2)}


def cmd_compare(args):
    tables = _load(args)
    if args.surface not in SURFACES:
        raise InputError(f"unknown surface {args.surface!r}; expected CP1 or RP2")
    sp = space(*SURFACES[args.surface])
    try:
        lo, hi = (_integer(bound, "--m-range") for bound in args.m_range.split(".."))
    except ValueError:  # not two bounds, or a bound that is no integer
        raise InputError(f"bad m-range {args.m_range!r}; expected A..B") from None
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
    """The (description, report) pairs of one claim; COMMANDS admits a, b, c."""
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
        subject = f"(p, p) for the fibration over {space(args.field, args.nprime).name}"
    else:
        if args.m is None:
            raise InputError("selfloose needs --m unless --fiber is given")
        verdict = self_loose(args.field, args.m, args.nprime)
        subject = f"(f, f) for every f: S^{args.m} -> {space(args.field, args.nprime).name}"
    doc = {"subject": subject, "verdict": verdict.verdict.value, "reason": str(verdict.reason)}
    outcome = UNKNOWN if verdict.verdict is Verdict.UNKNOWN else OK
    return f"{subject}: {verdict}\n", doc, outcome


def _fmt_scalar(s) -> str:
    return " + ".join(f"{c}{u}" for c, u in zip(s, ("", "i", "j", "k")) if c) or "0"


def cmd_verify_s(args):
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.nprime < 1:
        raise InputError("n' must be >= 1")
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
    if args.nprime % 2 == 0:
        raise InputError("the pairwise rotation needs n' odd")
    if (args.nprime + 1) * args.samples > VERIFY_S_MAX_COORDS:
        raise InputError(f"(n' + 1) * samples must be at most {VERIFY_S_MAX_COORDS:,}")
    samples = sample_unit_vectors(args.field, args.nprime, args.samples, seed=args.seed)
    smallest = min(residual_not_parallel(vec) for vec in samples)
    if smallest <= 0:
        return "FAIL: found a vector with s(x) on the line K.x\n", None, FAILED
    text = (
        f"{args.samples} exact rational samples over {args.field}, n' = {args.nprime}: "
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


# The command line: command -> (function, help, positionals, options).  A
# positional is an integer, (name, help); an option is (flag, dest, kind,
# required, default, help), its kind _IntArg for an integer, a metavar for
# text, a tuple of choices, or bool for a switch; a required one has the
# default None.  _TOP is the global level, whose one positional is the command.
_FIELD = ("--field", "field", ("R", "C", "H"), True, None, "the field K of the target KP(n')")
_NPRIME = ("--nprime", "nprime", _IntArg, True, None, "n', the dimension of KP(n') over K")
_M = ("--m", "m", _IntArg, True, None, "the dimension m of the source sphere S^m")
_MACHINE = ("--machine", "machine", bool, False, False, "JSON output")
COMMANDS = {
    "pi": (cmd_pi, "print pi_m(S^q)", (("m", "the source S^m"), ("q", "the target S^q")), ()),
    "stems": (cmd_stems, "print a stable stem", (("k", "the stem pi_k^S"),), ()),
    "nielsen": (cmd_nielsen, "invariants of one pair of maps", (), (
        _FIELD, _NPRIME, _M, ("--f1", "f1", "EXPR", True, None, "the class of f1"),
        ("--f2", "f2", "EXPR", True, None, "the class of f2"),
        ("--assume-self-loose", "assume_self_loose", bool, False, False, "assume (f1, f1) loose"),
        _MACHINE)),
    "compare": (cmd_compare, "equivalence table over a range of m", (), (
        ("--surface", "surface", "SURFACE", True, None, "CP1 or RP2"),
        ("--m-range", "m_range", "A..B", True, None, "the values A to B of m"), _MACHINE)),
    "witnesses": (cmd_witnesses, "inequivalence witnesses", (), (
        ("--claim", "claim", ("a", "b", "c"), True, None, "the claim to witness"), _MACHINE)),
    "selfloose": (cmd_selfloose, "self-coincidence verdicts", (), (
        _FIELD, _NPRIME, ("--m", "m", _IntArg, False, None, _M[5] + ", unless --fiber"),
        ("--fiber", "fiber", bool, False, False, "judge the fiber projection"), _MACHINE)),
    "verify-s": (cmd_verify_s, "exact check of the pairwise rotation", (), (
        _FIELD, ("--nprime", "nprime", _IntArg, False, 3, "n' (default 3)"),
        ("--samples", "samples", _IntArg, False, 25,
         f"unit vectors to check, (n' + 1) * samples <= {VERIFY_S_MAX_COORDS:,} (default 25)"),
        ("--seed", "seed", _IntArg, False, 0, "seed of the samples (default 0)"))),
    "wecken": (cmd_wecken, "does MCC = N# hold for all pairs?", (),
               (_FIELD, _NPRIME, _M, _MACHINE)),
    "validate-data": (cmd_validate_data, "check dataset consistency", (), ()),
}
_TOP = (None, "Exact coincidence invariants for maps from spheres into projective spaces.",
        (("command", "one of:"),), (
    ("--tables", "tables", "PATH", False, None,
     f"table file (default: ${ENV_TABLES} or the bundled dataset)"),
    ("--strict", "strict", bool, False, False,
     "exit 1 when a verdict is Unknown for lack of data")))
_HELP = ("-h", "help", bool, False, False, "show this help message and exit")


def _usage(command, full=False) -> str:
    """The usage line of a command (None for the global one); in full, the help text."""
    _f, about, positionals, options = COMMANDS[command] if command else _TOP

    def flag(option):
        flag, dest, kind = option[:3]
        meta = dest.upper() if kind is _IntArg else kind
        meta = "{%s}" % ",".join(meta) if isinstance(meta, tuple) else meta
        return flag if kind is bool else f"{flag} {meta}"
    words = ["[-h]"] + [flag(o) if o[3] else f"[{flag(o)}]" for o in options]
    words += [p for p, _h in positionals] if command else ["{%s} ..." % ",".join(COMMANDS)]
    text = f"usage: coincalc {command + ' ' if command else ''}{' '.join(words)}\n"
    if full:
        rows = [*positionals] + [(f"  {c}", spec[1]) for c, spec in COMMANDS.items() if not command]
        rows += [("-h, --help", _HELP[5])] + [(flag(o), o[5]) for o in options]
        text += f"\n{about}\n\narguments:\n" + "".join(f"  {n:<21} {h}\n" for n, h in rows)
    return text


def _refuse(command, message: str):
    """A usage error: the usage line and the error on stderr, then exit 2."""
    sys.stderr.write(f"{_usage(command)}coincalc{' ' + command if command else ''}: "
                     f"error: {message}\n")
    raise SystemExit(2)


def _token(token: str, options: dict, command):
    """None for a value, else (the option or None if unknown, the text after
    its '=' or None).  A long option may be cut to a unique prefix; a token
    starting with '-' is a value only as a negative number or with a space."""
    if token[:1] != "-" or token == "-":
        return None
    flag, eq, text = token.partition("=")
    if flag in options:
        return options[flag], text if eq else None
    if token[1] == "-":
        found = [f for f in options if f.startswith(flag)]
        if len(found) > 1:
            _refuse(command, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return options[found[0]], text if eq else None
    elif token[:2] == "-h":  # -hh is -h twice; -hX is refused
        return _HELP, None if token.rstrip("h") == "-" else token[2:]
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (None, None)


def _read(tokens, command=None, args=None, extras=None):
    """The arguments of a command line, read as argparse read them: the global
    options up to the command, then its own into the same args.  Tokens are
    classified before any is read; after the first "--" come values only, and
    unknown tokens wait in extras.  Usage errors and help exit 2 and 0 here."""
    _f, _about, positionals, options = COMMANDS[command] if command else _TOP
    if command is None:
        args, extras = SimpleNamespace(**{o[1]: o[4] for o in options}), []
    table = {"-h": _HELP, "--help": _HELP, **{o[0]: o for o in options}}
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_token(t, table, command) for t in tokens[:end]]
    todo, i = [p for p, _h in positionals], 0
    while i < len(tokens):
        token, kind, i = tokens[i], kinds[i] if i < end else None, i + 1
        if kind is None and command is None:  # the command, which reads the rest
            if token not in COMMANDS:
                _refuse(None, f"argument command: invalid choice: {token!r}")
            args.command, func = token, COMMANDS[token][0]
            args.__dict__.update((o[1], o[4]) for o in COMMANDS[token][3])
            args.func = globals()[func.__name__]  # by name: a replaced cmd_* is the one called
            return _read(tokens[i:], token, args, extras)
        if kind is None or kind[0] is None:  # a value, the "--" or an unknown option
            if todo and kind is None and i - 1 != end:
                setattr(args, todo.pop(0), _IntArg(token))
            elif i - 1 != end or not positionals:  # only a positional absorbs "--"
                extras.append(token)
            continue
        (flag, dest, typ, *_rest), text = kind
        if typ is bool and text is not None:
            _refuse(command, f"argument {flag}: ignored explicit argument {text!r}")
        if kind[0] is _HELP:
            sys.stdout.write(_usage(command, full=True))
            raise SystemExit(0)
        if typ is not bool and text is None:
            if i >= end or kinds[i] is not None:
                _refuse(command, f"argument {flag}: expected one argument")
            text, i = tokens[i], i + 1
        if isinstance(typ, tuple) and text not in typ:
            _refuse(command, f"argument {flag}: invalid choice: {text!r}")
        setattr(args, dest, True if typ is bool else _IntArg(text) if typ is _IntArg else text)
    missing = todo + [o[0] for o in options if o[3] and getattr(args, o[1]) is None]
    if missing or extras:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}"
                if missing else f"unrecognized arguments: {' '.join(extras)}")
    return args


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
    args = _read(sys.argv[1:] if argv is None else argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, _IntArg):
                setattr(args, name, _integer(value, name))
        text, doc, outcome = args.func(args)
    except OutOfTabulatedRange as exc:
        print(f"out of tabulated range: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TableError as exc:  # a parse, schema or unregistered-name fault
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InputError as exc:
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


def run() -> None:
    """The process entry (`python -m coincalc.cli`, the `coincalc` script).

    Once the answer is written, every object left is moved into the
    collector's permanent generation, which the full collections of
    interpreter shutdown skip; `gc.disable()` would not stop them.  atexit
    hooks still run, so coverage and cProfile keep working."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
