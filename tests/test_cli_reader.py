"""The command-line reader against argparse, and the help texts.

`cli._read` replaced an argparse parser, which is kept below verbatim as
`build_parser` and serves as the oracle.  The same argv must give both the
same SystemExit code, or the same dest -> value map (types included) with
the same command function.  The argvs are every call of the CLI golden,
every cli_oneshot argv of perfbench/expected.json (read, never changed) and
EDGE_CASES, on each of which argparse 3.10, 3.11, 3.12 and 3.13 agree.

Without pytest, for interpreters that lack it:
    PYTHONPATH=src python tests/test_cli_reader.py
prints how many argvs were compared and each one whose outcomes differ, and
exits 1 if any does.
"""

import argparse
import contextlib
import io
import json
import os
import sys

from test_cli_golden import CALLS

from coincalc import cli
from coincalc.cli import (
    ENV_TABLES,
    _IntArg,
    cmd_compare,
    cmd_nielsen,
    cmd_pi,
    cmd_selfloose,
    cmd_stems,
    cmd_validate_data,
    cmd_verify_s,
    cmd_wecken,
    cmd_witnesses,
)

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "expected.json")


# The argparse parser that cli._read replaced, kept verbatim as the oracle.
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
    p.add_argument("--nprime", type=_IntArg, default=3)
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


_NIELSEN = ["nielsen", "--field", "R", "--nprime", "2", "--m", "3"]
_SELFLOOSE = ["selfloose", "--field", "R", "--nprime", "2"]
EDGE_CASES = [
    # Unique prefixes of long options, and ambiguous ones.
    [*_SELFLOOSE, "--m", "3", "--f"],
    ["selfloose", "--f", "R", "--nprime", "2", "--m", "3"],
    [*_SELFLOOSE, "--fi"],
    [*_SELFLOOSE, "--fib"],
    ["nielsen", "--fi", "R", "--nprime", "2", "--m", "3", "--f1", "zero", "--f2", "zero"],
    ["witnesses", "--cl", "a", "--ma"],
    ["compare", "--surface", "CP1", "--m-r", "2..3", "--mac"],
    ["compare", "--m", "2..3", "--surface", "CP1"],
    ["verify-s", "--field", "R", "--s", "3"],
    ["verify-s", "--field", "R", "--sa", "3", "--se=1"],
    [*_NIELSEN, "--f1", "zero", "--f2", "zero", "--assume"],
    ["--st", "pi", "9", "3"],
    ["pi", "1", "1", "--hel"],
    ["--=x", "pi", "1", "1"],
    ["pi", "--=x", "1", "1"],
    # --opt=value, and switches that refuse a value.
    [*_NIELSEN, "--f1=", "--f2", "zero"],
    [*_NIELSEN, "--f1=a=b", "--f2=zero"],
    ["wecken", "--field=R", "--nprime=2", "--m=-5"],
    ["compare", "--surface", "CP1", "--m-range=-1..3"],
    ["witnesses", "--claim=", "--machine"],
    ["witnesses", "--claim", "a", "--machine=1"],
    ["witnesses", "--claim", "a", "--machine="],
    ["--machine=1"],
    [*_SELFLOOSE, "--fib=1"],
    [*_NIELSEN, "--f1", "zero", "--f2", "zero", "--assume-self-loose=x"],
    ["--strict=1", "pi", "9", "3"],
    ["--tables=", "pi", "9", "3"],
    ["pi", "-h=x"],
    ["pi", "--help=x"],
    ["--help="],
    # A token that starts with '-' is a value only as a negative number or
    # with a space in it.
    ["pi", "-5", "3"],
    ["pi", "-.5", "3"],
    ["pi", "9", "-3"],
    ["stems", "-1.5"],
    ["stems", "-1e5"],
    ["stems", "-0x1"],
    ["stems", "- 1"],
    ["pi", "-", "3"],
    ["pi", "-5\n", "3"],
    ["pi", "-\u0663", "3"],
    ["--tables", "-5", "pi", "9", "3"],
    ["--tables", "-", "pi", "1", "1"],
    [*_NIELSEN, "--f1", "-2*g", "--f2", "zero"],
    [*_NIELSEN, "--f1", "-2 * g", "--f2", "zero"],
    [*_NIELSEN, "--f1", "-", "--f2", "zero"],
    [*_NIELSEN, "--f1", "", "--f2", "zero"],
    [*_NIELSEN, "--f1", "a", "--f2", "-x=y"],
    [*_NIELSEN, "--f1", "a", "--f2", "-5=3"],
    [*_NIELSEN, "--f1", "a", "--f2", "-h x"],
    [*_NIELSEN, "--f1", "a=b", "--f2", "--f1=x"],
    ["compare", "--surface", "CP1", "--m-range", "-1..3"],
    ["compare", "--m-range", "1..2", "--surface", "--m"],
    # Repeats: the last one holds.
    ["wecken", "--field", "R", "--nprime", "2", "--m", "3", "--m", "4"],
    ["witnesses", "--claim", "a", "--claim", "b"],
    ["--strict", "--strict", "pi", "1", "1"],
    ["--tables", "a", "--tables", "b", "pi", "1", "1"],
    # Unknown and single-dash options, misplaced global options.
    ["-x", "pi", "9", "3"],
    ["pi", "-x", "9", "3"],
    ["pi", "9", "3", "---x"],
    ["pi", "9", "3", "--x=1"],
    ["pi", "--m", "3"],
    ["pi", "9", "3", "--strict"],
    ["--strict", "pi", "9", "3"],
    ["--tables", "--strict", "pi", "1", "1"],
    ["--tables"],
    [*_NIELSEN, "--field=Q", "--f1", "zero", "--f2", "zero"],
    ["witnesses", "--claim"],
    # Missing, extra and unknown positionals.
    [],
    ["frobnicate"],
    ["pi", "9"],
    ["pi", "9", "3", "4"],
    ["witnesses"],
    ["compare", "--m-range", "1..2"],
    ["validate-data", "-"],
    # "--": what follows it is values, and only a positional absorbs it.
    ["pi", "--", "-1", "2"],
    ["pi", "--", "9", "3"],
    ["pi", "9", "--", "3"],
    ["pi", "9", "3", "--"],
    ["pi", "9", "3", "--", "4"],
    ["pi", "--", "--", "9"],
    ["pi", "--", "9", "--", "3"],
    ["pi", "--", "-h", "3"],
    ["pi", "9", "--", "-h"],
    ["pi", "9", "--", "3", "-h"],
    ["stems", "--", "5"],
    ["stems", "5", "--"],
    ["stems", "--", "--"],
    ["validate-data", "--"],
    ["validate-data", "--", "-h"],
    ["--tables", "--", "pi", "9", "3"],
    ["wecken", "--field", "R", "--nprime", "2", "--m", "--", "3"],
    ["wecken", "--field", "R", "--nprime", "2", "--m", "--"],
    ["wecken", "--field", "R", "--nprime", "2", "--m", "3", "--", "--machine"],
    ["verify-s", "--field", "R", "--seed", "--", "5"],
    # Help, and what comes before it.
    ["-h"],
    ["--help"],
    ["--h"],
    ["-hh"],
    ["pi", "-hh"],
    ["-h", "frob"],
    ["--strict", "-h", "pi", "1"],
    ["pi", "-h"],
    ["pi", "--he"],
    ["pi", "9", "3", "-h"],
    ["pi", "9", "3", "4", "-h"],
    ["pi", "9", "-h", "--", "3"],
    ["pi", "-h", "--f"],
    ["--foo", "pi", "-h"],
    ["validate-data", "-h", "--"],
    ["witnesses", "--claim", "d", "-h"],
    ["witnesses", "-h", "--claim", "d"],
]


def argvs() -> list[list[str]]:
    with open(EXPECTED, encoding="utf-8") as fh:
        oneshot = [record["argv"] for record in json.load(fh)["cli_oneshot"]]
    return CALLS + oneshot + EDGE_CASES


def _outcome(read, argv):
    """("exit", code, wrote stdout, wrote stderr) or ("args", {dest: (type, value)})."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = read(list(argv))
        except SystemExit as exc:
            return "exit", exc.code, bool(out.getvalue()), bool(err.getvalue())
    return "args", {dest: (type(value), value) for dest, value in vars(args).items()}


def differences() -> list[tuple]:
    """(argv, argparse's outcome, the reader's) for each argv where they differ."""
    found = []
    for argv in argvs():
        want = _outcome(lambda a: build_parser().parse_args(a), argv)
        got = _outcome(cli._read, argv)
        if got != want:
            found.append((argv, want, got))
    return found


def test_reader_reads_as_argparse():
    assert len(argvs()) > len(CALLS) + len(EDGE_CASES)
    assert differences() == []


def test_help_names_every_option():
    """`coincalc -h` and `coincalc CMD -h` exit 0, print on stdout only, and
    name each option of the table with its help text."""
    for command in [None, *cli.COMMANDS]:
        _func, about, positionals, options = cli.COMMANDS[command] if command else cli._TOP
        argv = [command, "-h"] if command else ["-h"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        assert (code, err.getvalue()) == (0, ""), argv
        assert text.startswith(f"usage: coincalc {command + ' ' if command else ''}[-h]"), argv
        assert about in text, argv
        for name, help_text in positionals:
            assert f"  {name} " in text and help_text in text, (argv, name)
        for flag, *_rest, help_text in options:
            assert f"  {flag}" in text and help_text in text, (argv, flag)
        if command is None:
            for name, spec in cli.COMMANDS.items():
                assert f"  {name} " in text and spec[1] in text, name


if __name__ == "__main__":
    found = differences()
    for argv, want, got in found:
        print(f"{argv}: argparse {want}, reader {got}")
    print(f"Python {sys.version.split()[0]}: {len(argvs())} argvs, {len(found)} differ")
    sys.exit(1 if found else 0)
