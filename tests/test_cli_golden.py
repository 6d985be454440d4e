"""Every subcommand's stdout and exit code, against a recorded file.

The calls cover each subcommand in text and --machine form, each with and
without --strict, and the bad-input calls, whose stdout must stay empty.
Each call runs cli.main in this process on the bundled table; the dump holds
the argv, the exit code (or cli._read's usage exit) and stdout, and must
equal the file byte for byte.  stderr is not recorded.

Regenerate the file, after a deliberate change of an answer, with
    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import os
import sys

from coincalc import cli
from coincalc.cli import main
from coincalc.exprs import ExprError
from coincalc.fgab import InputError
from coincalc.tables import OutOfTabulatedRange

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_all.txt")


def _nielsen(field, nprime, m, f1, f2, *flags):
    return ["nielsen", "--field", field, "--nprime", str(nprime), "--m", str(m),
            f"--f1={f1}", f"--f2={f2}", *flags]


def _with_machine(*argvs):
    return [a for argv in argvs for a in (argv, argv + ["--machine"])]


_BASE = [
    *(["pi", m, q] for m, q in (("9", "3"), ("5", "5"), ("6", "3"), ("7", "4"),
                                ("3", "2"), ("1", "1"), ("30", "3"), ("-1", "2"))),
    *(["stems", k] for k in ("0", "1", "3", "7", "19", "20", "-1")),
    *_with_machine(
        _nielsen("R", 2, 3, "hopfC", "zero"),
        _nielsen("R", 2, 3, "hopfC", "hopfC"),
        _nielsen("C", 1, 4, "eta_3", "zero"),
        _nielsen("C", 1, 4, "eta_3", "zero", "--assume-self-loose"),
        _nielsen("R", 5, 9, "whitehead(5)", "zero"),
        _nielsen("R", 4, 7, "zero", "zero"),
        _nielsen("C", 3, 9, "zero", "zero"),
        _nielsen("H", 1, 7, "24*hopfH", "zero"),
        _nielsen("R", 2, 12, "zero", "zero"),
    ),
    _nielsen("R", 2, 3, "whitehead(4)", "zero"),
    _nielsen("R", 2, 3, "bogus", "zero"),
    _nielsen("C", 0, 3, "zero", "zero"),
    _nielsen("R", 2, 1, "zero", "zero"),
    *_with_machine(
        ["compare", "--surface", "CP1", "--m-range", "2..9"],
        ["compare", "--surface", "RP2", "--m-range", "2..9"],
        ["compare", "--surface", "CP1", "--m-range", "5..3"],
    ),
    ["compare", "--surface", "CP1", "--m-range", "2..11"],
    ["compare", "--surface", "RP2", "--m-range", "2-9"],
    ["compare", "--surface", "XP3", "--m-range", "2..5"],
    *_with_machine(*(["witnesses", "--claim", c] for c in "abc")),
    ["witnesses", "--claim", "d"],
    *_with_machine(
        *(["selfloose", "--field", f, "--nprime", n, "--fiber"]
          for f, n in (("R", "3"), ("R", "2"), ("C", "1"), ("H", "1"), ("H", "23"))),
        ["selfloose", "--field", "R", "--nprime", "2", "--m", "2"],
        ["selfloose", "--field", "R", "--nprime", "4", "--m", "9"],
        ["selfloose", "--field", "C", "--nprime", "1", "--m", "5"],
        ["selfloose", "--field", "H", "--nprime", "2", "--m", "12"],
    ),
    ["selfloose", "--field", "R", "--nprime", "2"],
    ["selfloose", "--field", "C", "--nprime", "0", "--fiber"],
    ["verify-s", "--field", "H"],
    ["verify-s", "--field", "H", "--nprime", "3"],
    *(["verify-s", "--field", f, "--nprime", n, "--samples", s, "--seed", "7"]
      for f in "RC" for n in ("1", "3", "5") for s in ("1", "4")),
    ["verify-s", "--field", "R"],
    ["verify-s", "--field", "R", "--nprime", "2"],
    ["verify-s", "--field", "C", "--nprime", "-1"],
    ["verify-s", "--field", "C", "--samples", "0"],
    *_with_machine(
        *(["wecken", "--field", f, "--nprime", n, "--m", m]
          for f, n, m in (("R", "1", "2"), ("R", "3", "5"), ("R", "2", "2"),
                          ("R", "2", "5"), ("R", "16", "30"), ("R", "32", "62"),
                          ("R", "64", "126"), ("C", "1", "3"), ("C", "2", "7"),
                          ("H", "23", "7"), ("H", "2", "7"))),
    ),
    ["wecken", "--field", "R", "--nprime", "2", "--m", "-5"],
    ["wecken", "--field", "C", "--nprime", "0", "--m", "5"],
    ["validate-data"],
    ["frobnicate"],
]

CALLS = [pre + argv for argv in _BASE for pre in ([], ["--strict"])]


def _entry(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # cli._read's usage error
            code = f"usage {exc.code}"
    return f"$ coincalc {' '.join(argv)}\nexit {code}\n{out.getvalue()}"


def cli_dump() -> str:
    saved = os.environ.pop("COINCALC_TABLES", None)
    try:
        return "".join(_entry(argv) for argv in CALLS)
    finally:
        if saved is not None:
            os.environ["COINCALC_TABLES"] = saved


def test_cli_dump_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    assert golden.count("\n$ coincalc ") + 1 == len(CALLS)
    assert cli_dump() == golden


# How each call that exits 2 gets there (with and without --strict alike):
# a deliberate argument check (InputError), a malformed or misplaced
# expression (ExprError), or a group past the tables (OutOfTabulatedRange).
_EXIT_2 = {
    "pi 30 3": "range",
    "pi -1 2": "range",
    "stems 20": "range",
    "stems -1": "range",
    "nielsen --field C --nprime 3 --m 9 --f1=zero --f2=zero": "range",
    "nielsen --field C --nprime 3 --m 9 --f1=zero --f2=zero --machine": "range",
    "nielsen --field R --nprime 2 --m 12 --f1=zero --f2=zero": "range",
    "nielsen --field R --nprime 2 --m 12 --f1=zero --f2=zero --machine": "range",
    "nielsen --field R --nprime 2 --m 3 --f1=whitehead(4) --f2=zero": "expression",
    "nielsen --field R --nprime 2 --m 3 --f1=bogus --f2=zero": "expression",
    "nielsen --field C --nprime 0 --m 3 --f1=zero --f2=zero": "check",
    "nielsen --field R --nprime 2 --m 1 --f1=zero --f2=zero": "check",
    "compare --surface CP1 --m-range 2..11": "range",
    "compare --surface RP2 --m-range 2-9": "check",
    "compare --surface XP3 --m-range 2..5": "check",
    "selfloose --field R --nprime 2": "check",
    "selfloose --field C --nprime 0 --fiber": "check",
    "verify-s --field R --nprime 2": "check",
    "verify-s --field C --nprime -1": "check",
    "verify-s --field C --samples 0": "check",
    "wecken --field R --nprime 2 --m -5": "check",
    "wecken --field C --nprime 0 --m 5": "check",
}
_KINDS = {InputError: ("check", "input error: "), ExprError: ("expression", "input error: "),
          OutOfTabulatedRange: ("range", "out of tabulated range: ")}


def test_each_exit_2_is_a_check_an_expression_or_out_of_range(monkeypatch):
    raised = []

    def recording(real):
        def call(*args):
            try:
                return real(*args)
            except Exception as exc:
                raised.append(exc)
                raise
        return call

    for name in [n for n in vars(cli) if n.startswith("cmd_")] + ["_integer"]:
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    kinds = {}
    for argv in CALLS:
        raised.clear()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit:  # cli._read's usage error
                continue
        if code != 2:
            continue
        # The last exception raised is the one main reported.
        kind, prefix = _KINDS[type(raised[-1])]
        assert err.getvalue() == f"{prefix}{raised[-1]}\n", argv
        key = " ".join(a for a in argv if a != "--strict")
        assert kinds.setdefault(key, kind) == kind, argv
    assert kinds == _EXIT_2


if __name__ == "__main__":
    dump = cli_dump()
    if sys.argv[1:] == ["--write"]:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(dump)
    else:
        sys.stdout.write(dump)
