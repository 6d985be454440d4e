"""Command-line behaviors: outputs, exit codes, machine mode, strictness."""

import contextlib
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc import OutOfTabulatedRange, SphereTables, load_default_tables, space
from coincalc import cli, selfco
from coincalc.cli import main
from coincalc.exprs import ExprError, parse_class
from coincalc.fgab import FgAbError
from coincalc.tables import SchemaError, parse_tables


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_pi(self, capsys):
        code, out, _ = run(capsys, "pi", "9", "3")
        assert code == 0 and out.splitlines()[0] == "Z_3"

    def test_pi_closed_form(self, capsys):
        code, out, _ = run(capsys, "pi", "5", "5")
        assert code == 0 and out.splitlines()[0] == "Z"

    def test_stems(self, capsys):
        code, out, _ = run(capsys, "stems", "4")
        assert code == 0 and out.splitlines()[0] == "0"

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "pi", "11", "3")
        assert code == 2 and "not tabulated" in err

    def test_stems_out_of_range(self, capsys):
        code, _, _ = run(capsys, "stems", "25")
        assert code == 2


class TestNielsen:
    def test_rp2_hopf(self, capsys):
        answer = run(capsys, *_nielsen_rp2("hopfC"))
        code, out, _ = answer
        assert code == 0
        assert " N# = 2" in out and " N~ = 2" in out
        assert "  N = 0" in out and " NZ = 0" in out
        # Blanks after the last token end the expression.
        assert run(capsys, *_nielsen_rp2("hopfC  ")) == answer

    def test_machine_mode_is_deterministic(self, capsys):
        argv = [
            "nielsen", "--field", "C", "--nprime", "1", "--m", "9",
            "--f1", "alpha1_alpha1", "--f2", "zero", "--machine",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0 and out1 == out2
        doc = json.loads(out1)
        assert doc["values"]["N_sharp"] == 1
        assert doc["values"]["N_tilde"] == 0
        assert doc["values"]["MC"] == "infinite"

    def test_expression_language(self, capsys):
        # susp(hopfC, 3) lands in pi_6(S^5), the lift group of RP(5) at m = 6.
        code, out, _ = run(
            capsys, "nielsen", "--field", "R", "--nprime", "5", "--m", "6",
            "--f1", "susp(hopfC, 3)", "--f2", "zero", "--machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["N_sharp"] == 2
        assert doc["values"]["N_tilde"] == 2
        assert doc["values"]["N_plain"] == 0

    def test_whitehead_expression(self, capsys):
        code, out, _ = run(
            capsys, "nielsen", "--field", "R", "--nprime", "5", "--m", "9",
            "--f1", "whitehead(5)", "--f2", "zero", "--machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["N_sharp"] == 2 and doc["values"]["N_tilde"] == 0

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(
            capsys, "nielsen", "--field", "R", "--nprime", "2", "--m", "3",
            "--f1", "bogus", "--f2", "zero",
        )
        assert code == 2 and "unknown name" in err

    @pytest.mark.parametrize("f1,lift", [("2*3", "(6)"), ("2*-1", "(-2)"), ("-3", "(-3)")])
    def test_integer_atom(self, capsys, f1, lift):
        # ATOM := INT, so INT '*' INT is a multiple of iota where m = q.
        code, out, _ = run(capsys, *_nielsen_cp1(f1))
        assert code == 0
        assert out.startswith(f"target CP(1), m = 3, inputs: lift1 = {lift}, lift2 = (0) ")

    def test_generator_fault_is_not_an_unknown_name(self, monkeypatch):
        def broken(self, m, q, name):
            raise TypeError("broken generator")

        monkeypatch.setattr(SphereTables, "generator", broken)
        with pytest.raises(TypeError, match="broken generator"):
            parse_class(load_default_tables(), "eta_2", 3, 2)

    def test_out_of_range_name_propagates_unchanged(self):
        with pytest.raises(OutOfTabulatedRange) as info:
            parse_class(load_default_tables(), "eta_2", 100, 95)
        assert str(info.value) == "pi_100(S^95) is not tabulated"
        assert info.value.__context__ is None

    @pytest.mark.parametrize("drop, expr, m, q, expected", [
        ("", "whitehead 5", 3, 2, "expected '(' at position 10, got '5'"),
        ("", "susp(eta_2 eta_2)", 4, 3, "unexpected 'eta_2' at position 11 inside susp(...)"),
        ("susp 1\n", "susp(eta_2)", 4, 3, "cannot suspend 1 time(s): suspension of generator "
                                           "eta_2 of pi_3(S^2) is not annotated"),
        ("", "iota", 4, 3, "iota lives in pi_3(S^3); context is pi_4(S^3)"),
        ("", "iota", 3, 3, (1,)),
        ("", "hopfC hopfC", 3, 2, "unexpected trailing 'hopfC' at position 6"),
        # An expression is read whole before any name in it is looked up.
        ("", "foo eta_2", 3, 2, "unexpected trailing 'eta_2' at position 4"),
        ("", "susp(zero +", 3, 2, "unexpected end of expression at position 11"),
        ("", "susp(foo bar, 2)", 3, 2, "unexpected 'bar' at position 9 inside susp(...)"),
        ("", "susp(whitehead, 1)", 3, 2, "expected '(' at position 14, got ','"),
    ])
    def test_expression_case(self, table_text, drop, expr, m, q, expected):
        # `drop` is a row taken out after eta_2's gen line.
        row = "gen eta_2\n"
        assert table_text.count(row + drop) == 1
        tables = SphereTables(parse_tables(table_text.replace(row + drop, row)))
        if isinstance(expected, tuple):
            assert parse_class(tables, expr, m, q).value.coeffs == expected
        else:
            with pytest.raises(ExprError) as err:
                parse_class(tables, expr, m, q)
            assert str(err.value) == expected

    def test_equal_pair_is_zero(self, capsys):
        code, out, _ = run(
            capsys, "nielsen", "--field", "R", "--nprime", "2", "--m", "3",
            "--f1", "hopfC", "--f2", "hopfC", "--machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(doc["values"][k] == 0 for k in ("MCC", "N_sharp", "N_tilde", "N_plain", "N_z"))

    def test_strict_flags_unknown(self, capsys):
        # CP(2) at m = 6 is gated on the self-coincidence hypothesis.
        code, _, err = run(
            capsys, "--strict", "nielsen", "--field", "C", "--nprime", "2",
            "--m", "6", "--f1", "eta_5", "--f2", "zero",
        )
        assert code == 1 and "strict" in err
        code, _, _ = run(
            capsys, "nielsen", "--field", "C", "--nprime", "2",
            "--m", "6", "--f1", "eta_5", "--f2", "zero",
        )
        assert code == 0


class TestCompare:
    def test_cp1_against_golden(self, capsys):
        code, out, _ = run(capsys, "compare", "--surface", "CP1", "--m-range", "2..9")
        assert code == 0
        with open(os.path.join(os.path.dirname(__file__), "golden", "cp1_compare_2_9.txt"), encoding="utf-8") as fh:
            golden = fh.read()
        assert out == golden

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "compare", "--surface", "RP2", "--m-range", "9..3")
        assert code == 0 and out == ""

    def test_bad_surface(self, capsys):
        code, _, err = run(capsys, "compare", "--surface", "HP9", "--m-range", "2..3")
        assert code == 2

    def test_machine_rows(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--surface", "RP2", "--m-range", "3..4", "--machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["m"] for row in doc["rows"]] == [3, 4]
        assert not any("reasons" in row for row in doc["rows"])  # every relation decided

    def test_machine_rows_keep_the_reason_of_each_unknown(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--surface", "RP2", "--m-range", "2..2", "--machine"
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        unknown = [k for k, v in row["verdicts"].items() if v == "unknown"]
        assert unknown and sorted(row["reasons"]) == sorted(unknown)
        assert row["reasons"]["nsharp_eq_ntilde"].startswith(
            "self-coincidence looseness not established"
        )


def _nielsen_rp2(f1):
    return ["nielsen", "--field", "R", "--nprime", "2", "--m", "3", "--f1", f1, "--f2", "zero"]


def _nielsen_cp1(f1):
    return ["nielsen", "--field", "C", "--nprime", "1", "--m", "3", "--f1", f1, "--f2", "zero"]


def _without_eta(text):
    """The table with the stem generator eta renamed in its gen and prod
    lines: it still parses, but no stable class is called eta."""
    return re.sub(
        r"^(gen|prod) .*$", lambda line: re.sub(r"\beta\b", "eta1", line.group(0)),
        text, flags=re.M,
    )


def _drop_name(name):
    """The table without the named class `name` and the src line after it."""
    return lambda text: re.sub(rf"^name {name} .*\nsrc .*\n", "", text, flags=re.M)


class TestExitContract:
    """Bad input exits 2 with a one-line reason, never with a traceback."""

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (_nielsen_rp2("whitehead(4)"), "named classes are ['alpha1_3',"),
            (_nielsen_rp2("whitehead(x)"), "whitehead(q) needs an integer q, got 'x'"),
            (_nielsen_rp2("whitehead("), "unexpected end of expression at position 10\n"),
            # Only ASCII digits are integers: other Unicode digits are not read.
            (["nielsen", "--field", "R", "--nprime", "5", "--m", "9",
              "--f1", "whitehead(\u0665)", "--f2", "zero"],
             "cannot read expression at position 10: '\u0665)'"),
            (["nielsen", "--field", "R", "--nprime", "7", "--m", "11",
              "--f1", "susp(whitehead(5),\u0662)", "--f2", "zero"],
             "cannot read expression at position 18: '\u0662)'"),
            (_nielsen_rp2("\u0663*eta"), "cannot read expression at position 0: '\u0663*eta'"),
            (_nielsen_cp1("susp(x, 1, 2)"), "input error: susp(EXPR, k) needs a positive integer k, "
                                            "got ',' at position 9\n"),
            (_nielsen_cp1("2**eta_2"), "input error: unexpected '*' at position 2\n"),
            (_nielsen_rp2("susp(,1)"), "input error: unexpected ',' at position 5\n"),
            (_nielsen_rp2("susp(zero,)"), "input error: susp(EXPR, k) needs a positive "
                                          "integer k, got ')' at position 10\n"),
            (_nielsen_rp2("+eta_2"), "input error: unexpected '+' at position 0\n"),
            (_nielsen_rp2("(eta_2)"), "input error: unexpected '(' at position 0: "),
            (_nielsen_rp2("susp(zero,0)"), "input error: susp(EXPR, k) needs a positive "
                                           "integer k, got '0' at position 10\n"),
            (_nielsen_rp2("susp(susp(zero,1)"), "input error: unbalanced parentheses: '(' at "
                                                "position 4 is never closed\n"),
            (_nielsen_rp2("whitehead(02)"), "input error: whitehead(q) needs q without a "
                                            "leading zero, got '02' at position 10\n"),
            (_nielsen_rp2("2*3"), "bare integer at position 2 is a degree and needs m = q; "
                                  "context is pi_3(S^2)\n"),
            (["nielsen", "--field", "R", "--nprime", "2", "--m", "4",
              "--f1", "hopfC", "--f2", "zero"],
             "input error: hopfC lives in pi_3(S^2) but the context is pi_4(S^2) (position 0)\n"),
            (["nielsen", "--field", "R", "--nprime", "5", "--m", "8",
              "--f1", "whitehead(5)", "--f2", "zero"],
             "input error: whitehead(5) lives in pi_9(S^5) but the context is pi_8(S^5) "
             "(position 0)\n"),
            (["wecken", "--field", "R", "--nprime", "2", "--m", "-5"], "m must be >= 1"),
            (["verify-s", "--field", "C", "--samples", "0"], "--samples must be >= 1"),
            (["verify-s", "--field", "R", "--samples", "-3"], "--samples must be >= 1"),
            (["verify-s", "--field", "C", "--nprime", "-1", "--samples", "1"],
             "n' must be >= 1\n"),
            (["verify-s", "--field", "R", "--nprime", "0", "--samples", "1"],
             "n' must be >= 1\n"),
            (["verify-s", "--field", "R", "--nprime", "-2", "--samples", "1"],
             "n' must be >= 1\n"),
            (["verify-s", "--field", "H", "--nprime", "0"], "n' must be >= 1\n"),
            (["verify-s", "--field", "H", "--nprime", "-5"], "n' must be >= 1\n"),
            # The work bound: (n' + 1) * samples coordinates, n' = 3 by default.
            (["verify-s", "--field", "R", "--nprime", "100000001"],
             "input error: (n' + 1) * samples must be at most 100,000\n"),
            (["verify-s", "--field", "C", "--samples", "25001"],
             "input error: (n' + 1) * samples must be at most 100,000\n"),
            (["pi", "3", "-1"], "out of tabulated range: pi_3(S^-1) is not tabulated\n"),
        ],
        ids=["whitehead-unregistered", "whitehead-not-int", "whitehead-open",
             "whitehead-arabic-indic-digit", "susp-arabic-indic-count", "arabic-indic-multiple",
             "susp-two-counts", "multiple-of-a-star", "susp-empty-argument", "susp-missing-count",
             "leading-plus", "parenthesis",
             "susp-zero-count", "susp-unclosed", "whitehead-leading-zero", "integer-off-the-diagonal",
             "named-class-off-context", "whitehead-off-context",
             "wecken-negative-m", "verify-s-no-samples", "verify-s-negative-samples",
             "verify-s-negative-nprime", "verify-s-zero-nprime", "verify-s-negative-even-nprime",
             "verify-s-H-zero-nprime", "verify-s-H-negative-nprime", "verify-s-huge-nprime",
             "verify-s-default-nprime-too-many-samples", "pi-negative-q"],
    )
    def test_bad_input_exits_2(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert reason in err and "Traceback" not in err

    @pytest.mark.parametrize("depth", [100, 240, 10_000])
    def test_nesting_answers_alike_at_any_stack_depth(self, capsys, depth):
        # Reading and evaluating call nothing once per susp( level, so the
        # caller's stack depth cannot change an answer.  Out of range where
        # the innermost class lands below pi_1; iota of pi_1(S^1), suspended
        # into pi_m(S^m) by the closed forms, where it lands on the circle.
        def down(frames, argv):
            return run(capsys, *argv) if frames == 0 else down(frames - 1, argv)

        nested = ("susp(" * depth + "{}" + ")" * depth).format
        n = str(depth + 1)
        argvs = (_nielsen_rp2(nested("zero")), ["nielsen", "--field", "R", "--nprime", n,
                                                "--m", n, "--f1", nested("iota"), "--f2", "zero"])
        top = [run(capsys, *argv) for argv in argvs]
        assert [down(800, argv) for argv in argvs] == top
        assert top[0] == (2, "", f"out of tabulated range: pi_{3 - depth}(S^{2 - depth}) "
                                 "requires m >= 1\n")
        assert top[1][0] == 0 and f"lift1 = (1), lift2 = (0) in pi_{n}(S^{n})" in top[1][1]

    @pytest.mark.parametrize("error", [FgAbError, ValueError])
    def test_an_unchecked_error_propagates(self, monkeypatch, error):
        # Exit 2 is for the deliberate checks (InputError) and for ranges past
        # the tables; any other error is a fault of the program, not an input.
        def cmd_pi(args):
            raise error("not a check")

        monkeypatch.setattr(cli, "cmd_pi", cmd_pi)
        with pytest.raises(error, match="^not a check$"):
            main(["pi", "3", "2"])

    def test_nesting_within_the_recursion_limit_keeps_its_answer(self):
        # A fresh process answers as in process: the innermost class is read
        # in pi_{3-240}(S^{2-240}), which is out of range.
        argv = _nielsen_rp2("susp(" * 240 + "zero" + ")" * 240)
        assert _process(["-m", "coincalc.cli", *argv]) == (
            2, "", "out of tabulated range: pi_-237(S^-238) requires m >= 1\n")

    @pytest.mark.parametrize("m", ["1", "0", "-3"])
    @pytest.mark.parametrize("field, nprime", [("R", "1"), ("C", "2"), ("H", "1")])
    def test_nielsen_needs_m_at_least_2(self, capsys, field, nprime, m):
        # One reason on every target: the circle, a lift target and a sphere.
        code, out, err = run(capsys, "nielsen", "--field", field, "--nprime", nprime,
                             "--m", m, "--f1", "zero", "--f2", "zero")
        assert (code, out) == (2, "")
        assert err == "input error: projective reports need a simply connected domain, m >= 2\n"

    @pytest.mark.parametrize("expr, position", [
        ("{}*eta_2", 0), ("susp(zero, {})", 11), ("eta_2 + -{}*eta_2", 8)])
    def test_integer_past_the_digit_limit_names_its_position(self, capsys, expr, position):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, *_nielsen_rp2(expr.format("9" * 5000)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: integer at position {position} is too long: "
                              "Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("expr, what, position", [
        ("9999*{0}", "term", 0), ("{0} + {0}", "sum", 4301), ("1 + 9999*{0}", "term", 4),
        ("susp(9999*{0})", "term", 5)])
    def test_value_past_the_digit_limit_names_its_position(self, capsys, expr, what, position):
        # Each integer fits the limit; the term or the sum at `position` does
        # not, so no report could print it.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, *_nielsen_cp1(expr.format("9" * 4300)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {what} at position {position} is too large: "
                              "Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, reason", [
        (["pi", "9_0", "3"], "m must be an integer -?[0-9]+, got '9_0'"),
        (["pi", "\u0669", "\u0663"], "m must be an integer -?[0-9]+, got '\u0669'"),
        (["pi", "9", " 3"], "q must be an integer -?[0-9]+, got ' 3'"),
        (["stems", "\uff14"], "k must be an integer -?[0-9]+, got '\uff14'"),
        (["stems", "9" * 4301], "k is too long: Exceeds the limit (4300 digits)"),
        (["wecken", "--field", "R", "--nprime", "+2", "--m", "5"],
         "nprime must be an integer -?[0-9]+, got '+2'"),
        (["verify-s", "--field", "C", "--samples", "1", "--seed", "x"],
         "seed must be an integer -?[0-9]+, got 'x'"),
        (["compare", "--surface", "CP1", "--m-range", "+2..3"],
         "bad m-range '+2..3'; expected A..B"),
    ], ids=["underscore", "arabic-indic", "space", "fullwidth", "too-long", "plus", "word",
            "m-range-plus"])
    def test_integer_argument_grammar(self, capsys, argv, reason):
        # Integer arguments are ASCII -?[0-9]+, as in the table and in
        # expressions; anything else is one line of bad input.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize("machine", [(), ("--machine",)], ids=["text", "machine"])
    @pytest.mark.parametrize("field", ["C", "H"])
    def test_nprime_whose_dimension_passes_the_digit_limit(self, capsys, field, machine):
        # n' itself is within the digit limit, but q = d n' + d - 1 of S^q is
        # not over C and H: one line of bad input that names --nprime.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "nielsen", "--field", field, "--nprime", "9" * 4300,
                                 "--m", "5", "--f1", "zero", "--f2", "zero", *machine)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("input error: --nprime is too large: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit,argv,reason",
        [
            (_drop_name("whitehead5"), ["witnesses", "--claim", "a"],
             "unknown named class 'whitehead5'"),
            (_drop_name("hopfC"), ["witnesses", "--claim", "b", "--machine"],
             "unknown named class 'hopfC'"),
        ],
        ids=["witnesses-no-whitehead5", "witnesses-no-hopfC"],
    )
    def test_unregistered_class_exits_3(self, capsys, tmp_path, table_text, edit, argv, reason):
        # A class the command needs by name is missing from the table: a
        # data error, one line on stderr, never a LookupError traceback.
        path = tmp_path / "gap.txt"
        edited = edit(table_text)
        assert edited != table_text
        path.write_text(edited)
        code, out, err = run(capsys, "--tables", str(path), *argv)
        assert (code, out) == (3, "")
        assert err.startswith("data error: ") and reason in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--tables="], ["--tables", ""]], ids=["joined", "apart"])
    def test_empty_tables_flag_is_an_unreadable_path(self, capsys, monkeypatch, argv):
        # An explicit --tables is read as given, never replaced by the
        # environment's table or the bundled one.
        monkeypatch.delenv("COINCALC_TABLES", raising=False)
        code, out, err = run(capsys, *argv, "pi", "9", "3")
        assert (code, out) == (3, "")
        assert err.startswith("cannot read tables: ") and err.count("\n") == 1

    def test_empty_tables_variable_means_the_bundled_table(self, capsys, monkeypatch):
        monkeypatch.delenv("COINCALC_TABLES", raising=False)
        bundled = run(capsys, "pi", "9", "3")
        monkeypatch.setenv("COINCALC_TABLES", "")
        assert bundled[0] == 0 and run(capsys, "pi", "9", "3") == bundled

    def test_broken_kernel_chain_exits_3(self, capsys, tmp_path, table_text):
        # Both rows pass validate-data, yet together Ker Gamma of pi_5(S^3)
        # no longer lies in Ker(h_C . E^inf): a fault of the table, not of
        # the arguments.
        edited = table_text
        for row, bad in (("group 5 3 0 2\n", "group 5 3 0 4\n"),
                         ("prod eta eta2 -> 3 12\n", "prod eta eta2 -> 3 1\n")):
            assert edited.count(row) == 1
            edited = edited.replace(row, bad)
        path = tmp_path / "broken.txt"
        path.write_text(edited)
        code, out, _err = run(capsys, "--tables", str(path), "validate-data")
        assert (code, out) == (0, "dataset consistent: 0 violations\n")
        argv = ["--tables", str(path), "compare", "--surface", "CP1", "--m-range", "2..6"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        message = "kernel chain broken for K=C: Ker Gamma is not contained in Ker(h_K . E^inf)"
        assert err == f"data error: pi_5(S^3): {message}\n"
        # The fault is raised again on the next ask, never kept as an answer.
        tables = SphereTables(parse_tables(edited))
        for _ in range(2):
            with pytest.raises(SchemaError, match=re.escape(message)) as caught:
                tables.kernel_chain(5, 3, "C")
            assert caught.value.path == "pi_5(S^3)"

    def test_missing_hopf_class_makes_compare_unknown(self, capsys, tmp_path, table_text):
        # Without eta, h_C . E^inf cannot be formed: the CP1 scan relations
        # that read Ker(h_C . E^inf) turn unknown instead of crashing, while
        # N# == N~, which reads Ker Gamma alone, stays decided.
        path = tmp_path / "gap.txt"
        path.write_text(_without_eta(table_text))
        argv = ["--tables", str(path), "compare", "--surface", "CP1", "--m-range", "2..4"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "m=2: N# == N~ == N == NZ != 0",
            "m=3: N# == N~ ?? N ?? NZ == 0",
            "m=4: N# == N~ ?? N ?? NZ == 0",
        ]

    def test_missing_hopf_class_makes_report_unknown(self, capsys, tmp_path, table_text):
        # The pointwise report gives the same answer as the scan above: N,
        # which needs h_C, is unknown with the missing class as its reason,
        # and MCC, N#, N~ and NZ stay decided; exit 0, or 1 under --strict.
        path = tmp_path / "gap.txt"
        path.write_text(_without_eta(table_text))
        argv = ["nielsen", "--field", "C", "--nprime", "1", "--m", "4",
                "--f1", "eta_3", "--f2", "zero"]
        code, out, err = run(capsys, "--tables", str(path), *argv)
        assert (code, err) == (0, "")
        values = dict(re.findall(r"^\s+(\S+) = (.*)$", out, re.M))
        assert {k: values[k] for k in ("MCC", "N#", "N~", "NZ")} == {
            "MCC": "1", "N#": "1", "N~": "1", "NZ": "0"}
        assert values["N"].startswith("unknown (unknown stable class 'eta'; available: ")
        code, _out, err = run(capsys, "--tables", str(path), "--strict", *argv)
        assert (code, err) == (1, "strict mode: Unknown verdicts present\n")


class TestWitnessesAndVerdicts:
    @pytest.mark.parametrize("claim", ["a", "b", "c"])
    def test_witness_claims(self, capsys, claim):
        code, out, _ = run(capsys, "witnesses", "--claim", claim, "--machine")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) >= 2

    def test_selfloose_fiber(self, capsys):
        code, out, _ = run(
            capsys, "selfloose", "--field", "H", "--nprime", "5", "--fiber"
        )
        assert code == 0 and "not loose" in out

    def test_selfloose_needs_m(self, capsys):
        code, _, err = run(capsys, "selfloose", "--field", "H", "--nprime", "5")
        assert code == 2

    def test_verify_s_quaternion(self, capsys):
        code, out, _ = run(capsys, "verify-s", "--field", "H")
        assert code == 0 and "residual = 0" in out

    def test_verify_s_quaternion_failure_is_reported(self, capsys, monkeypatch):
        # A scalar other than i: s(x) = i x, so s(x) - j x is not zero.
        x, _ = selfco.quaternion_counterexample()
        wrong = selfco.scalar(x.field, 0, 0, 1, 0)
        monkeypatch.setattr(cli, "quaternion_counterexample", lambda: (x, wrong))
        code, out, err = run(capsys, "verify-s", "--field", "H")
        assert (code, out, err) == (1, "", "FAIL: s(x) - lambda*x is not zero\n")

    def test_verify_s_complex(self, capsys):
        code, out, _ = run(capsys, "verify-s", "--field", "C", "--samples", "20")
        assert code == 0 and "all residuals positive" in out
        code, out, err = run(capsys, "verify-s", "--field", "C")
        assert (code, err) == (0, "")
        assert out.startswith("25 exact rational samples over C, n' = 3: all residuals positive")

    def test_verify_s_complex_failure_is_reported(self, capsys, monkeypatch):
        # A zero residual means s(x) lies on the line K.x for some sample.
        monkeypatch.setattr(cli, "residual_not_parallel", lambda x: 0)
        code, out, err = run(capsys, "verify-s", "--field", "C")
        assert (code, out, err) == (1, "", "FAIL: found a vector with s(x) on the line K.x\n")

    def test_wecken_kervaire(self, capsys):
        code, out, _ = run(
            capsys, "wecken", "--field", "R", "--nprime", "16", "--m", "30", "--machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "fails_with_witness"
        assert doc["witness"]["values"]["MCC"] == 1


class TestDataHandling:
    def test_validate_data_clean(self, capsys):
        code, out, _ = run(capsys, "validate-data")
        assert code == 0 and "0 violations" in out

    def test_custom_tables_flag(self, capsys, tmp_path, table_text):
        path = tmp_path / "tables.txt"
        path.write_text(table_text)
        code, out, _ = run(capsys, "--tables", str(path), "pi", "9", "3")
        assert code == 0 and out.splitlines()[0] == "Z_3"

    def test_tables_with_byte_order_mark_and_crlf(self, capsys, tmp_path, table_text):
        path = tmp_path / "tables.txt"
        path.write_bytes(b"\xef\xbb\xbf" + table_text.replace("\n", "\r\n").encode("utf-8"))
        code, out, err = run(capsys, "--tables", str(path), "validate-data")
        assert (code, out, err) == (0, "dataset consistent: 0 violations\n", "")
        assert run(capsys, "--tables", str(path), "pi", "9", "3") == run(capsys, "pi", "9", "3")

    def test_invalid_tables_exit_3(self, capsys, tmp_path, table_text):
        path = tmp_path / "broken.txt"
        path.write_text(table_text.replace("stem 8 0 2,2", "stem 8 0 4,2"))
        code, _, err = run(capsys, "--tables", str(path), "pi", "9", "3")
        assert code == 3 and "data error" in err

    def test_unreadable_tables_exit_3(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run(capsys, "--tables", str(missing), "pi", "3", "3")
        assert (code, out) == (3, "")
        assert err.startswith("cannot read tables: ") and str(missing) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_non_utf8_tables_exit_3(self, capsys, tmp_path, table_text, monkeypatch, via):
        # Undecodable bytes are an invalid data file, positioned at the byte.
        at = table_text.index("stem 8 0 2,2")
        broken = table_text[:at].encode() + b"stem 8 \xff" + table_text[at + 7:].encode()
        line = table_text.count("\n", 0, at) + 1
        cases = ((b"\xff\xfe bad", "line 1, column 1"), (broken, f"line {line}, column 8"),
                 # A column counts characters after the byte order mark, and
                 # a carriage return ends a line as a newline does.
                 (b"\xef\xbb\xbfab\xff\n", "line 1, column 3"),
                 (b"# c\r# d\n\xff\n", "line 3, column 1"))
        for data, where in cases:
            path = tmp_path / "bad.txt"
            path.write_bytes(data)
            argv = ["pi", "3", "3"]
            if via == "flag":
                argv = ["--tables", str(path)] + argv
            else:
                monkeypatch.setenv("COINCALC_TABLES", str(path))
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith(f"data error: {where}: not UTF-8 text") and err.count("\n") == 1

    def test_integer_past_the_digit_limit_exits_3(self, capsys, tmp_path):
        # int() refuses more digits than the interpreter's limit: a data
        # error at the field, whatever the limit is set to outside the test.
        long = "9" * 5000
        cases = [
            (f"stem 0 1\ngen iota\nstem 1 0 {long}\n", 3, 10),  # torsion order
            (f"stem 0 1\ngen iota\nstem 1 0 2,-{long}\n", 3, 10),  # in a list
            # Two on one line: a group's torsion is read before its free rank.
            (f"stem 0 1\ngen iota\nstem 1 {long} 2,{long}\n", 3, 5009),
            (f"group 3 2 {long} {long}\n", 1, 5012),
            (f"stem {long} 1\n", 1, 6),  # stem degree
            (f"group 3 2 {long}\n", 1, 11),  # free rank
            (f"group 3 2 1\ngen {long}\nstab -{long} 1\n", 3, 6),  # after a long name
            (f"name {long} 3 2 {long}\n", 1, len(long) + 11),  # the coefficients
            (f"prod {long} {long} -> 1 {long}\n", 1, 2 * len(long) + 13),
        ]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for text, line, column in cases:
                path = tmp_path / "long.txt"
                path.write_text(text, encoding="utf-8")
                code, out, err = run(capsys, "--tables", str(path), "validate-data")
                assert (code, out) == (3, "")
                assert err.startswith(f"data error: line {line}, column {column}: "
                                      "integer too long: Exceeds the limit (4300 digits)")
                assert err.count("\n") == 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_non_ascii_free_rank_exits_3(self, capsys, tmp_path):
        # str.isdigit() accepts a superscript two, which int() rejects.
        path = tmp_path / "bad.txt"
        path.write_text("group 3 2 \u00b2\n", encoding="utf-8")
        code, out, err = run(capsys, "--tables", str(path), "pi", "3", "2")
        assert (code, out) == (3, "")
        assert err == "data error: line 1, column 11: bad free rank '\u00b2'\n"

    @pytest.mark.parametrize(
        "argv", [["validate-data"], ["compare", "--surface", "CP1", "--m-range", "2..9"]]
    )
    def test_stem_gap_exits_3(self, capsys, tmp_path, table_text, argv):
        # Queries assume every stem up to the highest: a gap is a data error.
        path = tmp_path / "gap.txt"
        path.write_text(re.sub(r"^stem 4 0\nsrc .*\n", "", table_text, flags=re.M))
        code, out, err = run(capsys, "--tables", str(path), *argv)
        assert (code, out) == (3, "")
        assert err.startswith("data error: pi_4^S: missing below pi_19^S")

    def test_validator_flags_bad_dataset(self, capsys, tmp_path, table_text):
        nu_p = "gen nu_p\nsusp 0,1\nstab 3 2\ngamma 2 1 1\nantip 1\n"
        cases = [
            ("name whitehead3 5 3 0", "name whitehead3 5 3 1",
             "name whitehead3: Whitehead square must vanish for q=3"),
            (nu_p, nu_p[:-2] + "2\n",
             "pi_6(S^3) gen nu_p: antipodal action must be the identity for odd q"),
        ]
        path = tmp_path / "bad.txt"
        for row, bad, violation in cases:
            assert table_text.count(row) == 1
            path.write_text(table_text.replace(row, bad))
            code, out, err = run(capsys, "--tables", str(path), "validate-data")
            assert (code, out, err) == (3, f"1 violation(s):\n  - {violation}\n", "")

    @pytest.mark.parametrize("name", ["whiteheadX", "whitehead", "whitehead\u0663", "whitehead+3"])
    def test_whitehead_name_without_decimal_q_exits_3(self, capsys, tmp_path, table_text, name):
        # Only whitehead<q>, q in ASCII decimal, is a Whitehead square; any
        # other such name is one violation, never an input error.
        path = tmp_path / "bad.txt"
        path.write_text(table_text + f"name {name} 6 3 1\n", encoding="utf-8")
        code, out, err = run(capsys, "--tables", str(path), "validate-data")
        assert (code, err) == (3, "")
        assert out.splitlines() == [
            "1 violation(s):",
            f"  - name {name}: not whitehead<q> with q in decimal digits and no leading zero",
        ]

    def test_validator_lists_missing_hopf_class(self, capsys, tmp_path, table_text):
        # Without eta the h_C products cannot be checked: one violation, the
        # report still printed, nothing on stderr.
        path = tmp_path / "gap.txt"
        path.write_text(_without_eta(table_text))
        code, out, err = run(capsys, "--tables", str(path), "validate-data")
        assert (code, err) == (3, "")
        lines = out.splitlines()
        assert lines[0] == "1 violation(s):" and len(lines) == 2
        assert lines[1].startswith("  - h_C: unknown stable class 'eta'")

    @pytest.mark.parametrize("text", ["group 3 2 1\ngen eta_2\n",
                                      "stem 0 0\ngroup 3 2 1\ngen eta_2\n"],
                             ids=["no-stem-0", "trivial-stem-0"])
    def test_validator_lists_missing_class_two(self, capsys, tmp_path, text):
        # Without a rank-1 pi_0^S there is no class two: h_R is one violation
        # of the report, a data fault, never an input error.
        path = tmp_path / "gap.txt"
        path.write_text(text)
        code, out, err = run(capsys, "--tables", str(path), "validate-data")
        assert (code, err) == (3, "")
        assert out.splitlines()[1] == "  - h_R: unknown stable class 'two'; available: none"

    def test_table_gap_makes_compare_unknown(self, capsys, tmp_path, table_text):
        # A missing annotation is a gap in the data, not bad input: the scan
        # relations that read Ker Gamma turn unknown, N == 0 still reads
        # Ker(h . E^inf), and the pointwise report still decides N~.
        path = tmp_path / "gap.txt"
        path.write_text(table_text.replace("gamma 2 3 14\n", ""))
        argv = ["--tables", str(path), "compare", "--surface", "RP2", "--m-range", "6..6"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "m=6: N# ?? N~ ?? N == NZ == 0\n", "")
        code, _, err = run(capsys, "--strict", *argv)
        assert code == 1 and "strict" in err
        code, out, _ = run(
            capsys, "--tables", str(path), "nielsen", "--field", "R", "--nprime", "2",
            "--m", "6", "--f1", "eta_2_nu_p", "--f2", "zero", "--machine",
        )
        assert code == 0 and json.loads(out)["values"]["N_tilde"] == 2
        # A Gamma component whose stem is not tabulated is a gap too; here
        # the E^inf stem is missing, so it blocks both kernels.
        path.write_text("group 3 2 1\ngen eta_2\n")
        argv[-1] = "3..3"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "m=3: N# ?? N~ ?? N ?? NZ == 0\n", "")
        code, _, err = run(capsys, "--strict", *argv)
        assert code == 1 and "strict" in err

    def test_product_past_the_last_stem_is_unknown(self, capsys, tmp_path):
        # h_C . E^inf of eta_3 lands in pi_2^S, past the table's last stem: a
        # gap in the data that blocks only N (exit 0), not an out-of-range
        # query (exit 2).
        path = tmp_path / "short.txt"
        path.write_text(
            "stem 0 1\ngen iota\nstem 1 0 2\ngen eta\ngroup 4 3 0 2\ngen eta_3\nstab 1 1\n"
        )
        code, out, err = run(
            capsys, "--tables", str(path), "nielsen", "--field", "C", "--nprime", "1",
            "--m", "4", "--f1", "eta_3", "--f2", "zero",
        )
        assert (code, err) == (0, "")
        assert "   N~ = 1\n" in out
        assert "    N = unknown (product degree 2 beyond tabulated stems (max 1))\n" in out
        argv = ["--tables", str(path), "compare", "--surface", "CP1", "--m-range", "4..4"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "m=4: N# == N~ ?? N ?? NZ == 0\n", "")

    def test_empty_registry_lists_none(self, capsys, tmp_path, table_text):
        path = tmp_path / "nonames.txt"
        path.write_text(_drop_name(r"\S+")(table_text))
        code, out, err = run(capsys, "--tables", str(path), "witnesses", "--claim", "a")
        assert (code, out) == (3, "")
        assert err == "data error: unknown named class 'whitehead5'; available: none\n"

    def test_env_variable(self, capsys, tmp_path, table_text, monkeypatch):
        path = tmp_path / "tables.txt"
        path.write_text(table_text)
        monkeypatch.setenv("COINCALC_TABLES", str(path))
        code, out, _ = run(capsys, "pi", "6", "3")
        assert code == 0 and out.splitlines()[0] == "Z_12"


# ------------------------------------------------ the contract as a property

_INTS = st.one_of(st.integers(-3, 25), st.sampled_from([0, -1, 10**6]))
_POS_INT = _INTS.map(lambda v: [str(v)])
_FIELDS = st.sampled_from(["R", "C", "H"])
_EXPRS = st.one_of(
    st.sampled_from(["zero", "hopfC", "hopfR", "eta_3", "2*hopfC", "susp(hopfC, 3)",
                     "whitehead(5)", "alpha1_3", "iota", "1", "-2*iota + 3"]),
    st.sampled_from(["", "whitehead(", "whitehead(x)", "susp(", "2*", "+", "((", "bogus",
                     "susp(hopfC, 0)", "susp(hopfC, 99)", "1e5"]),
    st.lists(st.sampled_from(["hopfC", "eta_3", "zero", "iota", "2", "-1", "(", ")", "*",
                              "+", ",", "susp", "whitehead"]), max_size=6).map("".join),
)
_M_RANGES = st.one_of(
    # The bundled table decides CP1 and RP2 for m <= 9: most ranges start
    # there, so that some print rows.
    st.builds(lambda lo, span: f"{lo}..{lo + span}",
              st.one_of(st.integers(1, 9), st.integers(-3, 22), st.sampled_from([0, 10**6])),
              st.one_of(st.integers(0, 8), st.integers(-5, 25))),
    st.sampled_from(["0..0", "5", "a..b", "1..2..3", "..", "", "3..", "..4"]),
)


def _flags(*names):
    """Each named flag present or not."""
    return st.tuples(*(st.sampled_from([[], [n]]) for n in names)).map(lambda ls: sum(ls, []))


def _opt(name, values):
    """An optional `name value` pair."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _seq(*parts):
    return st.tuples(*parts).map(lambda ls: sum(ls, []))


def _req(name, values):
    return values.map(lambda v: [name, str(v)])


_SUBCOMMANDS = st.one_of(
    _seq(st.just(["pi"]), _POS_INT, _POS_INT),
    _seq(st.just(["stems"]), _POS_INT),
    _seq(st.just(["nielsen"]), _req("--field", _FIELDS), _req("--nprime", _INTS),
         _req("--m", _INTS), _req("--f1", _EXPRS), _req("--f2", _EXPRS),
         _flags("--assume-self-loose", "--machine")),
    _seq(st.just(["compare"]), _req("--surface", st.sampled_from(["CP1", "RP2", "HP9"])),
         _req("--m-range", _M_RANGES), _flags("--machine")),
    _seq(st.just(["witnesses"]), _req("--claim", st.sampled_from(["a", "b", "c", "d"])),
         _flags("--machine")),
    _seq(st.just(["selfloose"]), _req("--field", _FIELDS), _req("--nprime", _INTS),
         _opt("--m", _INTS), _flags("--fiber", "--machine")),
    # The rotation check samples vectors in K^(n'+1): its work grows with n'.
    _seq(st.just(["verify-s"]), _req("--field", _FIELDS), _opt("--nprime", st.integers(-3, 25)),
         _opt("--samples", st.integers(-2, 3)), _opt("--seed", _INTS)),
    _seq(st.just(["wecken"]), _req("--field", _FIELDS), _req("--nprime", _INTS),
         _req("--m", _INTS), _flags("--machine")),
    st.just(["validate-data"]),
)


def _call(argv):
    """(exit code, stdout, stderr) of cli.main run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # cli._read's usage error, and only that
            assert exc.code == 2, argv
            code = "usage"
    return code, out.getvalue(), err.getvalue()


# The seven values of a report, read the way perfbench/workloads.py reads them.
_VALUE_LINE = re.compile(r"^\s+(R|MC|MCC|N#|N~|N|NZ) = (\S+)", re.M)


def _short(token):
    if isinstance(token, dict):  # {"unknown": reason} in --machine output
        return "?"
    return {"infinite": "inf", "unknown": "?"}.get(str(token), str(token))


_TABLES = load_default_tables()


@st.composite
def _nielsen_pairs(draw):
    """nielsen argv whose two classes are sums of generators of the lift group."""
    field, nprime, m = draw(_FIELDS), draw(st.integers(1, 6)), draw(st.integers(2, 14))
    q = space(field, nprime).q
    try:
        names = _TABLES.lookup(m, q).gen_names
    except OutOfTabulatedRange:
        names = ()

    def cls():
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names)))
        return " + ".join(f"{c}*{g}" for c, g in zip(coeffs, names)) or "zero"

    # `--f1=EXPR`, since a separate "-2*g" reads as an option, not as a value.
    return (["nielsen", "--field", field, "--nprime", str(nprime), "--m", str(m),
             f"--f1={cls()}", f"--f2={cls()}"] + draw(_flags("--assume-self-loose")))


class TestContractProperty:
    """Exit codes 0/1/2/3 only; nothing but cli._read's usage exit escapes
    main; 1 only under --strict; --machine prints JSON."""

    @settings(max_examples=200, deadline=None)
    @given(strict=st.booleans(), sub=_SUBCOMMANDS)
    def test_exit_contract(self, strict, sub):
        argv = (["--strict"] if strict else []) + sub
        code, out, err = _call(argv)
        assert code in (0, 1, 2, 3, "usage"), argv
        assert "Traceback" not in err
        assert code != 1 or strict, argv
        if code == 0 and "--machine" in argv:
            json.loads(out)

    @settings(max_examples=50, deadline=None)
    @given(argv=_nielsen_pairs())
    def test_machine_and_text_agree(self, argv):
        text_code, text, _ = _call(argv)
        code, doc, _ = _call(argv + ["--machine"])
        assert code == text_code
        if code == 0:
            text_values = [_short(v) for _name, v in _VALUE_LINE.findall(text)]
            assert text_values == [_short(v) for v in json.loads(doc)["values"].values()]
            assert len(text_values) == 7


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedStdout:
    """`coincalc ... | head -1`: a closed stdout is no error of the call."""

    @pytest.mark.parametrize("argv", [["verify-s", "--field", "H"],
                                      ["compare", "--surface", "CP1", "--m-range", "2..9",
                                       "--machine"]],
                             ids=["verify-s-H", "compare-machine"])
    def test_exit_code_is_the_commands(self, tmp_path, argv):
        expected, _out, _err = _call(argv)
        target = tmp_path / "stdout"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        try:
            err = io.StringIO()
            with contextlib.redirect_stdout(_ClosedPipe(fd)), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, err.getvalue()) == (expected, "")
            # The descriptor now leads to the null device, not to the old file.
            os.write(fd, b"late output")
            assert target.read_bytes() == b""
        finally:
            os.close(fd)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _process(args, stdout=subprocess.PIPE):
    """(exit code, stdout, stderr) of `python ARGS` with coincalc importable."""
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=_SRC),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# What the installed `coincalc` script runs: the [project.scripts] entry.
_SCRIPT = "import sys; from coincalc.cli import run; sys.argv[0] = 'coincalc'; sys.exit(run())"


class TestProcessEntry:
    """`python -m coincalc.cli` and the installed script go through cli.run:
    the same output and exit code as cli.main, with the heap frozen on exit."""

    @pytest.fixture
    def bad_table(self, tmp_path, table_text):
        path = tmp_path / "bad.txt"
        path.write_text(table_text.replace("name whitehead3 5 3 0", "name whitehead3 5 3 1"))
        return str(path)

    @pytest.mark.parametrize("argv, expected", [
        (["pi", "9", "3"], 0),
        (["--strict", "nielsen", "--field", "C", "--nprime", "2", "--m", "6",
          "--f1", "eta_5", "--f2", "zero"], 1),
        (["pi", "100", "3"], 2),
        (["--tables", None, "validate-data"], 3),
    ], ids=["ok", "strict", "out-of-range", "invalid-data"])
    def test_same_answer_as_main(self, bad_table, argv, expected):
        argv = [bad_table if a is None else a for a in argv]
        answer = _call(argv)
        assert answer[0] == expected
        assert _process(["-m", "coincalc.cli", *argv]) == answer

    def test_script_entry(self):
        assert _process(["-c", _SCRIPT, "pi", "9", "3"]) == _call(["pi", "9", "3"])

    def test_usage_error_exits_2(self):
        code, out, err = _call(["pi", "9"])
        assert (code, out) == ("usage", "")
        assert err.startswith("usage: coincalc pi")
        assert _process(["-m", "coincalc.cli", "pi", "9"]) == (2, out, err)
        code, out, err = _call([])
        assert (code, out) == ("usage", "")
        assert err.startswith("usage: coincalc [-h]")
        assert _process(["-c", _SCRIPT]) == (2, out, err)

    def test_closed_stdout_keeps_the_exit_code(self, bad_table):
        # validate-data prints its violations on stdout and exits 3.
        read, write = os.pipe()
        os.close(read)
        try:
            code, _out, err = _process(["-m", "coincalc.cli", "--tables", bad_table,
                                        "validate-data"], stdout=write)
        finally:
            os.close(write)
        assert (code, err) == (3, "")

    def test_atexit_hooks_run_on_a_frozen_heap(self):
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "sys.argv = ['coincalc', 'pi', '9', '3']\n"
            "runpy.run_module('coincalc.cli', run_name='__main__')\n"
        )
        code, out, err = _process(["-c", script])
        assert (code, out.splitlines()[0], err) == (0, "Z_3", "frozen True\n")

    def test_main_leaves_the_heap_unfrozen(self):
        before = gc.get_freeze_count()
        assert _call(["pi", "9", "3"])[0] == 0
        assert gc.get_freeze_count() == before
