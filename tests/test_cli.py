"""Command-line behaviors: outputs, exit codes, machine mode, strictness."""

import contextlib
import errno
import io
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc import OutOfTabulatedRange, load_default_tables, space
from coincalc.cli import main


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
        code, out, _ = run(
            capsys, "nielsen", "--field", "R", "--nprime", "2", "--m", "3",
            "--f1", "hopfC", "--f2", "zero",
        )
        assert code == 0
        assert " N# = 2" in out and " N~ = 2" in out
        assert "  N = 0" in out and " NZ = 0" in out

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


def _nielsen_rp2(f1):
    return ["nielsen", "--field", "R", "--nprime", "2", "--m", "3", "--f1", f1, "--f2", "zero"]


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
            (_nielsen_rp2("whitehead("), "unexpected end of expression\n"),
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
        ],
        ids=["whitehead-unregistered", "whitehead-not-int", "whitehead-open",
             "wecken-negative-m", "verify-s-no-samples", "verify-s-negative-samples",
             "verify-s-negative-nprime", "verify-s-zero-nprime", "verify-s-negative-even-nprime",
             "verify-s-H-zero-nprime", "verify-s-H-negative-nprime"],
    )
    def test_bad_input_exits_2(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert reason in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit,argv,reason",
        [
            (_drop_name("whitehead5"), ["witnesses", "--claim", "a"],
             "unknown named class 'whitehead5'"),
            (_drop_name("hopfC"), ["witnesses", "--claim", "b", "--machine"],
             "unknown named class 'hopfC'"),
            (_without_eta, ["nielsen", "--field", "C", "--nprime", "1", "--m", "4",
                            "--f1", "eta_3", "--f2", "zero"], "unknown stable class 'eta'"),
        ],
        ids=["witnesses-no-whitehead5", "witnesses-no-hopfC", "nielsen-no-eta"],
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

    def test_missing_hopf_class_makes_compare_unknown(self, capsys, tmp_path, table_text):
        # Without eta, h_C . E^inf cannot be formed: CP1 scan rows that need
        # the kernel chain turn unknown instead of crashing.
        path = tmp_path / "gap.txt"
        path.write_text(_without_eta(table_text))
        argv = ["--tables", str(path), "compare", "--surface", "CP1", "--m-range", "2..4"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "m=2: N# == N~ == N == NZ != 0",
            "m=3: N# ?? N~ ?? N ?? NZ ?? 0",
            "m=4: N# ?? N~ ?? N ?? NZ ?? 0",
        ]


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

    def test_verify_s_complex(self, capsys):
        code, out, _ = run(capsys, "verify-s", "--field", "C", "--samples", "20")
        assert code == 0 and "all residuals positive" in out

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
        cases = ((b"\xff\xfe bad", "line 1, column 1"), (broken, f"line {line}, column 8"))
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
        path = tmp_path / "bad.txt"
        path.write_text(table_text.replace("name whitehead3 5 3 0", "name whitehead3 5 3 1"))
        code, out, _ = run(capsys, "--tables", str(path), "validate-data")
        assert code == 3 and "whitehead3" in out

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

    def test_table_gap_makes_compare_unknown(self, capsys, tmp_path, table_text):
        # A missing annotation is a gap in the data, not bad input: the scan
        # rows turn unknown and the pointwise report still decides N~.
        path = tmp_path / "gap.txt"
        path.write_text(table_text.replace("gamma 2 3 14\n", ""))
        argv = ["--tables", str(path), "compare", "--surface", "RP2", "--m-range", "6..6"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "m=6: N# ?? N~ ?? N ?? NZ ?? 0\n", "")
        code, _, err = run(capsys, "--strict", *argv)
        assert code == 1 and "strict" in err
        code, out, _ = run(
            capsys, "--tables", str(path), "nielsen", "--field", "R", "--nprime", "2",
            "--m", "6", "--f1", "eta_2_nu_p", "--f2", "zero", "--machine",
        )
        assert code == 0 and json.loads(out)["values"]["N_tilde"] == 2

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
        except SystemExit as exc:  # argparse's usage error, and only that
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

    # `--f1=EXPR`, since argparse would read a leading "-2*g" as an option.
    return (["nielsen", "--field", field, "--nprime", str(nprime), "--m", str(m),
             f"--f1={cls()}", f"--f2={cls()}"] + draw(_flags("--assume-self-loose")))


class TestContractProperty:
    """Exit codes 0/1/2/3 only; nothing but argparse's usage exit escapes
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
