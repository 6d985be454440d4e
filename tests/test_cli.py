"""Command-line behaviors: outputs, exit codes, machine mode, strictness."""

import json
import os
import re

import pytest

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
        golden = open(os.path.join(os.path.dirname(__file__), "golden", "cp1_compare_2_9.txt")).read()
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


def _drop(line):
    return lambda text: text.replace(line, "")


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
        ],
        ids=["whitehead-unregistered", "whitehead-not-int", "whitehead-open",
             "wecken-negative-m", "verify-s-no-samples", "verify-s-negative-samples"],
    )
    def test_bad_input_exits_2(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert reason in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit,argv,reason",
        [
            (_drop("name whitehead5 9 5 1\n"), ["witnesses", "--claim", "a"],
             "unknown named class 'whitehead5'"),
            (_drop("name hopfC 3 2 1\n"), ["witnesses", "--claim", "b", "--machine"],
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

    def test_validator_flags_bad_dataset(self, capsys, tmp_path, table_text):
        path = tmp_path / "bad.txt"
        path.write_text(table_text.replace("name whitehead3 5 3 0", "name whitehead3 5 3 1"))
        code, out, _ = run(capsys, "--tables", str(path), "validate-data")
        assert code == 3 and "whitehead3" in out

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
