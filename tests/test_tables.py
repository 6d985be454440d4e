"""Table format: parsing, rejection, round-trip, closed forms, fault injection."""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import coincalc
from coincalc import load_default_tables
from coincalc import tables as tables_module
from coincalc.fgab import InputError
from coincalc.spheres import SphereTables
from coincalc.tables import (
    OutOfTabulatedRange,
    ParseError,
    SchemaError,
    closed_form_entry,
    load_tables,
    parse_tables,
    resolve_entry,
    serialize_tables,
)

MINIMAL = """
stem 0 1
gen iota
stem 1 0 2
gen eta
group 3 2 1
gen eta_2
stab 1 1
gamma 2 0 1
antip 1
"""


class TestParsing:
    def test_minimal_file(self):
        ts = parse_tables(MINIMAL)
        entry = resolve_entry(ts, 3, 2)
        assert entry.group.free_rank == 1 and not entry.group.torsion
        assert entry.gen_names == ("eta_2",)

    def test_empty_file(self):
        ts = parse_tables("")
        assert not ts.entries and not ts.stems

    def test_comments_and_blank_lines(self):
        ts = parse_tables("# nothing here\n\n   \n# still nothing\n")
        assert not ts.entries

    def test_divisibility_rejected(self):
        with pytest.raises(SchemaError):
            parse_tables("group 9 2 0 4,2\ngen g\n")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_tables("stem zero 1\n")
        assert "line 1" in str(err.value)

    def test_non_ascii_free_rank_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_tables("group 3 2 \u00b2\n")
        assert (err.value.line, err.value.column) == (1, 11)

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_tables("bogus 1 2 3\n")

    def test_wrong_vector_length(self):
        text = MINIMAL + "\ngroup 4 2 0 2\ngen g\nstab 2 1\n"
        # stab lands in pi_2^S which is not tabulated here.
        with pytest.raises(SchemaError):
            parse_tables(text)

    def test_gamma_degree_mismatch(self):
        bad = MINIMAL.replace("gamma 2 0 1", "gamma 2 1 1")
        with pytest.raises(SchemaError) as err:
            parse_tables(bad)
        assert "expected 0" in str(err.value)

    def test_closed_form_range_not_tabulated(self):
        with pytest.raises(SchemaError):
            parse_tables("group 3 3 1\ngen iota3\n")
        with pytest.raises(SchemaError):
            parse_tables("group 2 3 0\n")

    def test_duplicate_entry(self):
        with pytest.raises(SchemaError):
            parse_tables("group 9 2 0 3\ngen a\ngroup 9 2 0 3\ngen b\n")

    def test_generator_count_must_match_rank(self):
        with pytest.raises(SchemaError):
            parse_tables("group 9 2 0 3\n")

    def test_round_trip(self, table_text):
        # The bundled table, and a generator with a src line of its own,
        # which the bundled table never has.
        for text in (table_text, MINIMAL + 'src "[Toda] 1962"\n'):
            ts = parse_tables(text)
            again = parse_tables(serialize_tables(ts))
            assert again == ts
            assert parse_tables(serialize_tables(again)) == again
        assert ts.entries[3, 2].annotations[0].source == "[Toda] 1962"
        assert 'gen eta_2\nstab 1 1\ngamma 2 0 1\nantip 1\nsrc "[Toda] 1962"\n' \
            in serialize_tables(ts)

    def test_load_from_bytes(self, table_text):
        import io

        ts = load_tables(io.BytesIO(table_text.encode("utf-8")))
        assert (3, 2) in ts.entries

    @pytest.mark.parametrize("data", [b"\xef\xbb\xbfab\xff", b"ab\xff", "\u00e9".encode() + b"b\xff",
                                      b"  ab\xff", b"\t\xc2\xa0ab\xff"])
    def test_undecodable_byte_column_counts_characters(self, data):
        # As in every other ParseError: from the line's first non-blank
        # character, after a byte order mark that starts the file.
        for text in (data, b"# header\n" + data.replace(b"\xef\xbb\xbf", b"")):
            with pytest.raises(ParseError) as err:
                load_tables(text)
            assert (err.value.line, err.value.column) == (text.count(b"\n") + 1, 3)

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_undecodable_byte_line_is_counted_as_parse_tables_counts(self, brk):
        # A line ends wherever str.splitlines() ends one, in load_tables as in
        # parse_tables: here the bad byte and the bad directive are on line 3.
        text = f"# c{brk}# d\n"
        with pytest.raises(ParseError) as err:
            load_tables(text.encode("utf-8") + b"\xff\n")
        assert str(err.value) == "line 3, column 1: not UTF-8 text (invalid start byte)"
        with pytest.raises(ParseError) as err:
            parse_tables(text + "x\n")
        assert str(err.value) == "line 3, column 1: unknown directive 'x'"

    def test_leading_byte_order_mark_is_dropped(self, table_text):
        import io

        plain = parse_tables(table_text)
        marked = "\ufeff" + table_text
        for source in (marked, io.StringIO(marked), io.BytesIO(marked.encode("utf-8"))):
            assert load_tables(source) == plain
        # Columns count from the first character after the mark; only one
        # mark is dropped.
        with pytest.raises(ParseError) as err:
            parse_tables("\ufeffstem zero 1\n")
        assert str(err.value) == "line 1, column 6: stem degree must be an integer"
        with pytest.raises(ParseError) as err:
            parse_tables("\ufeff\ufeffstem 0 1\n")
        assert str(err.value) == "line 1, column 1: unknown directive '\\ufeffstem'"


# Opens a stem and a group generator, so that every directive is legal on line 7.
_PREFIX = "stem 0 1\ngen iota\nstem 1 0 2\ngen eta\ngroup 3 2 1\ngen g\n"
_BAD_INT = "bad integer {!r} in coefficient list"
_VECTOR = re.compile(r"-?[0-9]+(,-?[0-9]+)*")

# (bad line, column, message): the line is parsed after _PREFIX, so it is line 7.
# Columns count from the line's first non-blank character.
POSITIONED = [
    ("group x 2 1", 7, "m and q must be integers"),
    ("group 3 y 1", 7, "m and q must be integers"),
    ("stem z 1", 6, "stem degree must be an integer"),
    ("stab x 1", 6, "stab degree must be an integer"),
    ("gamma x 0 1", 7, "gamma k/degree must be integers"),
    ("gamma 2 x 1", 7, "gamma k/degree must be integers"),
    ("prod eta eta -> x 1", 17, "product degree must be an integer"),
    ("name foo x 2", 10, "name m/q must be integers"),
    ("name foo 3 y", 10, "name m/q must be integers"),
    # Integers are ASCII -?[0-9]+: no sign '+', no '_', no other digits.
    ("group +4 2 0 2", 7, "m and q must be integers"),
    ("stem \u0661 1", 6, "stem degree must be an integer"),
    ("stab +1 1", 6, "stab degree must be an integer"),
    ("gamma 2 0_0 1", 7, "gamma k/degree must be integers"),
    ("prod eta eta -> +2 1", 17, "product degree must be an integer"),
    ("name foo \u0663 2 1", 10, "name m/q must be integers"),
    ("stab 1 \u0661", 8, _BAD_INT.format("\u0661")),
    ("susp 1,x", 6, _BAD_INT.format("x")),
    ("antip 1,,1", 7, _BAD_INT.format("")),
    ("stab 1 1.5", 8, _BAD_INT.format("1.5")),
    ("gamma 2 0 +1", 11, _BAD_INT.format("+1")),
    ("prod eta eta -> 2 1,-", 19, _BAD_INT.format("-")),
    ("name foo 3 2 q", 14, _BAD_INT.format("q")),
    ("group 4 2 0 2,x", 13, _BAD_INT.format("x")),
    ("stem 2 0 ,2", 10, _BAD_INT.format("")),
    ("group 4 2 x", 11, "bad free rank 'x'"),
    ("group 4 2 -1", 11, "bad free rank '-1'"),
    # Tokens that int() or isdigit() accept and -?[0-9]+ does not, or the
    # reverse: int() takes '_' and other scripts' decimal digits, and
    # isdigit() is true of superscripts.
    ("susp 1_0", 6, _BAD_INT.format("1_0")),
    ("susp --1", 6, _BAD_INT.format("--1")),
    ("susp 1-2", 6, _BAD_INT.format("1-2")),
    ("antip 1,", 7, _BAD_INT.format("")),
    ("stab 1 \uff11", 8, _BAD_INT.format("\uff11")),
    ("stab 1 \u00b2", 8, _BAD_INT.format("\u00b2")),
    ("group 4 2 \uff11", 11, "bad free rank '\uff11'"),
    ("gamma \uff12 0 1", 7, "gamma k/degree must be integers"),
    ("stem 2 \u00b2", 8, "bad free rank '\u00b2'"),
    ("group 4 2 \u00b9 2", 11, "bad free rank '\u00b9'"),
    ("group 4 2", 9, "'group' needs m q free_rank [torsion]"),
    ("stab 1", 6, "'stab' needs degree and a coefficient vector"),
    ("gen", 3, "'gen' needs a generator name"),
    ("stem 2", 6, "'stem' needs k free_rank [torsion]"),
    ("prod a b ->", 11, "'prod' needs A B -> degree [coeffs]"),
    ("name foo 3", 10, "'name' needs NAME m q [coeffs]"),
    ("prod eta eta 2 1", 1, "prod syntax: prod A B -> degree c1,..."),
    ('src "open', 1, 'src needs a quoted string: src "..."'),
    ("bogus 1", 1, "unknown directive 'bogus'"),
]


def _layouts(line):
    """The line as written, indented, and with tabs or no-break spaces between
    tokens; every layout keeps the columns of the first."""
    return [
        line,
        " \t\u00a0" + line,
        line.replace(" ", "\t"),
        "\u3000" + line.replace(" ", "\u00a0") + " \x85",
    ]


class TestParseErrorPositions:
    @pytest.mark.parametrize("line, column, message", POSITIONED)
    def test_position_and_message(self, line, column, message):
        for layout in _layouts(line):
            with pytest.raises(ParseError) as err:
                parse_tables(_PREFIX + layout + "\n")
            assert (err.value.line, err.value.column) == (7, column), repr(layout)
            assert str(err.value) == f"line 7, column {column}: {message}"

    def test_wider_gaps_move_the_column(self):
        with pytest.raises(ParseError) as err:
            parse_tables(_PREFIX + "gamma  2   0 \t 1,x\n")
        assert (err.value.line, err.value.column) == (7, 16)

    def test_outside_of_an_entity(self):
        for line, message in [
            ("gen g", "gen outside of a group/stem"),
            ("susp 1", "susp outside of a group generator"),
            ('src "x"', "src outside of any entity"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_tables("# header\n\n  " + line + "\n")
            assert str(err.value) == f"line 3, column 1: {message}"

    @seed(19)
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["susp", "antip", "stab 1", "gamma 2 0"]),
        st.text(alphabet="0123456789-,+_x\u0661\uff11\u00b2", min_size=1, max_size=8),
    )
    def test_vector_token_grammar(self, head, token):
        # A vector is -?[0-9]+ joined by commas; anything else is a ParseError
        # at the token, and a well-formed one is stored as written.  Only antip,
        # stab and gamma k=2 of gen g land in a group of rank 1; susp lands in
        # an untabulated group.
        try:
            tables = parse_tables(_PREFIX + f"{head} {token}\n")
        except ParseError as err:
            assert not _VECTOR.fullmatch(token)
            assert (err.line, err.column) == (7, len(head) + 2)
            return
        except SchemaError:
            assert _VECTOR.fullmatch(token)
            return
        assert _VECTOR.fullmatch(token) and token.count(",") == 0
        ann = tables.entries[3, 2].annotations[0]
        stored = {"antip": ann.antip, "stab 1": ann.stab, "gamma 2 0": ann.gamma_component(2)}
        assert stored[head] == tuple(map(int, token.split(",")))

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab1,\x1c\x1d\x1e\x1f\x85\xa0 \u3000\t\n", max_size=40))
    def test_split_matches_the_token_regex(self, line):
        # The tokenizer splits on str.isspace(); the positions of its errors
        # come from \S+ matches, so both must see the same tokens.
        assert line.split() == re.findall(r"\S+", line)


# (table, message) for the schema faults of parse_tables that no other test
# raises.
# Stems 0-2, over which `prod eta eta -> 2 1` is a valid product.
_STEMS = "stem 0 1\ngen iota\nstem 1 0 2\ngen eta\nstem 2 0 2\ngen eta2\n"
SCHEMA_FAULTS = [
    (_PREFIX + "gamma 0 1 1\n", "pi_3(S^2): gamma component index must be >= 1"),
    ("stem 0 2\ngen a\ngen a\n", "pi_0^S: duplicate generator 'a'"),
    ("stem -1 1\n", "pi_-1^S: negative stem degree"),
    ("stem 0 1\ngen iota\nstem 0 1\n", "pi_0^S: duplicate stem"),
    ("name foo 3 3 1\nname foo 3 3 1\n", "name foo: duplicate name"),
    (MINIMAL + "gamma 3 -1 1\n", "pi_3(S^2) gen eta_2: gamma component k=3 beyond k_max=2"),
    ("stem 0 1\ngen iota\nstem 1 1\ngen iota\n",
     "pi_1^S: stem generator name 'iota' reused across stems"),
    (_STEMS + "prod eta eta1 -> 2 1\n", "prod eta eta1: unknown stem generator 'eta1'"),
    (_STEMS + "prod eta2 eta2 -> 4 1\n", "prod eta2 eta2: product degree 4 outside tabulated stems"),
    (_STEMS + "prod eta eta -> 2 1,0\n", "prod eta eta: vector length 2 != rank 1"),
    (_STEMS + "prod eta eta -> 2 1\n" * 2, "prod eta eta: duplicate product"),
]


@pytest.mark.parametrize("text, message", SCHEMA_FAULTS)
def test_schema_fault_and_message(text, message):
    with pytest.raises(SchemaError) as err:
        parse_tables(text)
    assert str(err.value) == message


class TestSources:
    def test_stem_src_after_gen_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_tables('stem 0 1\ngen iota\nsrc "after"\n')
        assert str(err.value) == "line 3, column 1: src of a stem must come before its gen lines"

    @pytest.mark.parametrize(
        "text, path",
        [
            ('stem 0 1\nsrc "a"\nsrc "b"\ngen iota\n', "pi_0^S"),
            ('stem 0 1\ngen iota\nstem 1 0 2\ngen eta\n'
             'group 3 2 1\nsrc "a"\nsrc "b"\ngen g\n', "pi_3(S^2)"),
            ('stem 0 1\ngen iota\nstem 1 0 2\ngen eta\n'
             'group 3 2 1\ngen g\nsrc "a"\nantip 1\nsrc "b"\n', "pi_3(S^2) gen g"),
            ('stem 0 1\ngen iota\nname hopfR 1 1 2\nsrc ""\nsrc "b"\n', "name hopfR"),
        ],
        ids=["stem", "group", "generator", "name"],
    )
    def test_second_src_is_a_schema_error(self, text, path):
        with pytest.raises(SchemaError) as err:
            parse_tables(text)
        assert str(err.value) == f"{path}: duplicate src"


class TestStemGap:
    def test_first_missing_stem_is_named(self, table_text):
        gapped = re.sub(r"^stem 4 0\nsrc .*\n", "", table_text, flags=re.M)
        assert gapped != table_text
        with pytest.raises(SchemaError) as err:
            parse_tables(gapped)
        assert err.value.path == "pi_4^S"

    def test_stems_may_come_in_any_order(self):
        ts = parse_tables("stem 1 0 2\ngen eta\nstem 0 1\ngen iota\n")
        assert sorted(ts.stems) == [0, 1]
        with pytest.raises(SchemaError) as err:
            parse_tables("stem 2 0 2\ngen eta2\nstem 0 1\ngen iota\n")
        assert str(err.value).startswith("pi_1^S: missing below pi_2^S")


def test_every_one_line_deletion_loads_or_is_rejected(table_text):
    # A table that loads must validate without raising: a deleted line either
    # breaks the structure (exit 3 from the CLI) or gives violations.
    lines = table_text.splitlines()
    for index in range(len(lines)):
        text = "\n".join(lines[:index] + lines[index + 1:]) + "\n"
        try:
            tables = parse_tables(text)
        except (ParseError, SchemaError):
            continue
        SphereTables(tables).validate()


class TestDefaultTable:
    def test_import_leaves_importlib_resources_unloaded(self):
        # -S: no site hooks, which preload importlib.resources on some installs.
        src = os.path.dirname(os.path.dirname(coincalc.__file__))
        code = "import sys, coincalc; print('importlib.resources' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "False\n"

    def test_resources_fallback_reads_the_same_text(self, table_text, monkeypatch):
        monkeypatch.setattr(os.path, "isfile", lambda path: False)
        assert coincalc.default_table_text() == table_text


class TestLookup:
    def test_tabulated(self, tables):
        assert str(tables.lookup(9, 3).group) == "Z_3"
        assert str(tables.lookup(6, 3).group) == "Z_12"
        assert str(tables.lookup(4, 3).group) == "Z_2"

    def test_closed_forms(self, tables):
        assert str(tables.lookup(5, 5).group) == "Z"
        assert tables.lookup(5, 5).gen_names == ("iota5",)
        assert tables.lookup(1, 1).group.free_rank == 1
        assert tables.lookup(7, 1).group.is_trivial
        assert tables.lookup(3, 0).group.is_trivial
        assert tables.lookup(2, 3).group.is_trivial

    def test_closed_forms_are_shared_and_equal_a_fresh_build(self, monkeypatch):
        monkeypatch.setattr(tables_module, "_CLOSED_FORMS", {})
        built = 0
        for q in range(-1, 31):
            for m in range(-1, 41):
                entry = closed_form_entry(m, q)
                assert entry == tables_module._closed_form(m, q), (m, q)
                if entry is None:
                    assert (m, q) not in tables_module._CLOSED_FORMS
                else:
                    built += 1
                    assert closed_form_entry(m, q) is entry
        # 1 <= m <= 40 for q = 0 and q = 1, and 1 <= m <= q for 2 <= q <= 30.
        assert len(tables_module._CLOSED_FORMS) == built == 40 + 40 + sum(range(2, 31))

    def test_only_an_int_pair_is_kept(self, monkeypatch):
        monkeypatch.setattr(tables_module, "_CLOSED_FORMS", {})
        assert closed_form_entry(2.0, 2).m == 2.0
        assert closed_form_entry(True, True).gen_names == ("iotaTrue",)
        assert not tables_module._CLOSED_FORMS
        entry = closed_form_entry(2, 2)
        assert type(entry.m) is int and entry.gen_names == ("iota2",)
        assert closed_form_entry(2.0, 2) is entry

    @pytest.mark.parametrize("m, q", [(2.0, 2), (True, 1), (2, 2.0), (3, False)])
    def test_a_degree_that_is_no_int_is_refused(self, m, q):
        # An equal float or bool key would otherwise keep that degree in the
        # entry for every later lookup of the int pair.
        fresh = load_default_tables()
        with pytest.raises(InputError, match=r"^[mq] must be an int, got "):
            fresh.lookup(m, q)
        assert not fresh._entries
        entry = fresh.lookup(int(m), int(q))
        assert (type(entry.m), type(entry.q)) == (int, int)
        # Once the int entry is kept, an equal key finds it, and a class built
        # through it takes the entry's int degrees.
        assert fresh.lookup(m, q) is entry
        for x in (fresh.cls(m, q, [0] * entry.group.rank), fresh.zero(m, q)):
            assert (type(x.m), type(x.q)) == (int, int)

    def test_untabulated_is_an_error_not_trivial(self, tables):
        with pytest.raises(OutOfTabulatedRange):
            tables.lookup(11, 3)
        with pytest.raises(OutOfTabulatedRange):
            tables.lookup(0, 2)


def _load_and_validate(text):
    """Violations from either phase: load rejection counts as one."""
    try:
        tables = SphereTables(parse_tables(text))
    except (ParseError, SchemaError) as exc:
        return [str(exc)]
    report = tables.validate()
    return [str(v) for v in report.violations]


class TestValidator:
    def test_shipped_dataset_is_clean(self, tables):
        assert tables.validate().ok

    def test_empty_dataset_is_clean(self):
        assert _load_and_validate("") == []

    def test_fault_diagram_consistency(self, table_text):
        # A stored first Hopf-James component contradicting the stabilization.
        faulty = table_text.replace(
            "gen eta_2\nsusp 1\nstab 1 1\n",
            "gen eta_2\nsusp 1\nstab 1 1\ngamma 1 1 0\n",
        )
        assert faulty != table_text
        violations = _load_and_validate(faulty)
        assert violations
        assert any("gamma k=1" in v for v in violations)

    def test_fault_divisibility(self, table_text):
        faulty = table_text.replace("stem 8 0 2,2", "stem 8 0 4,2")
        assert faulty != table_text
        assert _load_and_validate(faulty)

    def test_fault_degree_mismatch(self, table_text):
        faulty = table_text.replace("stab 3 2\ngamma 2 1 1", "stab 4 2\ngamma 2 1 1")
        assert faulty != table_text
        assert _load_and_validate(faulty)

    def test_fault_antipodal_parity(self, table_text):
        # nu' on S^3: odd q, so the antipode must act as the identity.
        faulty = table_text.replace(
            "stab 3 2\ngamma 2 1 1\nantip 1", "stab 3 2\ngamma 2 1 1\nantip -1"
        )
        assert faulty != table_text
        violations = _load_and_validate(faulty)
        assert any("identity for odd q" in v for v in violations)

    def test_fault_whitehead_value(self, table_text):
        faulty = table_text.replace("name whitehead3 5 3 0", "name whitehead3 5 3 1")
        assert faulty != table_text
        violations = _load_and_validate(faulty)
        assert any("whitehead3" in v for v in violations)

    def test_fault_stabilization_vs_suspension(self, table_text):
        # stab(eta_2) rewritten to 0 breaks E-invariance of the stable image.
        faulty = table_text.replace(
            "gen eta_2\nsusp 1\nstab 1 1\n", "gen eta_2\nsusp 1\nstab 1 0\n"
        )
        assert faulty != table_text
        violations = _load_and_validate(faulty)
        assert any("suspension-invariant" in v for v in violations)
