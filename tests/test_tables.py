"""Table format: parsing, rejection, round-trip, closed forms, fault injection."""

import itertools
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
from coincalc.fgab import FgAbGroup, InputError
from coincalc.spheres import SphereTables
from test_bench_replay import EXPECTED, wl
from coincalc.tables import (
    GenAnnotations,
    OutOfTabulatedRange,
    ParseError,
    SchemaError,
    SphereEntry,
    StemEntry,
    TableSet,
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
    ("stem 0 1\ngen iota\ngroup 3 2 0 2\ngen g\nantip 1,1\n",
     "pi_3(S^2) gen g: antip vector of length 2, expected 1"),
    # A row's line is checked before its group closes: gen h's stab degree
    # is reported before gen g's gamma degree.
    (_STEMS + "group 4 2 0 2,2\ngen g\ngamma 2 0 1\ngen h\nstab 1 1\n",
     "pi_4(S^2) gen h: stab declares degree 1, expected 2"),
    # An entity closes before the header after it is read, also before a
    # bare header that ends the file.
    ("stem 0 2\ngen a\nstem", "pi_0^S: 1 generators declared for a group of rank 2"),
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

    def test_src_cites_the_group_after_a_name(self):
        tables = parse_tables(
            'stem 0 1\ngen iota\nstem 1 0 2\ngen eta\nname foo 3 2 1\n'
            'group 3 2 1\nsrc "a"\ngen g\n'
        )
        assert tables.entries[3, 2].source == "a" and tables.named["foo"].source == ""


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


# Texts whose piece is stored by the warm-up texts after them or by their own
# first parse, so that a warm parse takes it from the store and meets each
# fault there: the same group twice, the same stem twice, a stored stem whose
# generator name an earlier stem has, a stored block before a malformed line,
# the same name twice, a stored product of a generator the text lacks, and
# the same product twice.
STORED_BLOCK_FAULTS = [
    (MINIMAL + "group 3 2 1\ngen eta_2\nstab 1 1\ngamma 2 0 1\nantip 1\n",
     ("group 3 2 1", "gen eta_2", "stab 1 1", "gamma 2 0 1", "antip 1")),
    ("stem 0 1\ngen iota\nstem 0 1\ngen iota\n", ("stem 0 1", "gen iota")),
    ("stem 0 1\ngen iota\nstem 1 1\ngen iota\n", ("stem 1 1", "gen iota")),
    (MINIMAL + "name foo x 2\n",
     ("group 3 2 1", "gen eta_2", "stab 1 1", "gamma 2 0 1", "antip 1")),
    (MINIMAL + 'name hopf 3 2 1\nsrc "eta_2"\nname hopf 3 2 1\nsrc "eta_2"\n',
     ("name hopf 3 2 1", 'src "eta_2"')),
    ("stem 0 1\ngen iota\nprod eta eta -> 2 1\n", ("prod eta eta -> 2 1",)),
    (MINIMAL + "stem 2 0 2\ngen eta2\nprod eta eta -> 2 1\nprod eta eta -> 2 1\n",
     ("prod eta eta -> 2 1",)),
]
_WARM_UPS = [MINIMAL, "stem 0 1\ngen i0\nstem 1 1\ngen iota\n"]

# The str.isspace() characters that str.splitlines() does not end a line at:
# each parts the tokens of a line, a header's first two among them.
_BLANKS = "\t\x1f \xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"
# Every line break of str.splitlines() but "\n".
_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _outcome(text):
    """The TableSet that text parses to, or its error's type, text and position."""
    try:
        return parse_tables(text)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc), [getattr(exc, key, None) for key in ("line", "column", "path")]


def _written(text):
    """_outcome(text), and what serialize_tables writes of a TableSet."""
    outcome = _outcome(text)
    return outcome, serialize_tables(outcome) if isinstance(outcome, TableSet) else None


def _count_builds(monkeypatch) -> dict:
    """Count the values of each entry class built from here on."""
    built = dict.fromkeys((SphereEntry, StemEntry, GenAnnotations), 0)
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


class TestBlockStore:
    def test_a_cold_and_a_warm_store_give_the_same_results(self, table_text, monkeypatch):
        lines = table_text.splitlines()
        texts = [wl.variant_text(lines, item["edit"]) for item in EXPECTED["table_curation"]]
        assert len(texts) == 233
        texts += [text for text, _message in SCHEMA_FAULTS]
        texts += [_PREFIX + line + "\n" for line, _column, _message in POSITIONED]
        # The bundled table with a header's first two tokens parted by each
        # blank, and with its lines ended by each line break: the same tables.
        header = "\ngroup 5 3 "
        assert table_text.count(header) == 1
        same = [table_text.replace(header, f"\ngroup{blank}5 3 ") for blank in _BLANKS]
        same += [table_text.replace("\n", brk) for brk in _BREAKS]
        texts += same
        texts += [text for text, _block in STORED_BLOCK_FAULTS]
        store, kept = {}, {}
        monkeypatch.setattr(tables_module, "_BLOCKS", store)
        monkeypatch.setattr(tables_module, "_TEXTS", kept)
        cold = []
        for text in [table_text, *texts]:
            store.clear()
            kept.clear()
            cold.append(_written(text))
        bundled = cold.pop(0)
        faults = len(STORED_BLOCK_FAULTS)
        assert cold[-faults - len(same):-faults] == [bundled] * len(same)
        for text in [table_text, *_WARM_UPS, *texts]:
            _written(text)
        for _text, block in STORED_BLOCK_FAULTS:
            assert "\n".join(block) in store
        assert [_written(text) for text in texts] == cold
        # Each fault of a stored piece, as a parse that reads it would give it.
        assert [outcome[1:] for outcome, _written_text in cold[-faults:]] == [
            ("pi_3(S^2): duplicate entry", [None, None, "pi_3(S^2)"]),
            ("pi_0^S: duplicate stem", [None, None, "pi_0^S"]),
            ("pi_1^S: stem generator name 'iota' reused across stems", [None, None, "pi_1^S"]),
            ("line 11, column 10: name m/q must be integers", [11, 10, None]),
            ("name hopf: duplicate name", [None, None, "name hopf"]),
            ("prod eta eta: unknown stem generator 'eta'", [None, None, "prod eta eta"]),
            ("prod eta eta: duplicate product", [None, None, "prod eta eta"]),
        ]

    def test_entries_are_shared_by_text_and_dicts_are_not(self, table_text, monkeypatch):
        store = {}
        monkeypatch.setattr(tables_module, "_BLOCKS", store)
        first = parse_tables(table_text)
        assert (len(first.entries), len(first.stems)) == (19, 20)
        assert len(store) == 56
        built = _count_builds(monkeypatch)
        second = parse_tables(table_text)
        assert second == first and not any(built.values())
        assert all(second.entries[key] is entry for key, entry in first.entries.items())
        assert all(second.stems[k] is stem for k, stem in first.stems.items())
        for name in TableSet.__slots__:
            assert getattr(second, name) is not getattr(first, name)
        del second.entries[3, 2]
        assert (3, 2) in first.entries and (3, 2) not in second.entries
        # One changed row: only its group is read and built again.
        variant = table_text.replace("gen eta_2_eta\nsusp 1\n", "gen eta_2_eta\nsusp 0\n")
        assert variant != table_text
        changed = parse_tables(variant)
        assert built == {SphereEntry: 1, StemEntry: 0, GenAnnotations: 1}
        assert changed.entries[4, 2].annotations[0].susp == (0,)
        assert len(store) == 57

    @pytest.mark.parametrize("text", [
        "stem 0 2\ngen a\n",
        "stem 0 1\ngen iota\nstem 1 1\ngen iota\n",
        _STEMS + "group 4 2 0 2,2\ngen g\ngamma 2 1 1\ngen h\ngamma 2 2 1\n",
    ], ids=["rank", "reused name", "gamma degree"])
    def test_a_block_whose_close_raises_is_not_stored(self, text, monkeypatch):
        # The last block fails when it closes; each block before it is stored.
        store = {}
        monkeypatch.setattr(tables_module, "_BLOCKS", store)
        with pytest.raises(SchemaError):
            parse_tables(text)
        lines = text.splitlines()
        heads = [i for i, line in enumerate(lines) if line.split()[0] in ("group", "stem")]
        assert set(store) == {"\n".join(lines[i:j]) for i, j in zip(heads, heads[1:])}

    def test_the_head_split_sees_the_blanks_that_str_split_sees(self):
        # The pieces are cut where a line starts with group, stem, prod or
        # name and a \s or its end; tokens end where str.isspace() holds.
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = [c for c in chars if c.isspace()]
        assert re.findall(r"\s", chars) == spaces
        assert [c for c in spaces if len(f"a{c}b".splitlines()) == 1] == list(_BLANKS)
        breaks = {c for c in spaces if len(f"a{c}b".splitlines()) == 2}
        assert breaks | {"\r\n"} == {*_BREAKS, "\n"}


def _row_fault_oracle(tables: TableSet):
    """The first row-length fault of the file stage, read row by row: every
    entry in order, each generator, then its susp, stab and each gamma row.
    Its message as SchemaError words it, or None."""
    for (m, q), entry in tables.entries.items():
        for name, ann in zip(entry.gen_names, entry.annotations):
            for key, coeffs in (("susp", ann.susp), ("stab", ann.stab), *ann.gammas):
                if coeffs is None:
                    continue
                target = tables_module.map_target(tables, entry, key)
                if isinstance(target, str):
                    fault = f"target {target}"
                elif len(coeffs) != target.group.rank:
                    fault = f"vector length {len(coeffs)} != rank {target.group.rank}"
                else:
                    continue
                label = key if type(key) is str else f"gamma k={key}"
                return f"pi_{m}(S^{q}) gen {name}: {label} {fault}"
    return None


def _rows(lines):
    """(line index, (m, q), generator, key) of each susp, stab and gamma row."""
    group = gen = None
    for index, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] in ("group", "stem", "prod", "name"):
            group = (int(tokens[1]), int(tokens[2])) if tokens[0] == "group" else None
        elif tokens[0] == "gen":
            gen = tokens[1]
        elif group and tokens[0] in ("susp", "stab", "gamma"):
            yield index, group, gen, int(tokens[1]) if tokens[0] == "gamma" else tokens[0]


def _resized(lines, index):
    """Each one-row length mutation of line `index`: a coefficient added, and
    one dropped where the row has two or more: (line, new coefficients)."""
    head, _, vector = lines[index].rpartition(" ")
    coeffs = tuple(map(int, vector.split(",")))
    out = [(f"{head} {vector},0", coeffs + (0,))]
    if len(coeffs) > 1:
        out.append((f"{head} {vector.rpartition(',')[0]}", coeffs[:-1]))
    return out


def _with_row(entry: SphereEntry, gen: str, key, coeffs) -> SphereEntry:
    """entry with the row `key` of generator `gen` replaced by coeffs."""
    anns = list(entry.annotations)
    i = entry.gen_names.index(gen)
    a = anns[i]
    if key == "susp":
        a = GenAnnotations(coeffs, a.stab, a.gammas, a.antip, a.source)
    elif key == "stab":
        a = GenAnnotations(a.susp, coeffs, a.gammas, a.antip, a.source)
    else:
        gammas = tuple((k, coeffs if k == key else c) for k, c in a.gammas)
        a = GenAnnotations(a.susp, a.stab, gammas, a.antip, a.source)
    anns[i] = a
    return SphereEntry(entry.m, entry.q, entry.group, entry.gen_names, tuple(anns), entry.source)


class TestRowDemands:
    """The file stage checks each distinct (map key, vector length) of a
    group's rows once, at its first row; a row-by-row reading must report
    the same first fault."""

    def _check(self, table_text, edits):
        """Apply edits [(line index, (m, q), generator, key, line, coeffs)] to
        the text and to its parsed table; both readings give one fault."""
        lines = table_text.splitlines()
        tables = parse_tables(table_text)
        for index, group, gen, key, line, coeffs in edits:
            lines[index] = line
            tables.entries[group] = _with_row(tables.entries[group], gen, key, coeffs)
        expected = _row_fault_oracle(tables)
        assert expected is not None
        with pytest.raises(SchemaError) as err:
            parse_tables("\n".join(lines) + "\n")
        assert str(err.value) == expected
        return expected

    def test_each_one_row_length_mutation(self, table_text):
        lines = table_text.splitlines()
        rows = list(_rows(lines))
        assert len(rows) == 59
        for index, group, gen, key in rows:
            for line, coeffs in _resized(lines, index):
                self._check(table_text, [(index, group, gen, key, line, coeffs)])

    def test_two_faults_in_the_group_with_two_generators(self, table_text):
        lines = table_text.splitlines()
        rows = [row for row in _rows(lines) if row[1] == (7, 4)]
        assert [(gen, key) for _i, _g, gen, key in rows] == [
            ("nu_4", "susp"), ("nu_4", "stab"), ("nu_4", 2),
            ("e_nu_p", "susp"), ("e_nu_p", "stab"), ("e_nu_p", 2),
        ]
        reported = set()
        for first, second in itertools.combinations(rows, 2):
            edits = [(*row, *_resized(lines, row[0])[0]) for row in (first, second)]
            reported.add(self._check(table_text, edits))
        # Only reading order picks the fault: the first row, whatever its key.
        assert reported == {
            "pi_7(S^4) gen nu_4: susp vector length 2 != rank 1",
            "pi_7(S^4) gen nu_4: stab vector length 2 != rank 1",
            "pi_7(S^4) gen nu_4: gamma k=2 vector length 2 != rank 1",
            "pi_7(S^4) gen e_nu_p: susp vector length 2 != rank 1",
            "pi_7(S^4) gen e_nu_p: stab vector length 2 != rank 1",
        }


def _serialize_oracle(tables: TableSet) -> str:
    """serialize_tables with every line formatted on each call, and no store."""
    out: list[str] = []
    for k in sorted(tables.stems):
        stem = tables.stems[k]
        out.append(tables_module._fmt_tail(f"stem {k} {stem.group.free_rank}", stem.group.torsion))
        if stem.source:
            out.append(f'src "{stem.source}"')
        for g in stem.gen_names:
            out.append(f"gen {g}")
    degrees = tables.stem_gen_degrees
    for (a, b), coeffs in sorted(tables.products.items()):
        out.append(tables_module._fmt_tail(f"prod {a} {b} -> {degrees[a] + degrees[b]}", coeffs))
    for (m, q) in sorted(tables.entries):
        entry = tables.entries[(m, q)]
        out.append(
            tables_module._fmt_tail(f"group {m} {q} {entry.group.free_rank}", entry.group.torsion)
        )
        if entry.source:
            out.append(f'src "{entry.source}"')
        for name, ann in zip(entry.gen_names, entry.annotations):
            out.append(f"gen {name}")
            if ann.susp is not None:
                out.append(f"susp {','.join(map(str, ann.susp))}")
            if ann.stab is not None:
                out.append(f"stab {m - q} {','.join(map(str, ann.stab))}")
            for k, coeffs in ann.gammas:
                out.append(f"gamma {k} {entry.gamma_degree(k)} {','.join(map(str, coeffs))}")
            if ann.antip is not None:
                out.append(f"antip {','.join(map(str, ann.antip))}")
            if ann.source:
                out.append(f'src "{ann.source}"')
    for name in sorted(tables.named):
        nc = tables.named[name]
        out.append(tables_module._fmt_tail(f"name {name} {nc.m} {nc.q}", nc.coeffs))
        if nc.source:
            out.append(f'src "{nc.source}"')
    return "\n".join(out) + "\n"


def _hand_built() -> list[TableSet]:
    """Tables built by hand: a stem and a group stored under keys that are not
    their own degrees, then the same values under keys that equal ints but are
    written otherwise."""
    iota = StemEntry(0, FgAbGroup.free(1), ("iota",))
    stem = StemEntry(3, FgAbGroup(0, (2,)), ("eta",), "stem of degree 3")
    ann = GenAnnotations((1,), (1, 0), ((1, (1,)), (2, (0, 1))), (-1,), "its generator")
    entry = SphereEntry(3, 2, FgAbGroup(1, (2,)), ("g",), (ann,), "group (3, 2)")
    return [
        TableSet({(5, 2): entry, (3, 2): entry}, {0: iota, 1: stem},
                 {("eta", "eta"): (1,)}, stem_gen_degrees={"eta": 1}),
        TableSet({(5.0, 2): entry, (3, True): entry}, {False: iota, 1.0: stem}),
        TableSet(),
    ]


def _count_formats(monkeypatch) -> list:
    """The key of each stem and group formatted from here on."""
    formatted = []
    for name in ("_fmt_stem", "_fmt_group"):
        def counted(key, entity, _fmt=getattr(tables_module, name)):
            formatted.append(key)
            return _fmt(key, entity)
        monkeypatch.setattr(tables_module, name, counted)
    return formatted


class TestTextStore:
    def test_the_text_is_the_one_every_line_formatted_gives(self, table_text, monkeypatch):
        lines = table_text.splitlines()
        texts = [wl.variant_text(lines, item["edit"]) for item in EXPECTED["table_curation"]]
        texts += [MINIMAL, MINIMAL + 'src "[Toda] 1962"\n', *_WARM_UPS, _STEMS]
        tables = [raw for raw in map(_outcome, texts) if isinstance(raw, TableSet)]
        assert len(tables) == 181 + 5
        tables += _hand_built()
        monkeypatch.setattr(tables_module, "_TEXTS", {})
        for raw in tables + tables[::-1]:
            assert serialize_tables(raw) == _serialize_oracle(raw)
        assert "stem False 1\ngen iota\nstem 1.0 0 2\n" in serialize_tables(tables[-2])

    def test_a_stem_or_group_is_formatted_once(self, table_text, monkeypatch):
        monkeypatch.setattr(tables_module, "_BLOCKS", {})
        store = {}
        monkeypatch.setattr(tables_module, "_TEXTS", store)
        formatted = _count_formats(monkeypatch)
        text = serialize_tables(parse_tables(table_text))
        assert len(formatted) == len(store) == 39
        del formatted[:]
        assert serialize_tables(parse_tables(table_text)) == text and formatted == []
        # One changed row: only its group is formatted again.
        variant = table_text.replace("gen eta_2_eta\nsusp 1\n", "gen eta_2_eta\nsusp 0\n")
        assert variant != table_text
        written = text.replace("gen eta_2_eta\nsusp 1\n", "gen eta_2_eta\nsusp 0\n")
        assert written != text and serialize_tables(parse_tables(variant)) == written
        assert formatted == [(4, 2)] and len(store) == 40
