"""validate() over a sweep of edited tables, against a recorded file.

The sweep is the bundled table, every one-line deletion of it, every +1 and
-1 shift of each integer field on its susp/stab/gamma/antip/prod/name lines,
and hand-made tables for the messages those edits never produce.  For each
text the dump holds the load error, or each violation as `path: message` in
the order validate() reports them, or what validate() raised; it must equal
the file byte for byte.

Regenerate the file, after a deliberate change of a message, with
    PYTHONPATH=src python tests/test_validate_golden.py --write
"""

import os
import re
import sys

from coincalc import default_table_text
from coincalc.spheres import SphereTables
from coincalc.tables import ParseError, SchemaError, parse_tables

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "validate_sweep.txt")

_SHIFTED = ("susp", "stab", "gamma", "antip", "prod", "name")
# One integer field: a token, or one entry of a comma-separated vector.
_FIELD = re.compile(r"(?<![^\s,])-?[0-9]+(?![^\s,])")


def _rename(old: str, new: str):
    """The table with stem generator `old` renamed in its gen and prod lines:
    it still parses, but no stable class is called `old`."""
    return lambda text: re.sub(
        r"^(gen|prod) .*$", lambda line: re.sub(rf"\b{old}\b", new, line.group(0)),
        text, flags=re.M,
    )


def _replace(old: str, new: str):
    def edit(text):
        assert old in text
        return text.replace(old, new)
    return edit


def _add_name(line: str):
    return lambda text: text + line + "\n"


_SMALL = "stem 0 1\ngen iota\nstem 1 0 2\ngen eta\nstem 2 0 2\ngen eta2\nstem 3 0 24\ngen nu\n"

# (label, table text from the bundled one) for each message the line edits
# never produce.
HAND_MADE = [
    ("gamma k=1 without a stabilization",
     _replace("gen eta_2\nsusp 1\nstab 1 1\n", "gen eta_2\nsusp 1\ngamma 1 1 1\n")),
    ("gamma k=1 disagreeing with the stabilization",
     _replace("gen eta_2\nsusp 1\nstab 1 1\n", "gen eta_2\nsusp 1\nstab 1 1\ngamma 1 1 0\n")),
    ("h_K product degree beyond the stems",
     lambda text: _SMALL + "group 3 2 1\ngen eta_2\nstab 1 1\n"),
    ("no stem generator eta", _rename("eta", "eta1")),
    ("no stem generator nu", _rename("nu", "nu1")),
    ("odd-q antip row off the identity on a generator without a stab row",
     _replace("gen nu_p\nsusp 0,1\nstab 3 2\ngamma 2 1 1\nantip 1\n",
              "gen nu_p\nsusp 0,1\ngamma 2 1 1\nantip 5\n")),
    ("no stems, so no class two", lambda text: "group 3 2 1\ngen eta_2\n"),
    ("registered name whiteheadX", _add_name("name whiteheadX 6 3 1")),
    ("registered name whitehead", _add_name("name whitehead 6 3 1")),
    ("registered name whitehead٣", _add_name("name whitehead٣ 6 3 1")),
    ("registered name whitehead+3", _add_name("name whitehead+3 6 3 1")),
    ("registered name whitehead03", _add_name("name whitehead03 5 3 0")),
]


def sweep(text: str) -> list[tuple[str, str]]:
    """(label, table text) for every table of the sweep, in dump order."""
    lines = text.splitlines()

    def with_line(index, replacement):
        edited = lines[:index] + replacement + lines[index + 1:]
        return "\n".join(edited) + "\n"

    out = [("bundled", text)]
    out += [(f"delete line {i + 1}: {line}", with_line(i, [])) for i, line in enumerate(lines)]
    for i, line in enumerate(lines):
        if line.split(" ", 1)[0] in _SHIFTED:
            for match in _FIELD.finditer(line):
                for step in (-1, 1):
                    start, end = match.span()
                    new = f"{line[:start]}{int(match.group()) + step}{line[end:]}"
                    out.append((f"line {i + 1}: {line} => {new}", with_line(i, [new])))
    out += [(label, edit(text)) for label, edit in HAND_MADE]
    return out


def _entry(label: str, text: str) -> str:
    head = f"== {label}\n"
    try:
        tables = SphereTables(parse_tables(text))
    except (ParseError, SchemaError) as exc:
        return f"{head}load error: {type(exc).__name__}: {exc}\n"
    try:
        report = tables.validate()
    except Exception as exc:  # the dump records which tables make validate() raise
        return f"{head}validate raises {type(exc).__name__}: {exc}\n"
    if report.ok:
        return f"{head}ok\n"
    return head + "".join(f"{v}\n" for v in report.violations)


def validate_dump() -> str:
    return "".join(_entry(label, text) for label, text in sweep(default_table_text()))


def test_validate_dump_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    assert golden.count("\n== ") + 1 == len(sweep(default_table_text()))
    assert validate_dump() == golden


if __name__ == "__main__":
    dump = validate_dump()
    if sys.argv[1:] == ["--write"]:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(dump)
    else:
        sys.stdout.write(dump)
