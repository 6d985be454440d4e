"""README's "Command line" section stays true: every example command in it
exits 0, and every expression fault it quotes reads as quoted.  Its account
of CI names every step of the workflow."""

import os
import re
import shlex
import sys

import pytest

from coincalc.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _section():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


SECTION = _section()
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in re.search(r"```sh\n(.*?)```", SECTION, re.S).group(1).splitlines()
    if line.startswith("coincalc ")
]
# (expression, message) of each "`EXPR` gives `MESSAGE`" in the section.
FAULTS = re.findall(r"`([^`]+)` gives\s+`([^`]+)`", SECTION)


def test_section_is_read():
    assert len(COMMANDS) == 11
    assert {"+eta_2", "whitehead(", "9999*<4,300 nines>"} <= {expr for expr, _ in FAULTS}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_example_command_exits_0(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("expr, message", FAULTS, ids=[expr for expr, _ in FAULTS])
def test_quoted_expression_fault(capsys, expr, message):
    # "<N nines>" stands for N nines; each expression is read in pi_3(S^3),
    # the lift group of CP(1) at m = 3, where a bare integer is a degree.
    text = re.sub(r"<([0-9,]+) nines>", lambda n: "9" * int(n.group(1).replace(",", "")), expr)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["nielsen", "--field", "C", "--nprime", "1", "--m", "3",
                     "--f1", text, "--f2", "zero"])
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1


def test_ci_paragraph_names_every_step():
    # Each step after "Install" in the workflow is named, word for word, in
    # README's account of CI, so a new step cannot go undocumented.
    with open(os.path.join(os.path.dirname(README), ".github", "workflows", "tests.yml"),
              encoding="utf-8") as fh:
        steps = re.findall(r"^\s+- name: (.+)$", fh.read(), re.M)
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    ci = text.split("\nCI (`.github/workflows/tests.yml`)", 1)[1].split("\n## ", 1)[0]
    ci = " ".join(ci.split())
    after_install = steps[steps.index("Install") + 1:]
    assert len(after_install) >= 4
    assert [step for step in after_install if f'"{step}"' not in ci] == []
