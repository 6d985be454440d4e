"""Operations of the four benchmark workloads and how their outcomes are read.

Both the timed runner (run.py) and the recorder of expected outcomes
(record.py) execute operations through these functions, so a recorded
outcome and a measured one are produced by the same code.  Outcomes hold
only values (the seven invariants, scan patterns, exit codes, violation
paths), never derivation text, so rewording a derivation is not a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

WORKLOADS = ("cli_oneshot", "report_sweep", "scan_sweep", "table_curation")

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_FILE = os.path.join(HERE, "expected.json")
TABLE_FILE = os.path.join("src", "coincalc", "data", "homotopy_tables.txt")

# The documented contract for bad input and out-of-range queries.
CONTRACT_BAD_INPUT = {"exit": 2}
TRACEBACK_MARK = "Traceback (most recent call last)"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ reference


class _Entry:
    """A small record, like the group elements and table entries coincalc builds."""

    __slots__ = ("key", "coeffs")

    def __init__(self, key, coeffs):
        self.key = key
        self.coeffs = coeffs


_REF_MATRIX = tuple(tuple((3 * i + 5 * j + i * j) % 13 - 6 for j in range(5)) for i in range(5))


def reference_work() -> int:
    """A fixed pure-Python loop that uses no coincalc code.

    Its time, measured next to the operations, is the unit of every
    in-process latency ratio: it moves with the host's speed but not with
    any change to coincalc.  It mixes the kinds of work coincalc does: small
    integer row elimination, short-lived records, tuples and dict lookups.
    """
    total = 0
    for _ in range(6):
        rows = [list(r) for r in _REF_MATRIX]
        for k in range(len(rows)):
            pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
            if pivot is None:
                continue
            rows[k], rows[pivot] = rows[pivot], rows[k]
            for r in range(k + 1, len(rows)):
                a, b = rows[k][k], rows[r][k]
                rows[r] = [(x * a - y * b) % 9973 for x, y in zip(rows[r], rows[k])]
        index = {}
        for i, row in enumerate(rows):
            entry = _Entry((i, i % 3), tuple(row))
            index[entry.key] = entry
        total += sum(sum(e.coeffs) for e in index.values()) + len(index)
    return total


# ------------------------------------------------------- report_sweep


def encode_values(report) -> str:
    """The seven invariants of a report as 'R,MC,MCC,N#,N~,N,NZ'."""
    return ",".join(v.short() for v in report.values().values())


def report_op(cc, tables, item) -> str:
    """One library question: build both classes, then ask for the report."""
    m, q = item["m"], item["q"]
    f1 = tables.cls(m, q, item["f1"])
    f2 = tables.cls(m, q, item["f2"])
    if item["kind"] == "S":
        rep = cc.sphere_report(tables, m, q, f1, f2)
    else:
        sp = cc.space(item["K"], item["np"])
        rep = cc.projective_report(tables, sp, m, f1, f2)
    return encode_values(rep)


# --------------------------------------------------------- scan_sweep


def scan_op(cc, tables, item) -> str:
    """One equivalence scan: its pattern, or the error class it raises."""
    sp = cc.space(item["K"], item["np"])
    try:
        return cc.equivalence_scan(tables, sp, item["m"]).pattern()
    except cc.TableError as exc:
        return "!" + type(exc).__name__


# ----------------------------------------------------- table_curation


def variant_text(lines: list[str], edit) -> str:
    """The bundled table text with one line dropped or replaced."""
    if edit is None:
        return "\n".join(lines) + "\n"
    index, replacement = edit
    out = list(lines)
    if replacement is None:
        del out[index]
    else:
        out[index] = replacement
    return "\n".join(out) + "\n"


def curation_op(cc, text: str) -> dict:
    """parse -> SphereTables -> validate -> serialize on a fresh table."""
    try:
        raw = cc.parse_tables(text)
    except cc.ParseError as exc:
        return {"error": "ParseError", "line": exc.line}
    except cc.SchemaError as exc:
        return {"error": "SchemaError", "path": exc.path}
    report = cc.SphereTables(raw).validate()
    serialized = cc.serialize_tables(raw)
    return {
        "violations": sorted(v.path for v in report.violations),
        "serialized_sha256": sha256(serialized),
    }


# --------------------------------------------------------- cli_oneshot

_VALUE_LINE = re.compile(r"^\s+(R|MC|MCC|N#|N~|N|NZ) = (\S+)", re.M)
_SHORT = {"infinite": "inf", "unknown": "?"}


def _short(token) -> str:
    if isinstance(token, dict):
        return "?"
    token = str(token)
    return _SHORT.get(token, token)


def _text_reports(stdout: str) -> list[str]:
    values = [_short(v) for _name, v in _VALUE_LINE.findall(stdout)]
    return [",".join(values[i : i + 7]) for i in range(0, len(values), 7)]


def _json_report(doc: dict) -> str:
    return ",".join(_short(v) for v in doc["values"].values())


def _first(regex: str, text: str):
    match = re.search(regex, text)
    return match.group(1) if match else None


def cli_values(argv: list[str], stdout: str):
    """The values a CLI call printed, independent of the wording around them."""
    sub = next(a for a in argv if not a.startswith("-"))
    machine = "--machine" in argv
    if sub in ("pi", "stems"):
        return stdout.splitlines()[0] if stdout else None
    if sub == "nielsen":
        if machine:
            return _json_report(json.loads(stdout))
        reports = _text_reports(stdout)
        return reports[0] if len(reports) == 1 else reports
    if sub == "compare":
        if machine:
            return [row["pattern"] for row in json.loads(stdout)["rows"]]
        return [line.split(": ", 1)[1] for line in stdout.splitlines()]
    if sub == "witnesses":
        if machine:
            return [_json_report(d["report"]) for d in json.loads(stdout)]
        return _text_reports(stdout)
    if sub == "selfloose":
        if machine:
            return json.loads(stdout)["verdict"]
        return _first(r": (loose|not loose|unknown) \(", stdout)
    if sub == "verify-s":
        return _first(r"residual = (\S+)", stdout) or _first(r"smallest (\S+)\)", stdout)
    if sub == "wecken":
        if machine:
            doc = json.loads(stdout)
            witness = doc.get("witness")
            return [doc["status"], _json_report(witness) if witness else None]
        reports = _text_reports(stdout)
        return [_first(r"m = -?\d+: (\w+) \(", stdout), reports[0] if reports else None]
    if sub == "validate-data":
        return _first(r"(\d+) violation", stdout)
    raise ValueError(f"unknown subcommand in {argv!r}")


def cli_outcome(argv: list[str], code: int, stdout: str, stderr: str, bad: bool) -> dict:
    """What a CLI call produced, in the form expected outcomes are recorded.

    Bad input is judged by exit code and the absence of a traceback only;
    a valid call also by the values it printed.
    """
    out = {"exit": code}
    if TRACEBACK_MARK in stderr or TRACEBACK_MARK in stdout:
        out["traceback"] = True
    if not bad and code in (0, 1) and "traceback" not in out:
        try:
            out["values"] = cli_values(argv, stdout)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            out["values"] = f"unreadable output: {type(exc).__name__}"
    return out
