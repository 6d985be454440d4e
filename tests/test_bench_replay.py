"""The benchmark's recorded in-process outcomes hold on this tree.

Each report_sweep, scan_sweep and table_curation record of
perfbench/expected.json is replayed through perfbench/workloads.py's own
operations, so a change that a benchmark run would call `incorrect` fails
here first.  Both files are read, never changed.  The cli_oneshot records
need one process per call and stay with the benchmark.
"""

import importlib.util
import os

import pytest

import coincalc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _workloads():
    """perfbench/workloads.py, loaded from its file: perfbench is no package."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = _workloads()
EXPECTED = wl.load_expected()


@pytest.fixture(scope="module")
def table_lines():
    with open(os.path.join(ROOT, wl.TABLE_FILE), encoding="utf-8") as fh:
        text = fh.read()
    assert wl.sha256(text) == EXPECTED["table_sha256"]
    return text.splitlines()


def _misses(pairs) -> list:
    """The (record, got) pairs whose outcome is not the recorded one."""
    return [(item, got) for item, got in pairs if got != item["expect"]]


def test_report_sweep_records():
    tables = coincalc.load_default_tables()
    items = EXPECTED["report_sweep"]
    assert len(items) > 1000
    assert _misses((item, wl.report_op(coincalc, tables, item)) for item in items) == []


def test_scan_sweep_records():
    # One scan on a fresh table each, then all of them on one shared table.
    raw, items = coincalc.load_default_tables().raw, EXPECTED["scan_sweep"]
    assert len(items) > 100
    fresh = ((item, wl.scan_op(coincalc, coincalc.SphereTables(raw), item)) for item in items)
    assert _misses(fresh) == []
    shared = coincalc.SphereTables(raw)
    assert _misses((item, wl.scan_op(coincalc, shared, item)) for item in items) == []


def test_table_curation_records(table_lines):
    items = EXPECTED["table_curation"]
    assert len(items) > 200 and any(item["edit"] is None for item in items)
    pairs = ((item, wl.curation_op(coincalc, wl.variant_text(table_lines, item["edit"])))
             for item in items)
    assert _misses(pairs) == []
