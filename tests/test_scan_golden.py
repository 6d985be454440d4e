"""Every equivalence scan of the tabulated range, against a recorded dump.

The dump covers R n' <= 12, C n' <= 6, H n' <= 4 and 1 <= m <= 21 (462
queries): the pattern, each verdict with its witness text and nz_vanishes,
or the error class and message of a query that raises.  Each query is asked
twice on one SphereTables (the second answer comes from the memoized chain)
and once on a fresh one; all three dumps must equal the file byte for byte.

Regenerate the file, after a deliberate change of an answer, with
    PYTHONPATH=src python tests/test_scan_golden.py --write
"""

import os
import sys

from coincalc import spheres, tables as tables_module
from coincalc.fgab import Subgroup
from coincalc.invariants import SCAN_KEYS, equivalence_scan
from coincalc.projective import space
from coincalc.spheres import SphereTables
from coincalc.tables import SphereEntry

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scan_all.txt")

QUERIES = [
    (tag, n_prime, m)
    for tag, top in (("R", 12), ("C", 6), ("H", 4))
    for n_prime in range(1, top + 1)
    for m in range(1, 22)
]


def _entry(tables: SphereTables, tag: str, n_prime: int, m: int) -> str:
    head = f"{tag} {n_prime} m={m}:"
    try:
        res = equivalence_scan(tables, space(tag, n_prime), m)
    except Exception as exc:  # the dump records which queries raise, and how
        return f"{head} raises {type(exc).__name__}: {exc}\n"
    lines = [f"{head} {res.pattern()}"]
    for key in SCAN_KEYS:
        verdict, witness = res.verdicts[key]
        lines.append(f"  {key}: {verdict.value} | {witness}")
    lines.append(f"  nz_vanishes: {res.nz_vanishes}")
    return "\n".join(lines) + "\n"


def scan_dumps(tables: SphereTables) -> tuple[str, str, str]:
    """(first pass, memoized second pass, fresh SphereTables per query)."""
    shared = SphereTables(tables.raw)
    first = "".join(_entry(shared, *q) for q in QUERIES)
    again = "".join(_entry(shared, *q) for q in QUERIES)
    fresh = "".join(_entry(SphereTables(tables.raw), *q) for q in QUERIES)
    return first, again, fresh


def _golden() -> str:
    with open(GOLDEN, encoding="utf-8") as fh:
        return fh.read()


def test_scan_dump_matches_golden(tables):
    golden = _golden()
    assert golden.count(" m=") == len(QUERIES) == 462
    first, again, fresh = scan_dumps(tables)
    assert first == golden, "first-pass scan dump differs from the golden file"
    assert again == golden, "memoized scan dump differs from the golden file"
    assert fresh == golden, "fresh-table scan dump differs from the golden file"


def test_table_free_values_are_built_once_per_process(tables, monkeypatch):
    """A second fresh SphereTables builds no closed-form entry, no whole or
    trivial subgroup and no kernel chain, and shares no map columns, Gamma
    record or suspension image with the first."""
    built = {"entry": 0, "trivial": 0, "whole": 0, "chain": 0}

    def counting(kind, build):
        def counted(*args, **kwargs):
            built[kind] += 1
            return build(*args, **kwargs)
        return counted

    monkeypatch.setattr(SphereEntry, "__init__", counting("entry", SphereEntry.__init__))
    monkeypatch.setattr(SphereTables, "_build_chain", counting("chain", SphereTables._build_chain))
    for module, memo in ((tables_module, "_CLOSED_FORMS"), (spheres, "_RINGS")):
        monkeypatch.setattr(module, memo, {})
    for kind in ("trivial", "whole"):
        monkeypatch.setattr(Subgroup, kind, counting(kind, getattr(Subgroup, kind)))
    sessions, dumps = [], []
    for run in range(2):
        sessions.append(SphereTables(tables.raw))
        dumps.append("".join(_entry(sessions[-1], *q) for q in QUERIES))
        if run == 0:
            assert all(built.values()), built
            built.update(entry=0, trivial=0, whole=0, chain=0)
    assert built == {"entry": 0, "trivial": 0, "whole": 0, "chain": 0}
    assert dumps[0] == dumps[1] == _golden()
    first, second = sessions
    for memo in ("_maps", "_gammas", "_susp_images"):
        assert not set(map(id, getattr(first, memo).values())) & set(
            map(id, getattr(second, memo).values())), memo


if __name__ == "__main__":
    from coincalc import load_default_tables

    dump = scan_dumps(load_default_tables())[0]
    if sys.argv[1:] == ["--write"]:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(dump)
    else:
        sys.stdout.write(dump)
