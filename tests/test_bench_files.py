"""Every BENCH_*.json at the repository root stays comparable with the others.

A BENCH file records one measurement of the benchmark that BENCHMARK.json
declares: the commit and the Python version it was taken at, the end-to-end
metrics of each workload for the parent and the change, and one `--trace 1`
object.  It may name only the metrics BENCHMARK.json lists; a counter that
reads 0 by design is listed as absent, never given as 0.
"""

import glob
import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}
FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_a_bench_file_exists():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_bench_file_names_only_declared_metrics(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert re.fullmatch(r"[0-9a-f]{40}", doc["commit"])
    assert re.fullmatch(r"3\.[0-9]+\.[0-9]+", doc["python"])
    assert doc["conditions"].startswith(f"conditions: python {doc['python']}")
    assert doc["end_to_end"] and set(doc["end_to_end"]) <= WORKLOADS
    for runs in doc["end_to_end"].values():
        for side in ("parent", "change"):
            assert set(runs[side]) <= END_TO_END
            for summary in runs[side].values():
                assert summary["q1"] <= summary["median"] <= summary["q3"]
    trace = doc["trace"]
    assert trace["correct"] is True
    metrics, absent = set(trace["metrics"]), set(trace["absent"])
    assert metrics and not metrics & absent
    assert metrics | absent <= END_TO_END | PER_LAYER
