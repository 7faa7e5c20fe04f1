"""Committed benchmark records: every ``BENCH_*.json`` at the root parses,
has the top-level keys of the first one, ``BENCH_16.json``, and names only
workloads and metrics that ``BENCHMARK.json`` declares."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEYS = {"title", "claim", "protocol", "src_lines", "table_digests", "workloads"}
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_bench_files_exist():
    assert os.path.join(ROOT, "BENCH_16.json") in BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_has_the_common_keys(path):
    record = load(path)
    assert isinstance(record, dict)
    assert KEYS <= set(record), sorted(KEYS - set(record))


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_names_declared_workloads_and_metrics(path):
    declared = load(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    record = load(path)
    assert record["claim"]["workload"] in workloads
    assert record["claim"]["metric"] in metrics
    assert set(record["workloads"]) <= workloads, sorted(set(record["workloads"]) - workloads)
