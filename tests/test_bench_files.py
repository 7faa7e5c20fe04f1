"""Committed benchmark records: every ``BENCH_*.json`` at the root parses and
has the top-level keys of the first one, ``BENCH_16.json``."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEYS = {"title", "claim", "protocol", "src_lines", "table_digests", "workloads"}
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_bench_files_exist():
    assert os.path.join(ROOT, "BENCH_16.json") in BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_has_the_common_keys(path):
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    assert isinstance(record, dict)
    assert KEYS <= set(record), sorted(KEYS - set(record))
