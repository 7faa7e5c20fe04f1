"""Smoke test of ``tools/reach.py``, the fresh-interpreter timing tool."""

import importlib.util
import json
import os
import subprocess
import sys

from khoma.diagram import torus_word
from khoma.homology import homology

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REACH = os.path.join(ROOT, "tools", "reach.py")


def reach(*argv):
    return subprocess.run(
        [sys.executable, REACH, *argv], capture_output=True, text=True, timeout=120
    )


def test_reach_prints_one_json_line_per_row():
    out = reach("T(2,3)", "T(2,3) max_i=1", "T(3,9)", "--max-crossings", "16")
    assert out.returncode == 0, out.stderr
    full, truncated, refused = (json.loads(line) for line in out.stdout.splitlines())

    spec = importlib.util.spec_from_file_location("reach_tool", REACH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert full["sha256"] == tool.digest(homology(torus_word(2, 3)))
    assert truncated["sha256"] == tool.digest(homology(torus_word(2, 3), max_i=1))
    assert (full["groups"], truncated["groups"]) == (5, 2)
    for row in (full, truncated):
        assert row["wall_s"] >= 0 and row["maxrss_mib"] > 0
        assert row["worker_maxrss_mib"] == 0  # jobs=1 starts no worker
    assert refused == {
        "row": "T(3,9)",
        "max_crossings": 16,
        "refused": "word has 18 crossings, limit is 16",
    }


def test_reach_refuses_a_malformed_row():
    out = reach("T(2,3) jobs=x", "--max-crossings", "16")
    assert out.returncode == 2 and "not a row" in out.stderr
