"""Recompute and check the pinned outputs of the benchmark.

    python3 perfbench/pins.py

Every pinned table is checked against the bracket before its digest is
trusted: a full table must have graded Euler characteristic equal to the
Jones polynomial from the state sum.  A truncated table is checked as the
restriction of the full table, which passes that check.  The full T(4,5)
table takes a few minutes.  Exits 1 if any check fails or any pin differs.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from khoma.diagram import torus_word  # noqa: E402
from khoma.invariants import graded_euler, jones_from_bracket  # noqa: E402


def _euler_ok(p: int, q: int, table) -> bool:
    return graded_euler(table) == jones_from_bracket(torus_word(p, q))


def main() -> int:
    ok = True
    for label, p, q, max_i, pin in workloads.TORUS_TABLES:
        text = workloads.torus_table_text(p, q, max_i)
        digest = workloads.sha256(text)
        table = workloads.khoma.cli.table_from_json(json.loads(text))
        if max_i is None:
            checked = _euler_ok(p, q, table)
        else:
            full = workloads.HOMOLOGY.homology(torus_word(p, q))
            checked = _euler_ok(p, q, full) and table.groups == {
                key: g for key, g in full.groups.items() if key[0] <= max_i
            }
        print(f"{label}: sha256 {digest} pinned={digest == pin} euler_check={checked}")
        ok = ok and digest == pin and checked
    for label, produce, pin in (
        ("corner_group", workloads.corner_group_payload, workloads.CORNER_GROUP_REPORT),
        ("les_triangle", workloads.les_triangle_payload, workloads.LES_TRIANGLE_REPORT),
    ):
        text = workloads.canonical_json(produce())
        pinned = text == workloads.canonical_json(pin)
        print(f"{label}: {text} pinned={pinned}")
        ok = ok and pinned
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
