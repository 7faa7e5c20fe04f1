"""The benchmark's pinned outputs hold for the engine.

``perfbench/workloads.py`` checks every pass against pinned table digests
and report payloads; an engine change that moves one of them fails every
benchmark run.  The workload module is loaded by path and only read (the
``workloads`` fixture in ``conftest.py``): its own functions compute the
outputs, and the pins are compared here.
"""


def test_torus_tables_match_their_pins(workloads):
    assert workloads.TORUS_TABLES
    for label, p, q, max_i, pin in workloads.TORUS_TABLES:
        assert workloads.sha256(workloads.torus_table_text(p, q, max_i)) == pin, label


def test_corner_group_report_matches_its_pin(workloads):
    assert workloads.corner_group_payload() == workloads.CORNER_GROUP_REPORT


def test_les_triangle_report_matches_its_pin(workloads):
    assert workloads.les_triangle_payload() == workloads.LES_TRIANGLE_REPORT
