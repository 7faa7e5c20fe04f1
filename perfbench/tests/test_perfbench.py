"""Tests of the benchmark itself: inputs, correctness gate, tracing, speed
sampling, exit codes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import pytest

import _oracle as oracle
import khoma.cli
import khoma.zalgebra
import layertrace
import speed
import workloads
from khoma.diagram import parse_word

HOMOLOGY = sys.modules["khoma.homology"]
PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_braid_stream_is_a_function_of_the_seed():
    assert workloads.braid_words(7) == workloads.braid_words(7)
    assert workloads.braid_words(7) != workloads.braid_words(8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_braid_stream_shape(seed):
    words = workloads.braid_words(seed)
    assert len(words) == 100
    distinct = set(words)
    assert len(distinct) == 75
    first_seen = {w: words.index(w) for w in distinct}
    assert sum(1 for k, w in enumerate(words) if first_seen[w] < k) == 25
    strands = Counter()
    for text in distinct:
        letters = [int(x) for x in text.split()]
        word = parse_word(text)
        assert word.crossing_count == 8
        assert min(letters) < 0 < max(letters)
        assert {abs(x) for x in letters} == set(range(1, word.strands))
        strands[word.strands] += 1
    assert strands == {3: 25, 4: 25, 5: 25}


def test_braid_sample_matches_the_oracle(tmp_path):
    # the oracle needs seconds per 8-crossing word, so one 3-strand word only
    text = next(w for w in workloads.braid_words(1) if parse_word(w).strands == 3)
    code, output = workloads.cli_homology(text, str(tmp_path))
    assert code == 0
    engine = {
        (g["i"], g["j"]): (g["rank"], tuple(g["torsion"]))
        for g in json.loads(output)["groups"]
    }
    assert engine == oracle.khovanov_normalized([int(x) for x in text.split()])


def _corrupt_first_rank(monkeypatch):
    original = khoma.cli.table_to_json

    def corrupted(table, diagram):
        payload = original(table, diagram)
        payload["groups"][0]["rank"] += 1
        return payload

    monkeypatch.setattr(khoma.cli, "table_to_json", corrupted)


def test_corrupted_braid_tables_fail(monkeypatch, tmp_path):
    words = ["1 -2 1 -2", "1 1 -2 1 -2", "1 -2 1 -2"]
    clean = workloads.run_random_braids(words, str(tmp_path))
    assert (clean.attempted, clean.failed) == (3, 0)
    _corrupt_first_rank(monkeypatch)
    corrupted = workloads.run_random_braids(words, str(tmp_path))
    assert (corrupted.attempted, corrupted.failed) == (3, 3)
    assert corrupted.digest != clean.digest


def test_corrupted_torus_table_fails_its_pin(monkeypatch):
    tables = tuple(
        (f"T(2,{q})", 2, q, None, workloads.sha256(workloads.torus_table_text(2, q, None)))
        for q in (5, 3)
    )
    monkeypatch.setattr(workloads, "TORUS_TABLES", tables)
    clean = workloads.run_torus_table(None, None)
    assert (clean.attempted, clean.failed, len(clean.item_s)) == (2, 0, 1)
    _corrupt_first_rank(monkeypatch)
    assert workloads.run_torus_table(None, None).failed == 2


def test_wrong_report_fails_its_pin():
    assert workloads._report_pass(lambda: {"verdict": "fail"}, {"verdict": "pass"}).failed == 1
    assert workloads._report_pass(lambda: {"verdict": "pass"}, {"verdict": "pass"}).failed == 0


def test_tracer_counts_layers_and_restores_every_binding():
    originals = (khoma.zalgebra.snf, HOMOLOGY.snf, HOMOLOGY.homology, khoma.cli.main)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert HOMOLOGY.snf is not originals[1]
        HOMOLOGY.homology(parse_word("1 1 1"))
    finally:
        tracer.uninstall()
    assert (khoma.zalgebra.snf, HOMOLOGY.snf, HOMOLOGY.homology, khoma.cli.main) == originals
    metrics = tracer.metrics(1.0, 1.0)
    assert set(metrics) == {name for name, _ in layertrace.LAYER_METRICS}
    assert metrics["zalgebra.snf.calls"]["value"] > 0
    assert metrics["diagram.circles.calls"]["value"] == 8  # 2^3 vertices
    assert metrics["zalgebra.rational.calls"]["value"] == 0
    assert metrics["zalgebra.snf.self_s"]["value"] > 0


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "les_triangle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_on_a_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        started = time.perf_counter()
        while time.perf_counter() - started < 5 * speed.INTERVAL_S:
            pass
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    scale = probe.scale(time.perf_counter() - started)
    assert scale == pytest.approx(
        speed.NOMINAL_S / statistics.median(probe.samples), rel=0.2
    )
