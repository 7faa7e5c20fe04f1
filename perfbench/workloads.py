"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload is a list of items.  A pass runs each item once, times it,
and checks its output against something that shares no code with the step
being timed: a pinned digest or payload, or the Kauffman bracket.  The item
latencies that ``item_p50_s`` and ``item_p90_s`` summarize are those of one
kind of item, so that every sample measures the same kind of work: every
word of ``random_braids``, the T(3,6) table of ``torus_table``, and the one
check of ``corner_group`` and ``les_triangle``.  Library
entry points are looked up on their modules at call time, so the wrappers
that ``layertrace`` installs are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import khoma.cli
import khoma.invariants
import khoma.verify
from khoma.diagram import parse_word, torus_word

HOMOLOGY = sys.modules["khoma.homology"]  # ``khoma.homology`` is the function

# sha256 of ``json.dumps(table_to_json(table, diagram), sort_keys=True)``,
# the CLI's ``--format json`` output.  ``perfbench/pins.py`` recomputes them
# and checks Euler = bracket Jones on the full tables before they are pinned.
TORUS_TABLES = (
    # (label, p, q, max_i, sha256); the first is the latency item
    ("T(3,6)", 3, 6, None, "e23b7543b191a7bad5015116bad915e49e4b47a34435ab7a7f41fa39352b5b72"),
    ("T(4,5) max_i=4", 4, 5, 4, "c81a75e779680a49724db5b581222fc1c4e07b956e8738901cedc1cbac51feb8"),
)

# report payloads of check_conjecture1(4) and check_les(T(3,4), 4)
CORNER_GROUP_REPORT = {
    "claim": "conj1",
    "params": {"p": 4},
    "verdict": "pass",
    "witness": {"delta_pair": [7, 13], "i": 6, "j": 4, "rank": 1, "width_at_least": 4},
}
LES_TRIANGLE_REPORT = {
    "claim": "les",
    "params": {"crossing": 4, "strands": 3, "word": "1 2 1 2 1 2 1 2"},
    "verdict": "pass",
    "witness": {"failures": []},
}

BRAID_ITEMS = 100
BRAID_REPEATS = 25
BRAID_CROSSINGS = 8
BRAID_STRANDS = (3, 4, 5)


def braid_words(seed: int) -> list[str]:
    """The ``random_braids`` stream: 100 words, 25 of them repeats.

    The 75 distinct words split evenly over 3, 4 and 5 strands.  Each has 8
    crossings of both signs and uses every generator, so its closure needs
    exactly that many strands and the CLI infers the same strand count.  The
    repeat slots and which earlier word each one repeats come from the seed.
    """
    rng = random.Random(seed)
    distinct_count = BRAID_ITEMS - BRAID_REPEATS
    strands = [BRAID_STRANDS[k % len(BRAID_STRANDS)] for k in range(distinct_count)]
    rng.shuffle(strands)
    distinct: list[str] = []
    seen: set[str] = set()
    for n in strands:
        while True:
            letters = [
                rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(BRAID_CROSSINGS)
            ]
            if (
                {abs(x) for x in letters} == set(range(1, n))
                and min(letters) < 0 < max(letters)
            ):
                word = " ".join(str(x) for x in letters)
                if word not in seen:
                    break
        seen.add(word)
        distinct.append(word)
    repeat_slots = set(rng.sample(range(1, BRAID_ITEMS), BRAID_REPEATS))
    words: list[str] = []
    fresh = iter(distinct)
    for slot in range(BRAID_ITEMS):
        if slot in repeat_slots:
            words.append(rng.choice(words))
        else:
            words.append(next(fresh))
    return words


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def torus_table_text(p: int, q: int, max_i) -> str:
    """The normalized table of T(p, q) as the CLI prints it in JSON."""
    table = HOMOLOGY.homology(torus_word(p, q), max_i=max_i)
    return canonical_json(
        khoma.cli.table_to_json(table, {"kind": "torus", "p": p, "q": q})
    )


def euler_matches_bracket(word_text: str, output: str) -> bool:
    """Graded Euler characteristic of a printed table = bracket Jones."""
    table = khoma.cli.table_from_json(json.loads(output))
    euler = khoma.invariants.graded_euler(table)
    return euler == khoma.invariants.jones_from_bracket(parse_word(word_text))


@dataclass
class PassResult:
    wall_s: float = 0.0  # reported pass time
    measured_s: float = 0.0  # wall-clock pass time
    reference_s: float = 0.0  # median reference loop time during the pass
    item_s: list[float] = field(default_factory=list)  # latency samples
    attempted: int = 0
    failed: int = 0
    digest: str = ""


def _timed(result: PassResult, digest, check, sample: bool = True) -> None:
    """Run one item and count it as failed unless ``check`` passes; with
    ``sample``, its time is a latency sample."""
    result.attempted += 1
    started = perf_counter()
    try:
        ok, output = check()
    except Exception as err:  # any crash is a failed item, not a dead run
        print(f"item error: {err!r}", file=sys.stderr)
        ok, output = False, repr(err)
    if sample:
        result.item_s.append(perf_counter() - started)
    digest.update(output.encode("utf-8"))
    if not ok:
        result.failed += 1


def run_torus_table(_inputs, _workdir) -> PassResult:
    result, digest = PassResult(), hashlib.sha256()
    for k, (_label, p, q, max_i, pin) in enumerate(TORUS_TABLES):

        def item(p=p, q=q, max_i=max_i, pin=pin):
            text = torus_table_text(p, q, max_i)
            return sha256(text) == pin, text

        _timed(result, digest, item, sample=k == 0)
    result.digest = digest.hexdigest()
    return result


def corner_group_payload() -> dict:
    return khoma.verify.check_conjecture1(4).to_json()


def les_triangle_payload() -> dict:
    return khoma.verify.check_les(torus_word(3, 4), 4).to_json()


def _report_pass(produce, pin: dict) -> PassResult:
    result, digest = PassResult(), hashlib.sha256()

    def item():
        text = canonical_json(produce())
        return text == canonical_json(pin), text

    _timed(result, digest, item)
    result.digest = digest.hexdigest()
    return result


def run_corner_group(_inputs, _workdir) -> PassResult:
    return _report_pass(corner_group_payload, CORNER_GROUP_REPORT)


def run_les_triangle(_inputs, _workdir) -> PassResult:
    return _report_pass(les_triangle_payload, LES_TRIANGLE_REPORT)


def cli_homology(word_text: str, cache_dir: str) -> tuple[int, str]:
    """``khoma homology --braid W --format json`` in-process: (exit, stdout)."""
    out = io.StringIO()
    argv = ["homology", "--braid", word_text, "--format", "json", "--cache-dir", cache_dir]
    with contextlib.redirect_stdout(out):
        try:
            code = khoma.cli.main(argv)
        except SystemExit as exit_:  # argparse rejects bad arguments this way
            code = exit_.code if isinstance(exit_.code, int) else 2
    return code, out.getvalue()


def run_random_braids(words, workdir) -> PassResult:
    """One closed-loop pass over the stream with a cache that starts empty."""
    result, digest = PassResult(), hashlib.sha256()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        for word_text in words:

            def item(word_text=word_text):
                code, output = cli_homology(word_text, cache_dir)
                return code == 0 and euler_matches_bracket(word_text, output), output

            _timed(result, digest, item)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    result.digest = digest.hexdigest()
    return result


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], object]  # seed -> inputs handed to every pass
    run_pass: Callable[[object, str], PassResult]  # (inputs, workdir) -> result


WORKLOADS = {
    "torus_table": Workload(lambda seed: None, run_torus_table),
    "random_braids": Workload(braid_words, run_random_braids),
    "corner_group": Workload(lambda seed: None, run_corner_group),
    "les_triangle": Workload(lambda seed: None, run_les_triangle),
}
