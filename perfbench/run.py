"""Run one khoma benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the ``src`` directory next to
``perfbench``.  With ``--trace 0`` the workload runs untraced, pass after
pass, for about ``--seconds`` seconds, and the end-to-end metrics are printed;
``wall_s`` and the item latencies are in reference seconds (``speed.py``).
With ``--trace 1`` one untraced pass is followed by one traced pass, and the
per-layer metrics are printed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the run record (Python version, nproc, commit, ``src``
line count, output digest).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("torus_table", "random_braids", "corner_group", "les_triangle")
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description="khoma benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true", help=argparse.SUPPRESS
    )  # child mode: import khoma, make the inputs, exit
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation between closest ranks (inclusive)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def measure_setup(args) -> list[float]:
    """Wall seconds of fresh interpreters that import khoma and make the inputs.

    These stay in measured seconds: a reference loop timed next to a probe
    of a fifth of a second did not follow the probe's speed (``speed.py``).
    """
    argv = [
        sys.executable, os.path.abspath(__file__), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - started)
    return samples


def commit_id():
    """HEAD of a git checkout at the root, read from files; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "khoma")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def timed_pass(workload, inputs, workdir):
    started = perf_counter()
    result = workload.run_pass(inputs, workdir)
    result.wall_s = result.measured_s = perf_counter() - started
    return result


def probed_pass(workload, inputs, workdir):
    """A pass with its wall time and item latencies in reference seconds."""
    with speed.SpeedProbe() as probe:
        result = timed_pass(workload, inputs, workdir)
    scale = probe.scale(result.measured_s)
    result.wall_s *= scale
    result.item_s = [s * scale for s in result.item_s]
    result.reference_s = statistics.median(probe.samples)
    return result


def run_untraced(workload, inputs, workdir, seconds: float) -> list:
    """Passes back to back while the next one is expected to end in time."""
    passes = []
    started = perf_counter()
    while True:
        passes.append(probed_pass(workload, inputs, workdir))
        typical = statistics.median(p.measured_s for p in passes)
        if perf_counter() - started + typical > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "khoma", "__init__.py")):
        print(f"error: no khoma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.probe_setup:
        workload.make_inputs(args.seed)
        return 0

    setup_samples = measure_setup(args)
    inputs = workload.make_inputs(args.seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.trace:
            import layertrace

            untraced = timed_pass(workload, inputs, workdir)
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                traced = timed_pass(workload, inputs, workdir)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
            metrics = tracer.metrics(traced.wall_s, untraced.wall_s)
        else:
            passes = run_untraced(workload, inputs, workdir, args.seconds)
            items = [s for p in passes for s in p.item_s]
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
                "item_p50_s": {"value": percentile(items, 0.5), "unit": "s"},
                "item_p90_s": {"value": percentile(items, 0.9), "unit": "s"},
                "peak_rss_mib": {"value": peak_kib / 1024 - speed.footprint_mib(), "unit": "MiB"},
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_measured_s": [p.measured_s for p in passes],
        "pass_reference_s": [p.reference_s for p in passes],
        "setup_samples_s": setup_samples,
        "reference_table_mib": speed.footprint_mib(),
        "digests": sorted({p.digest for p in passes}),
        "fail_ratio": failed / attempted,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "src_lines": src_lines(),
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0 and len(record["digests"]) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
