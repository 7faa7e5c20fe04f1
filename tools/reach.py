"""Time torus-knot tables, each in a fresh interpreter, one JSON line per row.

    python3 tools/reach.py "T(3,8)" "T(4,6) max_i=6 jobs=2" --max-crossings 18

A row is ``T(p,q)``, optionally followed by ``max_i=N`` (normalized
homological degree) and ``jobs=N``.  Each row runs ``khoma.homology`` in a
new Python process with an explicit ``--max-crossings`` and prints:

- ``wall_s``: wall seconds of the ``homology`` call alone;
- ``maxrss_mib``: peak RSS of that process;
- ``worker_maxrss_mib``: peak RSS of its largest worker (``RUSAGE_CHILDREN``,
  0 when ``jobs`` is 1);
- ``sha256``: digest of the sorted groups, so runs of two checkouts compare;
- ``groups``: the number of nontrivial groups.

A row over the budget prints ``refused`` with the message instead.  ``--src``
picks the ``src`` directory to import ``khoma`` from, by default the one next
to ``tools``, so one copy of this script can time two checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ROW = re.compile(r"T\((\d+),\s*(\d+)\)((?:\s+(?:max_i|jobs)=\d+)*)")


def parse_row(row: str) -> dict:
    """``T(p,q) max_i=N jobs=N`` as keyword arguments, refusing anything else."""
    match = ROW.fullmatch(row.strip())
    if not match:
        raise ValueError(f"not a row: {row!r}; expected 'T(p,q) [max_i=N] [jobs=N]'")
    options = dict(opt.split("=") for opt in match.group(3).split())
    return {
        "p": int(match.group(1)),
        "q": int(match.group(2)),
        "max_i": int(options["max_i"]) if "max_i" in options else None,
        "jobs": int(options.get("jobs", 1)),
    }


def digest(table) -> str:
    """sha256 of the sorted (i, j, rank, torsion) entries of a table."""
    entries = [[i, j, g.rank, list(g.torsion)] for (i, j), g in sorted(table.groups.items())]
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def measure(row: str, max_crossings: int) -> dict:
    """Compute one row in this process and report it."""
    from khoma.diagram import CrossingLimitError, torus_word
    from khoma.homology import homology

    args = parse_row(row)
    word = torus_word(args["p"], args["q"])
    record: dict = {"row": row, "max_crossings": max_crossings}
    start = perf_counter()
    try:
        table = homology(
            word, max_i=args["max_i"], jobs=args["jobs"], max_crossings=max_crossings
        )
    except CrossingLimitError as err:
        return {**record, "refused": str(err)}
    record["wall_s"] = round(perf_counter() - start, 3)
    for key, who in (
        ("maxrss_mib", resource.RUSAGE_SELF),
        ("worker_maxrss_mib", resource.RUSAGE_CHILDREN),
    ):
        record[key] = round(resource.getrusage(who).ru_maxrss / 1024, 1)  # KiB on Linux
    record.update(sha256=digest(table), groups=len(table.groups))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="+", help="rows such as 'T(3,8)' or 'T(4,6) max_i=6 jobs=2'")
    parser.add_argument("--max-crossings", type=int, required=True)
    parser.add_argument("--src", default=SRC, help="src directory to import khoma from")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # one row, in this fresh interpreter
        print(json.dumps(measure(args.rows[0], args.max_crossings)))
        return 0
    for row in args.rows:
        try:
            parse_row(row)
        except ValueError as err:
            parser.error(str(err))
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    for row in args.rows:
        command = [sys.executable, os.path.abspath(__file__), row, "--child"]
        command += ["--max-crossings", str(args.max_crossings)]
        out = subprocess.run(command, env=env, capture_output=True, text=True)
        if out.returncode:
            sys.stderr.write(out.stderr)
            return out.returncode
        print(out.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
