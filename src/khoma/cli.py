"""Command-line front end with machine-readable output and a result cache.

Subcommands: ``homology`` prints a bigraded table as text, JSON or CSV;
``jones`` prints the Jones polynomial through the bracket state sum, the
graded Euler characteristic of homology, or both (exiting nonzero if they
ever disagree); ``verify <claim>`` runs one of the named torus-knot checks
(``VERIFY_CLAIMS``, one subparser each) and emits a JSON-line report.

Exit codes: 0 success, 1 failed verification or polynomial mismatch,
2 argument errors, 3 crossing-budget refusals: every subcommand refuses a
``--torus`` or ``--braid`` diagram over ``--max-crossings``, while a check
over integer parameters reports an over-budget instance as skipped.

Computed tables can be cached on disk, keyed by a content hash of the
canonical word encoding, the engine version, a digest of the package's
sources and the computation mode; cache writes go through a temporary file
and an atomic rename, and unreadable or malformed entries are silently
recomputed and overwritten.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from typing import Callable, NamedTuple, Optional

from . import __version__
from .cube import DEFAULT_MAX_CROSSINGS
from .diagram import CrossingLimitError, Word, parse_word, torus_word
from .homology import AbGroup, BigradedTable, homology, homology_unnormalized
from .invariants import graded_euler, jones_from_bracket
from .verify import (
    FAIL,
    CheckReport,
    check_conjecture1,
    check_e_vanishing,
    check_f1,
    check_f2,
    check_f3,
    check_les,
    check_low_degree_table,
    check_rem2,
    check_t1,
    check_width_lower_bound,
    stable_poly_report,
)

CACHE_ENV = "KHOMA_CACHE_DIR"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


# -- table serialization ------------------------------------------------------


def table_to_json(table: BigradedTable, diagram: dict) -> dict:
    return {
        "diagram": diagram,
        "normalized": table.normalized,
        "n_plus": table.n_plus,
        "n_minus": table.n_minus,
        "groups": [
            {"i": i, "j": j, "rank": g.rank, "torsion": list(g.torsion)}
            for (i, j), g in sorted(table.groups.items())
        ],
    }


def table_from_json(payload: dict) -> BigradedTable:
    groups = {
        (entry["i"], entry["j"]): AbGroup(entry["rank"], tuple(entry["torsion"]))
        for entry in payload["groups"]
    }
    return BigradedTable(
        groups=groups,
        normalized=payload["normalized"],
        n_plus=payload["n_plus"],
        n_minus=payload["n_minus"],
    )


def render_text(table: BigradedTable) -> str:
    lines = []
    for (i, j), g in sorted(table.groups.items()):
        lines.append(f"{i:>4} {j:>5}   {g}")
    if not lines:
        return "(trivial table)"
    header = f"{'i':>4} {'j':>5}   group"
    return "\n".join([header] + lines)


def render_csv(table: BigradedTable) -> str:
    lines = ["i,j,rank,torsion"]
    for (i, j), g in sorted(table.groups.items()):
        lines.append(f"{i},{j},{g.rank},{';'.join(str(d) for d in g.torsion)}")
    return "\n".join(lines)


# -- result cache -------------------------------------------------------------


@functools.cache
def source_digest() -> str:
    """sha256 of the package's ``.py`` sources, names included.

    Computed on first use, once per process, so importing the package reads
    no files.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source = handle.read()
            digest.update(f"{name}\0{len(source)}\0".encode("utf-8"))
            digest.update(source)
    return digest.hexdigest()


def word_cache_key(word: Word, mode: str) -> str:
    """Stable content hash of (canonical word encoding, engine version and
    source digest, mode)."""
    encoding = f"{word.strands}:" + ",".join(str(k) for k in word.signed_letters())
    payload = f"{encoding}|khoma-{__version__}|{source_digest()}|{mode}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cached_table(record: dict, diagram: dict) -> Optional[dict]:
    """The table of a cache record as a payload for ``diagram``, or None
    when it is malformed.

    The key is the word alone, so the record may have been written for the
    same word named another way (``--torus 2 3``, ``--braid "1 1 1"``).  A
    table counts as well formed when it survives a round trip through
    ``table_from_json`` and ``table_to_json`` unchanged, so a cached table
    prints exactly as a freshly computed one.
    """
    payload = record.get("table")
    try:
        fresh = table_to_json(table_from_json(payload), diagram)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return fresh if fresh == {**payload, "diagram": diagram} else None


def cache_get(cache_dir: str, key: str) -> Optional[dict]:
    path = os.path.join(cache_dir, f"{key}.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or record.get("key") != key:
        return None
    return record


def cache_put(cache_dir: str, key: str, record: dict) -> bool:
    """Atomic write: temporary file in the same directory, then rename."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp_path, os.path.join(cache_dir, f"{key}.json"))
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    except OSError as err:
        print(f"warning: cache disabled ({err})", file=sys.stderr)
        return False
    return True


# -- argument plumbing --------------------------------------------------------


def _add_diagram_arguments(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--torus",
        nargs=2,
        type=int,
        metavar=("P", "Q"),
        help="standard (p, q) torus diagram",
    )
    group.add_argument("--braid", help="whitespace-separated nonzero generator indices")
    parser.add_argument("--strands", type=int, help="strand count for --braid")


def _add_engine_arguments(parser: argparse.ArgumentParser, jobs: bool = True):
    if jobs:
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes that parallelize table computations, at most one per CPU",
        )
    parser.add_argument(
        "--max-crossings",
        type=int,
        default=DEFAULT_MAX_CROSSINGS,
        help="crossing budget; a larger --torus or --braid diagram is refused "
        "(exit 3), a check over integer parameters reports skipped",
    )


def _refuse_over_budget(crossings: int, limit: int):
    if crossings > limit:
        raise CrossingLimitError(f"word has {crossings} crossings, limit is {limit}")


def _select_word(args) -> tuple[Word, dict]:
    """The diagram given by ``--torus`` or ``--braid``, within ``--max-crossings``.

    Every subcommand refuses an over-budget diagram here: a torus before its
    word is built, so the refusal costs nothing however large q is, and a
    braid right after parsing.
    """
    if args.torus is not None:
        if args.strands is not None:
            raise ValueError("--strands applies to --braid only")
        p, q = args.torus
        # a bad p or q is left to torus_word's ValueError
        if p >= 1 and q >= 0:
            _refuse_over_budget((p - 1) * q, args.max_crossings)
        return torus_word(p, q), {"kind": "torus", "p": p, "q": q}
    word = parse_word(args.braid, strands=args.strands)
    _refuse_over_budget(word.crossing_count, args.max_crossings)
    return word, {
        "kind": "braid",
        "word": list(word.signed_letters()),
        "strands": word.strands,
    }


class VerifyClaim(NamedTuple):
    """How ``verify`` runs one claim: ``check(*needs, max_crossings=...)``,
    plus ``jobs=`` when the check computes tables.  Each need is a required
    option of the claim's subparser: an integer, or ``word`` for the diagram
    given by ``--torus`` or ``--braid``."""

    check: Callable[..., CheckReport]
    needs: tuple[str, ...]
    takes_jobs: bool


VERIFY_CLAIMS = {
    "t1": VerifyClaim(check_t1, ("p", "q"), True),
    "f1": VerifyClaim(check_f1, ("p", "q"), True),
    "f2": VerifyClaim(check_f2, ("p", "q"), True),
    "f3": VerifyClaim(check_f3, ("p",), True),
    "rem2": VerifyClaim(check_rem2, ("p", "q"), True),
    "table": VerifyClaim(check_low_degree_table, ("p", "q"), True),
    "e-vanishing": VerifyClaim(check_e_vanishing, ("p", "q", "i"), True),
    "les": VerifyClaim(check_les, ("word", "crossing"), False),
    "conj1": VerifyClaim(check_conjecture1, ("p",), False),
    "stable-poly": VerifyClaim(stable_poly_report, ("m", "n-max"), True),
    "width": VerifyClaim(check_width_lower_bound, ("p", "q"), True),
}

_NEED_HELP = {
    "i": "resolution step",
    "m": "strand count",
    "n-max": "largest twist count",
    "crossing": "flat crossing index",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khoma",
        description="Exact Khovanov homology of braid-word closures.",
    )
    parser.add_argument("--version", action="version", version=f"khoma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("homology", help="bigraded homology table of a closure")
    _add_diagram_arguments(hom)
    hom.add_argument("--unnormalized", action="store_true", help="skip writhe shifts")
    hom.add_argument("--max-i", type=int, default=None, help="compute slices i <= N only")
    hom.add_argument("--format", choices=("text", "json", "csv"), default="text")
    hom.add_argument("--cache-dir", default=None, help=f"result cache (default ${CACHE_ENV})")
    _add_engine_arguments(hom)
    hom.set_defaults(run=cmd_homology)

    jon = sub.add_parser("jones", help="Jones polynomial of a closure")
    _add_diagram_arguments(jon)
    jon.add_argument(
        "--via",
        choices=("bracket", "euler", "both"),
        default="bracket",
        help="state sum, homology Euler characteristic, or cross-check",
    )
    _add_engine_arguments(jon)
    jon.set_defaults(run=cmd_jones)

    ver = sub.add_parser("verify", help="run one torus-knot check")
    claims = ver.add_subparsers(dest="claim", required=True)
    for name, claim in VERIFY_CLAIMS.items():
        check = claims.add_parser(name)
        for need in claim.needs:
            if need == "word":
                _add_diagram_arguments(check)
            else:
                check.add_argument(f"--{need}", type=int, required=True, help=_NEED_HELP.get(need))
        _add_engine_arguments(check, jobs=claim.takes_jobs)
        check.set_defaults(run=cmd_verify)

    return parser


# -- subcommands --------------------------------------------------------------


def cmd_homology(args) -> int:
    word, diagram = _select_word(args)
    mode = f"{'unnorm' if args.unnormalized else 'norm'}|max_i={args.max_i}"
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)

    payload = None
    if cache_dir:
        key = word_cache_key(word, mode)
        record = cache_get(cache_dir, key)
        if record is not None:
            payload = cached_table(record, diagram)

    if payload is None:
        started = time.monotonic()
        if args.unnormalized:
            table = homology_unnormalized(
                word, max_i=args.max_i, jobs=args.jobs, max_crossings=args.max_crossings
            )
        else:
            table = homology(
                word, max_i=args.max_i, jobs=args.jobs, max_crossings=args.max_crossings
            )
        elapsed = time.monotonic() - started
        payload = table_to_json(table, diagram)
        if cache_dir:
            record = {
                "key": key,
                "engine": {"name": "khoma", "version": __version__},
                "mode": mode,
                "timings": {"seconds": elapsed},
                "table": payload,
            }
            cache_put(cache_dir, key, record)

    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(render_csv(table_from_json(payload)))
    else:
        print(render_text(table_from_json(payload)))
    return EXIT_OK


def cmd_jones(args) -> int:
    word, _ = _select_word(args)
    if args.via in ("bracket", "both"):
        via_bracket = jones_from_bracket(word, max_crossings=args.max_crossings)
    if args.via in ("euler", "both"):
        table = homology(word, jobs=args.jobs, max_crossings=args.max_crossings)
        via_euler = graded_euler(table)
    if args.via == "bracket":
        print(via_bracket)
    elif args.via == "euler":
        print(via_euler)
    else:
        print(f"bracket: {via_bracket}")
        print(f"euler:   {via_euler}")
        if via_bracket != via_euler:
            print("MISMATCH", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    claim = VERIFY_CLAIMS[args.claim]
    values = [
        _select_word(args)[0] if need == "word" else getattr(args, need.replace("-", "_"))
        for need in claim.needs
    ]
    kwargs = {"jobs": args.jobs} if claim.takes_jobs else {}
    report = claim.check(*values, max_crossings=args.max_crossings, **kwargs)
    print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_FAIL if report.verdict == FAIL else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        return args.run(args)
    except CrossingLimitError as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
