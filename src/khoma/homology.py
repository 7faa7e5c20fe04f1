"""Bigraded integral homology tables of word closures.

Homology is assembled slice by slice: for each homological degree i and
quantum degree j the free rank is

    dim C^{i,j} - rank d^{i,j} - rank d^{i-1,j}

and the torsion is the list of invariant factors > 1 of d^{i-1,j}, both read
off Smith normal forms of the boundary blocks.  Slicing by quantum degree
keeps every matrix at the size of one bigraded block, and the blocks of one
degree are independent, so they can be farmed out to worker processes.  The
degrees run in order because each one shrinks the next: the rows of the +-1
pivots found in d^{i-1,j} are columns of d^{i,j} that are never built, which
leaves its rank and torsion unchanged.  A single group H^{i,j} takes the
same walk up to degree i, restricted to quantum degree j: only the blocks at
j are built, never a whole differential.

Tables come in two flavours: the raw (unnormalized) homology of the cube, and
the normalized table obtained by shifting with the writhe data, which is the
link invariant.  Normalization refuses words that still contain smoothing
letters, since their crossing signs are not defined.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .cube import DEFAULT_MAX_CROSSINGS, CubeComplex, build_cube
from .diagram import Word
from .zalgebra import SparseIntMat, snf


@dataclass(frozen=True)
class AbGroup:
    """A finitely generated abelian group: free rank plus invariant factors."""

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if d <= 1:
                raise ValueError("torsion factors must exceed 1")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise ValueError("torsion factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " + ".join(parts)


TRIVIAL_GROUP = AbGroup()


@dataclass(frozen=True)
class BigradedTable:
    """Map (i, j) -> nontrivial abelian group, plus diagram bookkeeping."""

    groups: dict[tuple[int, int], AbGroup]
    normalized: bool
    n_plus: int
    n_minus: int
    smooth_letters: int = 0
    max_i: Optional[int] = None  # highest homological slice computed, None = all

    def __post_init__(self):
        clean = {}
        for key, group in sorted(self.groups.items()):
            if not group.is_trivial:
                clean[key] = group
        object.__setattr__(self, "groups", clean)
        parities = {j & 1 for _, j in clean}
        if len(parities) > 1:
            raise AssertionError("quantum degrees of a table must share parity")

    @property
    def parity(self) -> Optional[int]:
        for _, j in self.groups:
            return j & 1
        return None

    def group(self, i: int, j: int) -> AbGroup:
        return self.groups.get((i, j), TRIVIAL_GROUP)

    def items(self):
        return list(self.groups.items())

    def total_rank(self) -> int:
        return sum(g.rank for g in self.groups.values())

    def restricted(self, i_below: int) -> dict[tuple[int, int], AbGroup]:
        """Entries with homological degree strictly below the bound."""
        return {key: g for key, g in self.groups.items() if key[0] < i_below}

    def shifted(self, di: int, dj: int) -> dict[tuple[int, int], AbGroup]:
        return {(i + di, j + dj): g for (i, j), g in self.groups.items()}


Summary = tuple[int, tuple[int, ...], frozenset[int]]


def worker_count(jobs: int) -> int:
    """Worker processes for ``jobs``: at most one per CPU; ``jobs`` < 1 is refused."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _snf_summary(mat: SparseIntMat) -> Summary:
    """Rank, torsion factors and unit-pivot rows of one block."""
    res = snf(mat)
    torsion = tuple(d for d in res.invariant_factors if d > 1)
    return res.rank, torsion, frozenset(res.unit_rows)


def _walk(
    cube: CubeComplex, top: int, js: Optional[tuple[int, ...]], pool=None
) -> dict[tuple[int, int], AbGroup]:
    """Nontrivial groups of degrees 0..top at the quantum degrees ``js``.

    ``js`` None means every quantum degree, assembled one whole degree at a
    time; otherwise only the blocks at ``js`` are built.  Each block is built
    once, without the columns carried from d^{i-1,j}, and none is cached:
    each degree is released once its blocks are built, before they are
    reduced.
    """
    groups: dict[tuple[int, int], AbGroup] = {}
    previous: dict[int, Summary] = {}
    for i in range(0, top + 1):
        if js is None:
            dims = cube.chain_ranks(i)
        else:
            dims = {j: cube.chain_rank(i, j) for j in js}
        # Gaussian elimination lemma: the rows R of d^{i-1,j}'s +-1 pivots
        # meet its pivot columns P in a unimodular block, so over Z
        # C^{i,j} = span(d^{i-1} columns P) + Z^(rows outside R), and
        # d^i d^{i-1} = 0 kills the first summand.  Leaving columns R out
        # of d^{i,j} therefore keeps its rank and torsion.
        carried = {j: res[2] for j, res in previous.items()}
        mats = cube._assemble(i, sorted(dims), carried)
        cube.release_degree(i)  # the walk needs nothing more of degree i
        if pool is not None and len(mats) > 1:
            results = pool.map(_snf_summary, mats.values())
        else:
            results = map(_snf_summary, mats.values())
        current = dict(zip(mats, results))
        del mats, results  # free degree i's blocks before degree i + 1 is assembled
        for j, dim in dims.items():
            rank_out = current.get(j, (0,))[0]
            rank_in, torsion, _ = previous.get(j, (0, (), None))
            free = dim - rank_out - rank_in
            if free < 0:
                raise AssertionError("negative free rank; boundary ranks corrupt")
            if free or torsion:
                groups[(i, j)] = AbGroup(free, torsion)
        previous = current
    return groups


def homology_unnormalized(
    word: Word,
    *,
    max_i: Optional[int] = None,
    jobs: int = 1,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> BigradedTable:
    """Integral homology of the resolution cube, before any degree shifts.

    ``max_i`` truncates the computation to homological degrees <= max_i; the
    groups reported there are still exact (the next boundary block is always
    included).  ``jobs`` > 1 distributes the Smith reductions of one degree
    over at most one process per CPU.
    """
    workers = worker_count(jobs)
    cube = build_cube(word, max_crossings=max_crossings)
    top = cube.m if max_i is None else min(max_i, cube.m)

    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        groups = _walk(cube, top, None, pool)
    finally:
        if pool is not None:
            pool.shutdown()

    return BigradedTable(
        groups=groups,
        normalized=False,
        n_plus=cube.n_plus,
        n_minus=cube.n_minus,
        smooth_letters=word.smooth_count,
        max_i=None if top == cube.m else top,
    )


def homology_group_at(
    word: Word,
    i: int,
    j: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> AbGroup:
    """One raw bigraded homology group, from quantum degree j alone.

    Diagrams near the crossing budget are out of reach of a full table, but a
    single group only needs the blocks d^{k,j} for k <= i.  The walk of
    ``homology_unnormalized`` runs over them in order with the +-1 pivot
    carry, and only quantum degree j of each degree is built.
    """
    cube = build_cube(word, max_crossings=max_crossings)
    if cube.chain_rank(i, j) == 0:
        return TRIVIAL_GROUP
    return _walk(cube, i, (j,)).get((i, j), TRIVIAL_GROUP)


def normalize(table: BigradedTable) -> BigradedTable:
    """Shift a raw table by the writhe data to the link-invariant grading.

    Entry (i, j) moves to (i - n_minus, j + n_plus - 2 n_minus).  Words that
    still contain smoothing letters are refused: their normalization would
    need crossing signs that no longer exist.
    """
    if table.normalized:
        raise ValueError("table is already normalized")
    if table.smooth_letters:
        raise ValueError("cannot normalize a table of a word with smoothing letters")
    di = -table.n_minus
    dj = table.n_plus - 2 * table.n_minus
    return BigradedTable(
        groups={(i + di, j + dj): g for (i, j), g in table.groups.items()},
        normalized=True,
        n_plus=table.n_plus,
        n_minus=table.n_minus,
        smooth_letters=0,
        max_i=None if table.max_i is None else table.max_i + di,
    )


def homology(
    word: Word,
    *,
    max_i: Optional[int] = None,
    jobs: int = 1,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> BigradedTable:
    """The link-invariant homology table of a genuine braid word.

    ``max_i`` bounds the *normalized* homological degree.
    """
    if word.smooth_count:
        raise ValueError("homology needs a crossings-only word; see homology_unnormalized")
    raw_max_i = None if max_i is None else max_i + word.n_minus
    raw = homology_unnormalized(
        word, max_i=raw_max_i, jobs=jobs, max_crossings=max_crossings
    )
    return normalize(raw)
