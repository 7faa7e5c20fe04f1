"""Bigraded integral homology tables of word closures.

Homology is assembled slice by slice: for each homological degree i and
quantum degree j the free rank is

    dim C^{i,j} - rank d^{i,j} - rank d^{i-1,j}

and the torsion is the list of invariant factors > 1 of d^{i-1,j}, both read
off Smith normal forms of the boundary blocks.  Slicing by quantum degree
keeps every matrix at the size of one bigraded block, and the differential
preserves j, so worker processes can each walk a share of the j values.  The
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

import functools
import os
from array import array
from dataclasses import dataclass
from typing import Optional

from .cube import DEFAULT_MAX_CROSSINGS, CubeComplex, build_cube
from .diagram import Word, check_crossing_budget
from .zalgebra import SparseIntMat, index_array, snf


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
        clean = {key: g for key, g in sorted(self.groups.items()) if not g.is_trivial}
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


Summary = tuple[int, tuple[int, ...], array]
Groups = dict[tuple[int, int], AbGroup]


def worker_count(jobs: int) -> int:
    """Worker processes for ``jobs``: at most one per CPU; ``jobs`` < 1 is refused."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _snf_summary(mat: SparseIntMat) -> Summary:
    """Rank, torsion factors and unit-pivot rows, ascending, of one block."""
    res = snf(mat)
    # the unit phase's factors are all 1; torsion can only come from the core
    torsion = tuple(d for d in res.invariant_factors[len(res.unit_rows):] if d > 1)
    return res.rank, torsion, index_array(mat.rows, sorted(res.unit_rows))


def _walk(cube: CubeComplex, top: int, js: Optional[tuple[int, ...]]) -> Groups:
    """Nontrivial groups of degrees 0..top at the quantum degrees ``js``.

    ``js`` None means every quantum degree, assembled one whole degree at a
    time; otherwise only the runs and blocks at ``js`` are built.  Each
    block is built once, without the columns carried from d^{i-1,j}, and
    none is cached: each degree is released once its blocks are built,
    before they are reduced.
    """
    groups: Groups = {}
    previous: dict[int, Summary] = {}
    for i in range(0, top + 1):
        dims = cube._runs(i, js)[1]
        # Gaussian elimination lemma: the rows R of d^{i-1,j}'s +-1 pivots
        # meet its pivot columns P in a unimodular block, so over Z
        # C^{i,j} = span(d^{i-1} columns P) + Z^(rows outside R), and
        # d^i d^{i-1} = 0 kills the first summand.  Leaving columns R out
        # of d^{i,j} therefore keeps its rank and torsion.
        carried = {j: res[2] for j, res in previous.items()}
        mats = cube._assemble(i, js, carried)
        cube.release_degree(i)  # the walk needs nothing more of degree i
        current = {j: _snf_summary(mat) for j, mat in mats.items()}
        del mats  # free degree i's blocks before degree i + 1 is assembled
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


def _walk_word(word: Word, top: int, max_crossings: int, js: Optional[tuple[int, ...]]) -> Groups:
    """The walk over ``word``'s own cube: all of one worker's task."""
    return _walk(build_cube(word, max_crossings=max_crossings), top, js)


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
    included).  ``jobs`` > 1 starts at most one worker per CPU; worker k walks
    the j with j // 2 % workers == k on its own cube and returns only groups.
    A resolution has at most b = strands + letters circles, so -b <= j < top + 2 + b.
    """
    workers = worker_count(jobs)
    m = word.crossing_count
    check_crossing_budget(m, max_crossings)
    top = m if max_i is None else min(max_i, m)
    if workers == 1:
        groups = _walk_word(word, top, max_crossings, None)
    else:
        # imported here, so that ``import khoma`` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        b = word.strands + len(word.letters)
        js = range(-b, top + 2 + b)
        shares = [tuple(j for j in js if j // 2 % workers == k) for k in range(workers)]
        walk = functools.partial(_walk_word, word, top, max_crossings)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = {key: g for part in pool.map(walk, shares) for key, g in part.items()}

    return BigradedTable(
        groups=groups,
        normalized=False,
        n_plus=word.n_plus,
        n_minus=word.n_minus,
        smooth_letters=word.smooth_count,
        max_i=None if top == m else top,
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
    if not cube._runs(i, (j,))[1].get(j):
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
        groups=table.shifted(di, dj),
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
