"""Exact sparse linear algebra over the integers, the rationals and F_p.

Everything is exact: matrices carry arbitrary-precision integer entries,
Smith normal form is computed by unimodular row and column operations (only
the invariant factors are kept, not the transforms), and rational ranks,
kernels and images use Fraction arithmetic.  No floating point is ever
involved.

There is one matrix type, ``SparseIntMat``, held as three flat arrays of
row, column and value, about 9 bytes per entry for the cube's blocks: the
cube appends its boundary blocks' entries there, and ``snf`` builds its
working rows from them in one pass, so a block exists once as arrays and
once as the rows being reduced, never twice as rows.  The reduction leaves
its input as it was.

The Smith reduction runs in two phases.  Entries of absolute value one are
eliminated first, shortest row first, each in its shortest column, and each
pivot row is deleted once its column is cleared; this clears the bulk of the
chain-complex boundary matrices this library exists for with little fill and
small entries.  Rows of length one and two give almost every pivot and wait
in queues of their own.  A pivot column is cleared in one sweep over its
rows, each folding in the rest of the pivot row, and then discarded, never
searched.  Whatever survives is reduced by the classic textbook procedure
(smallest pivot, remainder swaps, divisibility sweep), which guarantees the
divisibility chain of the invariant factors.

Over a prime field F_p there is one elimination, ``EchelonModP``: sparse
vectors are reduced one at a time against stored ones with distinct pivots,
carrying coordinates along.  Column by column it gives the rank, a column
space echelon and a kernel basis of a matrix in one pass
(``columns_mod_p``); seeded with the boundaries of a chain complex it
projects cycles onto homology.  It serves only statements that hold over
every field; torsion is never read off modulo a prime.
"""

from __future__ import annotations

import heapq
import operator
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence


def index_array(n: int, items=()) -> array:
    """Indices below ``n`` as a flat array: 4 bytes each while they fit."""
    return array("i" if n <= 2**31 else "q", items)


def _value_array(values: list[int]):
    """Values in the narrowest flat array that holds them, a tuple past 64 bits."""
    for code in "bq":
        try:
            return array(code, values)
        except OverflowError:
            pass
    return tuple(values)


@dataclass(frozen=True, init=False, eq=False)
class SparseIntMat:
    """Immutable sparse integer matrix, held as three flat arrays.

    Entry k is ``values[k]`` at (``row_index[k]``, ``col_index[k]``): the
    entries are nonzero, pairwise at distinct positions and in no particular
    order, and ``nnz`` counts them.  Indices are ``array``s of 4-byte ints
    (8 past 2**31); values are an ``array`` of bytes when they fit, as the
    cube's signs do, and of 8-byte ints or a tuple otherwise.  ``by_row``
    (``{row: {col: value}}``) and ``entries`` (keyed by (row, col)) are built
    from the arrays when read, so changing them changes nothing.  The public
    constructor checks the range of its entries, refuses a shape, index or
    value that is not an integer and drops zeros; ``of_arrays`` takes
    arrays the engine built itself.  Equality compares the shape and the
    entries.  Nothing reading a matrix may mutate its arrays.
    """

    rows: int
    cols: int
    nnz: int
    row_index: array = field(repr=False)
    col_index: array = field(repr=False)
    values: Sequence[int] = field(repr=False)

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        index = operator.index
        try:
            rows, cols = index(rows), index(cols)
            items = [((index(r), index(c)), v) for (r, c), v in (entries or {}).items()]
        except TypeError:
            raise ValueError("matrix shape and entry indices must be integers") from None
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        rs: list[int] = []
        cs: list[int] = []
        vs: list[int] = []
        for (r, c), v in items:
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError(f"entry ({r}, {c}) out of range")
            if v:
                try:
                    iv = int(v)
                    if iv != v:
                        raise ValueError
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"entry ({r}, {c}) is not an integer: {v!r}") from None
                rs.append(r)
                cs.append(c)
                vs.append(iv)
        size = max(rows, cols)
        self._fill(rows, cols, index_array(size, rs), index_array(size, cs), _value_array(vs))

    def _fill(self, rows, cols, row_index, col_index, values):
        # frozen: the fields are filled past the blocked __setattr__
        vars(self).update(
            rows=rows, cols=cols, nnz=len(values),
            row_index=row_index, col_index=col_index, values=values,
        )

    @classmethod
    def of_arrays(cls, rows: int, cols: int, row_index, col_index, values):
        """A matrix that takes three parallel entry arrays as they are.

        For matrices the engine builds itself: every value a nonzero int,
        every position inside the shape and none twice.  The caller must not
        mutate the arrays afterwards; matrices may share them.
        """
        mat = object.__new__(cls)
        mat._fill(rows, cols, row_index, col_index, values)
        return mat

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]], cols: Optional[int] = None):
        rows = len(dense)
        if cols is None:
            cols = len(dense[0]) if rows else 0
        entries = {
            (r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v
        }
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, {(k, k): 1 for k in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows, cols, {})

    @property
    def by_row(self) -> dict[int, dict[int, int]]:
        """The nonzero entries as ``{row: {col: value}}``, built when read."""
        by_row: dict[int, dict[int, int]] = defaultdict(dict)
        for r, c, v in zip(self.row_index, self.col_index, self.values):
            by_row[r][c] = v
        return dict(by_row)

    @property
    def entries(self) -> Mapping[tuple[int, int], int]:
        """The nonzero entries keyed by (row, col), a read-only view."""
        return MappingProxyType(dict(zip(zip(self.row_index, self.col_index), self.values)))

    def __eq__(self, other):
        if not isinstance(other, SparseIntMat):
            return NotImplemented
        return (self.rows, self.cols, self.nnz) == (other.rows, other.cols, other.nnz) and (
            self.entries == other.entries
        )

    __hash__ = None

    def get(self, r: int, c: int) -> int:
        """The entry at (r, c), found by scanning the row indices for r."""
        row_index, col_index = self.row_index, self.col_index
        k = -1
        try:
            while True:
                k = row_index.index(r, k + 1)
                if col_index[k] == c:
                    return self.values[k]
        except ValueError:
            return 0

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in zip(self.row_index, self.col_index, self.values):
            dense[r][c] = v
        return dense

    def transpose(self) -> "SparseIntMat":
        """The transpose, sharing this matrix's arrays with the roles swapped."""
        return SparseIntMat.of_arrays(
            self.cols, self.rows, self.col_index, self.row_index, self.values
        )

    def __matmul__(self, other: "SparseIntMat") -> "SparseIntMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        right = other.by_row
        acc: dict[tuple[int, int], int] = defaultdict(int)
        for r, k, v in zip(self.row_index, self.col_index, self.values):
            for c, w in right.get(k, {}).items():
                acc[r, c] += v * w
        return SparseIntMat(self.rows, other.cols, acc)  # drops the zeros


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... | d_r of a matrix ``a``, and its rank.

    ``unit_rows`` are the rows, in the numbering of ``a``, of the pivots taken
    by the unit phase; the submatrix of ``a`` on these rows and their pivot
    columns is unimodular.
    """

    invariant_factors: tuple[int, ...]
    rank: int
    unit_rows: tuple[int, ...] = ()


class _Reduction:
    """Mutable row/column elimination state of one matrix.

    ``row[r]`` holds row r's entries ``{col: value}`` and ``col[c]`` lists
    the rows with an entry in column ``c``, each once and in no particular
    order; an empty row or column has no entry.  The rows are built in
    ascending order by one pass over the input's arrays, which are never
    changed; one pass over the rows then lists the columns and queues the
    rows for the unit phase: ``short[k]`` holds the rows of length k = 1, 2,
    ascending and so a heap, and ``waiting`` the longer ones.  The unit phase
    edits ``row`` and ``col`` in place; the row and column operations below
    serve the core phase only.
    """

    def __init__(self, a: SparseIntMat):
        # a slot per row, ascending: every row by list index when most rows
        # hold entries, as in the cube's blocks, else only those that do
        if a.rows <= 2 * a.nnz:
            slots = [{} for _ in range(a.rows)]
        else:
            slots = {r: {} for r in sorted(set(a.row_index))}
        for r, c, v in zip(a.row_index, a.col_index, a.values):
            slots[r][c] = v
        filled = enumerate(slots) if isinstance(slots, list) else slots.items()
        row = {r: entries for r, entries in filled if entries}
        col: dict[int, list[int]] = defaultdict(list)
        self.short: tuple[None, list[int], list[int]] = (None, [], [])
        self.waiting: set[int] = set()
        for r, entries in row.items():  # one int object per row, not per entry
            for c in entries:
                col[c].append(r)
            if len(entries) > 2:
                self.waiting.add(r)
            else:
                self.short[len(entries)].append(r)
        self.row = row
        self.col = dict(col)

    def entry(self, r: int, c: int) -> int:
        return self.row.get(r, {}).get(c, 0)

    def add_row(self, dst: int, src: int, factor: int):
        """row_dst += factor * row_src."""
        if not factor:
            return
        drow = self.row.setdefault(dst, {})
        col = self.col
        get = drow.get
        for c, v in self.row.get(src, {}).items():
            w = get(c)
            if w is None:
                drow[c] = factor * v
                col[c].append(dst)  # col[c] exists: it holds src already
            else:
                w += factor * v
                if w:
                    drow[c] = w
                else:
                    del drow[c]
                    col[c].remove(dst)  # src stays, so the list is not empty
        if not drow:
            del self.row[dst]

    def add_col(self, dst: int, src: int, factor: int):
        """col_dst += factor * col_src."""
        if not factor:
            return
        for r in self.col.get(src, ()):
            rrow = self.row[r]
            w = rrow.get(dst, 0) + factor * rrow[src]
            if w:
                if dst not in rrow:
                    self.col.setdefault(dst, []).append(r)
                rrow[dst] = w
            elif dst in rrow:
                del rrow[dst]
                self._unlist(r, dst)

    def negate_row(self, r: int):
        for c in self.row.get(r, {}):
            self.row[r][c] = -self.row[r][c]

    def drop_row(self, r: int):
        """Remove row ``r`` from the active matrix."""
        for c in self.row.pop(r):
            self._unlist(r, c)

    def _unlist(self, r: int, c: int):
        rows = self.col[c]
        rows.remove(r)
        if not rows:
            del self.col[c]


def _unit_phase(work: _Reduction, pivots: list[tuple[int, int, int]]):
    """Eliminate +-1 entries, taking the live row of least (length, row).

    Rows of length 1 and 2 wait in one heap of row numbers per length, first
    filled by ``_Reduction`` and pushed whenever a change leaves a row at
    that length.  Longer rows, and changed ones, wait in a set that is
    pushed into a (length, row) heap only once both short heaps are empty.
    Entries whose row died or changed length are skipped; a row without a
    unit waits until it changes again.  The row taken pivots on its +-1
    entry in the shortest column, and the pivot row is deleted outright.  No
    column operations are needed: once the column holds nothing but the
    pivot, they could only zero the rest of the pivot row, and no transforms
    are kept.

    The pivot column is popped once and cleared in one sweep: each other row
    of it loses its entry there and, unless the pivot row has length 1, adds
    the rest of the pivot row times -v*w, listing itself in the columns it
    enters and unlisting from those it cancels; then the pivot row unlists
    from its other columns.  The rows and column lists left are those that
    ``_Reduction.add_row`` and ``drop_row`` would leave.

    Each pivot row is reduced only by earlier pivot rows, so the pivot rows
    meet the pivot columns in a unimodular block.
    """
    row, col = work.row, work.col
    heappush, heappop = heapq.heappush, heapq.heappop
    short, changed = work.short, work.waiting
    ones, twos = short[1], short[2]
    # a long-row key packs (length, row) into one int, cheaper to compare than a tuple
    n = max(row, default=0) + 1
    heap: list[int] = []
    while True:
        if ones:
            r = heappop(ones)
            entries = row.get(r)
            if entries is None or len(entries) != 1:
                continue
            ((c, v),) = entries.items()
            if v != 1 and v != -1:
                continue
            for r2 in col.pop(c):
                if r2 != r:
                    rest = row[r2]
                    del rest[c]
                    k = len(rest)
                    if k > 2:
                        changed.add(r2)
                    elif k:
                        heappush(short[k], r2)
                    else:
                        del row[r2]
            del row[r]
            pivots.append((r, c, 1))
            continue
        if twos:
            length, r = 2, heappop(twos)
        else:
            for r2 in changed:
                k = len(row.get(r2, ()))
                if k > 2:
                    heappush(heap, k * n + r2)
            changed.clear()
            if not heap:
                break
            length, r = divmod(heappop(heap), n)
        entries = row.get(r)
        if entries is None or len(entries) != length:
            continue
        best = None
        for c, v in entries.items():
            if v == 1 or v == -1:
                cand = (len(col[c]), c)
                if best is None or cand < best:
                    best = cand
        if best is None:
            continue
        c = best[1]
        v = entries.pop(c)
        del row[r]
        for r2 in col.pop(c):
            if r2 != r:
                rest = row[r2]
                f = -v * rest.pop(c)  # 1/v == v for a unit
                for c2, u in entries.items():
                    w = rest.get(c2)
                    if w is None:
                        rest[c2] = f * u
                        col[c2].append(r2)
                    else:
                        w += f * u
                        if w:
                            rest[c2] = w
                        else:
                            del rest[c2]
                            col[c2].remove(r2)  # r stays, so the list is not empty
                k = len(rest)
                if k > 2:
                    changed.add(r2)
                elif k:
                    heappush(short[k], r2)
                else:
                    del row[r2]
        for c2 in entries:
            work._unlist(r, c2)
        pivots.append((r, c, 1))
    # every changed row was queued again, so no unit can be left
    if any(v == 1 or v == -1 for entries in row.values() for v in entries.values()):
        raise AssertionError("unit entry left for the core phase")


def _core_phase(work: _Reduction, pivots: list[tuple[int, int, int]]):
    """Textbook reduction of whatever the unit phase left behind.

    The pivot is re-selected as the globally smallest entry after every
    modification; pivoting anywhere else lets entries explode.
    """
    while work.row:
        r, c = min(
            ((r, c) for r, row in work.row.items() for c in row),
            key=lambda rc: (abs(work.row[rc[0]][rc[1]]), rc),
        )
        v = work.row[r][c]
        if v < 0:
            work.negate_row(r)
            v = -v
        changed = False
        for r2 in sorted(work.col[c]):
            if r2 != r:
                work.add_row(r2, r, -(work.row[r2][c] // v))
                if work.entry(r2, c):
                    changed = True  # a remainder below v appeared; rescan
        if changed:
            continue
        for c2 in sorted(work.row[r]):
            if c2 != c:
                work.add_col(c2, c, -(work.row[r][c2] // v))
                if work.entry(r, c2):
                    changed = True
        if changed:
            continue
        bad = None
        for r2, row in work.row.items():
            if r2 == r:
                continue
            for w in row.values():
                if w % v:
                    bad = r2
                    break
            if bad is not None:
                break
        if bad is None:
            pivots.append((r, c, v))
            work.drop_row(r)
        else:
            # fold the offending row in; the next pass shrinks the pivot
            work.add_row(r, bad, 1)


def snf(a: SparseIntMat) -> SnfResult:
    """Smith normal form of ``a``, reduced on rows built from its arrays.

    ``a`` is left unchanged.  Returns the invariant factors with their
    divisibility chain, the rank and the rows of the unit-phase pivots.
    """
    work = _Reduction(a)
    pivots: list[tuple[int, int, int]] = []
    _unit_phase(work, pivots)
    unit_rows = tuple(r for r, _, _ in pivots)
    _core_phase(work, pivots)

    factors = tuple(v for _, _, v in pivots)
    core = factors[len(unit_rows):]  # the unit phase's factors are all 1
    for d, e in zip(core, core[1:]):
        if e % d:
            raise AssertionError("invariant factor chain violated")
    return SnfResult(invariant_factors=factors, rank=len(factors), unit_rows=unit_rows)


def rank_q(a: SparseIntMat) -> int:
    """Rank over the rationals: the pivot count of ``_rref_fraction``.

    Deliberately independent of ``snf``, so the two can cross-check each
    other.
    """
    return len(_rref_fraction(a)[1])


def _rref_fraction(a: SparseIntMat) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns rows and pivot columns."""
    active = [{c: Fraction(v) for c, v in row.items()} for row in a.by_row.values()]
    reduced: list[dict[int, Fraction]] = []
    pivot_cols: list[int] = []
    while active:
        c = min(min(row) for row in active)
        idx = next(k for k, row in enumerate(active) if c in row)
        pivot = active.pop(idx)
        inv = 1 / pivot[c]
        pivot = {k: v * inv for k, v in pivot.items()}
        for row in reduced:
            f = row.get(c)
            if f:
                for k, v in pivot.items():
                    w = row.get(k, Fraction(0)) - f * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
        nxt = []
        for row in active:
            f = row.get(c)
            if f:
                for k, v in pivot.items():
                    w = row.get(k, Fraction(0)) - f * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
            if row:
                nxt.append(row)
        active = nxt
        reduced.append(pivot)
        pivot_cols.append(c)
    return reduced, pivot_cols


def kernel_basis_q(a: SparseIntMat) -> list[list[Fraction]]:
    """A basis of the rational null space, one vector per free column."""
    reduced, pivot_cols = _rref_fraction(a)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * a.cols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivot_cols):
            coeff = row.get(free)
            if coeff:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


def image_basis_q(a: SparseIntMat) -> list[list[Fraction]]:
    """A basis of the rational column space: the original pivot columns."""
    _, pivot_cols = _rref_fraction(a)
    basis = {c: [Fraction(0)] * a.rows for c in pivot_cols}
    for r, c, v in zip(a.row_index, a.col_index, a.values):
        if c in basis:
            basis[c][r] = Fraction(v)
    return list(basis.values())


# -- linear algebra over F_p --------------------------------------------------


class EchelonModP:
    """Sparse vectors over F_p in echelon form, each carrying coordinates.

    A vector is a dict from index to a nonzero residue mod ``p``.  Every
    stored vector has a distinct pivot, its largest index, where it is 1, so
    cancelling the largest index of a vector against the stored vector with
    that pivot touches only smaller indices.  Each stored vector carries
    coordinates, a vector in a second index space chosen by the caller (the
    columns of a matrix, or the classes of a quotient); reduction combines
    them alongside.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, tuple[dict[int, int], dict[int, int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[dict[int, int]]:
        return [vec for vec, _ in self.rows.values()]

    def reduce(self, vec: dict[int, int]) -> tuple[dict[int, int], dict[int, int]]:
        """(residual, combination): ``vec`` is ``residual`` plus the stored
        vectors with the weights whose coordinates sum to ``combination``;
        the residual is empty exactly when ``vec`` is in the span."""
        p, rows = self.p, self.rows
        residual = dict(vec)
        combination: dict[int, int] = {}
        while residual:
            top = max(residual)
            stored = rows.get(top)
            if stored is None:
                break
            f = residual[top]
            base, coords = stored
            for k, v in base.items():
                w = (residual.get(k, 0) - f * v) % p
                if w:
                    residual[k] = w
                else:
                    del residual[k]
            for k, v in coords.items():
                w = (combination.get(k, 0) + f * v) % p
                if w:
                    combination[k] = w
                else:
                    del combination[k]
        return residual, combination

    def add(
        self, vec: dict[int, int], coords: dict[int, int]
    ) -> Optional[dict[int, int]]:
        """Store ``vec`` with ``coords`` unless it lies in the span.

        Returns None when the vector was stored; otherwise the relation:
        ``coords`` minus the coordinates of the stored vectors that sum to
        ``vec``, a combination whose vector is zero.
        """
        p = self.p
        residual, combination = self.reduce(vec)
        relation = dict(coords)
        for k, v in combination.items():
            w = (relation.get(k, 0) - v) % p
            if w:
                relation[k] = w
            else:
                del relation[k]
        if not residual:
            return relation
        top = max(residual)
        inv = pow(residual[top], -1, p)
        self.rows[top] = (
            {k: v * inv % p for k, v in residual.items()},
            {k: v * inv % p for k, v in relation.items()},
        )
        return None


def columns_mod_p(a: SparseIntMat, p: int) -> tuple[EchelonModP, list[dict[int, int]]]:
    """Column reduction of ``a`` over F_p in one pass.

    Returns an echelon of the column space, whose length is the rank, and a
    basis of the null space as sparse vectors over the columns: column ``c``
    enters with coordinates ``{c: 1}`` and, when it depends on the columns
    before it, the relation it yields is a kernel vector.
    """
    columns: dict[int, dict[int, int]] = {c: {} for c in range(a.cols)}
    for r, c, v in zip(a.row_index, a.col_index, a.values):
        v %= p
        if v:
            columns[c][r] = v
    echelon = EchelonModP(p)
    kernel = []
    for c, vec in columns.items():
        relation = echelon.add(vec, {c: 1})
        if relation is not None:
            kernel.append(relation)
    return echelon, kernel
