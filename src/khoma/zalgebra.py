"""Exact sparse linear algebra over the integers, the rationals and F_p.

Everything is exact: matrices carry arbitrary-precision integer entries,
Smith normal form is computed by unimodular row and column operations (only
the invariant factors are kept, not the transforms), and rational ranks,
kernels and images use Fraction arithmetic.  No floating point is ever
involved.

There is one matrix type, ``SparseIntMat``, held as three flat arrays of
row, column and value, about 9 bytes per entry for the cube's blocks: the
cube appends its boundary blocks' entries there, and ``snf`` builds its
working rows from them, so a block exists once as arrays and once as the
rows being reduced, never twice as rows.  The reduction leaves its input as
it was.

Entries of absolute value one are eliminated first, shortest row first,
each in its shortest column, and each pivot row is deleted once its column
is cleared; this clears the bulk of the chain-complex boundary matrices
this library exists for with little fill and small entries.  Most of those
pivots are rows of a single +-1 entry, whose columns are cleared without
fill, in a cascade as other rows fall to one entry.  ``snf`` takes that
cascade on the block's arrays (``_peel``), counting each row's entries
down, and only then builds ``{row: {col: value}}`` for the entries left,
about a third of them on the cube's large blocks; every row shares one int
object per column key.  The unit phase goes on from there on those rows,
with state local to it: it indexes the columns itself, each by a list its
rows are only ever appended to and a count of those still in it, and rows
of length one and two wait in queues of their own.  A pivot column is
cleared in one sweep over its list, which skips rows that have left it,
each row folding in the rest of the pivot row, and then discarded, never
searched.  Whatever survives, a few rows as a rule, is reduced as plain
rows, without a column index, by the classic textbook procedure (smallest
pivot, remainder swaps, divisibility sweep), which guarantees the
divisibility chain of the invariant factors.  This is the integral form of
cancelling isomorphisms first, as in Bar-Natan's fast Khovanov homology.

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


def _rows(a: SparseIntMat) -> dict[int, dict[int, int]]:
    """The nonzero rows of ``a`` as ``{row: {col: value}}``, in ascending order.

    Built by one pass over the input's arrays, which are never changed, into
    a slot per row: every row by list index when most rows hold entries, as
    in the cube's blocks, else only those that do.  When most columns hold
    entries, every column key is read from one ``list(range(a.cols))``, so
    all rows share one int object per column instead of one per entry.
    ``_peel`` hands over these rows for a shape too sparse for it to peel.
    """
    if a.rows <= 2 * a.nnz:
        slots = [{} for _ in range(a.rows)]
    else:
        slots = {r: {} for r in sorted(set(a.row_index))}
    cols = a.col_index
    if a.cols <= 2 * a.nnz:
        cols = map(list(range(a.cols)).__getitem__, cols)
    for r, c, v in zip(a.row_index, cols, a.values):
        slots[r][c] = v
    filled = enumerate(slots) if isinstance(slots, list) else slots.items()
    return {r: entries for r, entries in filled if entries}


def _peel(a: SparseIntMat, pivots: list[tuple[int, int, int]]) -> dict[int, dict[int, int]]:
    """Take the unit phase's pivots on rows of one +-1 entry on the arrays of ``a``.

    Such a pivot only deletes entries, and the unit phase takes these first,
    least row first, as rows fall to one entry.  One pass over the arrays
    gives each row's degree, its XOR of entry numbers, which names the only
    live entry of a row of degree 1, and each column's entry numbers.  A
    row of degree 1 popped from a heap pivots if its entry is +-1: the rows
    of its column count down one degree and XOR that entry out, and a row
    that falls to degree 1 is pushed.  Entries leave only with their column,
    so the rows returned, ascending, are the entries of the columns left,
    keyed by one int object per column.  ``_unit_phase`` on them takes the
    pivots it would take next on ``_rows(a)``.  A shape with more than two
    rows or columns per entry is not peeled: it gets ``_rows(a)``.
    """
    if a.rows > 2 * a.nnz or a.cols > 2 * a.nnz:
        return _rows(a)
    ri, ci, vals = a.row_index, a.col_index, a.values
    degree = [0] * a.rows
    xor = [0] * a.rows
    col = [[] for _ in range(a.cols)]
    for e, r, c in zip(range(a.nnz), ri, ci):
        degree[r] += 1
        xor[r] ^= e
        col[c].append(e)
    ones = [r for r, d in enumerate(degree) if d == 1]
    heappush, heappop = heapq.heappush, heapq.heappop
    while ones:
        r = heappop(ones)
        if degree[r] != 1:
            continue  # emptied since it was pushed
        e = xor[r]
        if vals[e] != 1 and vals[e] != -1:
            continue  # the unit phase skips it too
        c = ci[e]
        for e2 in col[c]:
            r2 = ri[e2]
            k = degree[r2] - 1
            degree[r2] = k
            xor[r2] ^= e2
            if k == 1:
                heappush(ones, r2)
        col[c] = None
        pivots.append((r, c, 1))
    rows = {r: {} for r, d in enumerate(degree) if d}
    for c, listed in enumerate(col):
        if listed is not None:
            for e in listed:
                rows[ri[e]][c] = vals[e]
    return rows


def _unit_phase(row: dict[int, dict[int, int]], pivots: list[tuple[int, int, int]]):
    """Eliminate +-1 entries of ``row``, taking the live row of least (length, row).

    The state is ``row``, edited in place, and the phase's own locals, built
    by one pass over the rows: ``col[c]`` lists, in no particular order, the
    rows that have entered column ``c``, appended on entry and never removed,
    and ``count[c]`` is how many still hold an entry there; a column leaves
    both when its count reaches 0 or it is pivoted.  Rows of length 1 and 2
    wait in one heap of row numbers per length, ascending at first and
    pushed whenever a change leaves a row at that length.  Longer rows, and
    changed ones, wait in a set that is pushed into a (length, row) heap only
    once both short heaps are empty.  Entries whose row died or changed
    length are skipped; a row without a unit waits until it changes again.
    The row taken pivots on its +-1 entry in the column of least (count,
    column), and the pivot row is deleted outright.  No column operations
    are needed: once the column holds nothing but the pivot, they could only
    zero the rest of the pivot row, and no transforms are kept.

    The pivot column is popped once and cleared in one sweep over its list,
    skipping rows that are gone or no longer hold the column, so a row
    listed twice is swept once: each other row loses its entry there and
    adds the rest of the pivot row, if any, times -v*w, appending itself to
    the columns it enters and counting down those it cancels; then the
    pivot row's other columns count it out.  The rows left are those that
    adding multiples of the pivot row, then deleting it, would leave.
    Nothing reads the order of a list, so the pivots are those that lists
    of exactly the live rows would give.

    Each pivot row is reduced only by earlier pivot rows, so the pivot rows
    meet the pivot columns in a unimodular block.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    col: dict[int, list[int]] = defaultdict(list)
    short: tuple[None, list[int], list[int]] = (None, [], [])
    changed: set[int] = set()
    for r, entries in row.items():  # one int object per row, not per entry
        for c in entries:
            col[c].append(r)
        if len(entries) > 2:
            changed.add(r)
        else:
            short[len(entries)].append(r)
    col = dict(col)  # indexed faster than a defaultdict
    count = {c: len(listed) for c, listed in col.items()}
    ones, twos = short[1], short[2]
    # a long-row key packs (length, row) into one int, cheaper to compare than a tuple
    n = max(row, default=0) + 1
    heap: list[int] = []
    while True:
        if ones:
            length, r = 1, heappop(ones)
        elif twos:
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
                cand = (count[c], c)
                if best is None or cand < best:
                    best = cand
        if best is None:
            continue
        c = best[1]
        v = entries.pop(c)
        del row[r]
        for r2 in col.pop(c):
            rest = row.get(r2)
            if rest is None or (w := rest.pop(c, None)) is None:
                continue  # gone, or listed after it left the column
            f = -v * w  # 1/v == v for a unit
            for c2, u in entries.items():
                w = rest.get(c2)
                if w is None:
                    rest[c2] = f * u
                    col[c2].append(r2)
                    count[c2] += 1
                else:
                    w += f * u
                    if w:
                        rest[c2] = w
                    else:
                        del rest[c2]
                        count[c2] -= 1  # r stays, so the count is not 0
            k = len(rest)
            if k > 2:
                changed.add(r2)
            elif k:
                heappush(short[k], r2)
            else:
                del row[r2]
        del count[c]
        for c2 in entries:
            k = count[c2] - 1
            if k:
                count[c2] = k
            else:
                del count[c2], col[c2]
        pivots.append((r, c, 1))
    # every changed row was queued again, so no unit can be left
    if any(v == 1 or v == -1 for entries in row.values() for v in entries.values()):
        raise AssertionError("unit entry left for the core phase")


def _add(dst: dict[int, int], src: Mapping[int, int], factor: int):
    """dst += factor * src on sparse vectors ``{index: value}``, zeros dropped."""
    for k, v in src.items():
        w = dst.get(k, 0) + factor * v
        if w:
            dst[k] = w
        else:
            del dst[k]


def _core_phase(rows: dict[int, dict[int, int]], pivots: list[tuple[int, int, int]]):
    """Textbook reduction of the rows the unit phase left, until none is left.

    The pivot is re-selected as the globally smallest entry after every
    modification; pivoting anywhere else lets entries explode.  Row
    operations clear its column; the pivot is then the column's only entry,
    so the column operations that clear its row change the pivot row alone.
    A remainder smaller than the pivot restarts the pass.  A pivot dividing
    every other entry is kept, as its absolute value, and its row dropped;
    otherwise a row it does not divide is folded into the pivot row.  A
    column's rows are found by scanning every row: the unit phase leaves few.
    """
    while rows:
        _, r, c = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        pivot_row = rows[r]
        v = pivot_row[c]
        changed = False
        for r2 in [r2 for r2, row in rows.items() if c in row and r2 != r]:
            row = rows[r2]
            _add(row, pivot_row, -(row[c] // v))
            if c in row:
                changed = True  # a remainder smaller than |v| appeared; rescan
            elif not row:
                del rows[r2]
        if changed:
            continue
        for c2 in [c2 for c2 in pivot_row if c2 != c]:
            # column c2 += f * column c, where column c holds v at row r only
            _add(pivot_row, {c2: v}, -(pivot_row[c2] // v))
            if c2 in pivot_row:
                changed = True
        if changed:
            continue
        bad = next(
            (row for r2, row in rows.items() if r2 != r and any(w % v for w in row.values())),
            None,
        )
        if bad is None:
            pivots.append((r, c, abs(v)))
            del rows[r]
        else:
            # fold the offending row in; the next pass shrinks the pivot
            _add(pivot_row, bad, 1)


def snf(a: SparseIntMat) -> SnfResult:
    """Smith normal form of ``a``: peeled on its arrays, then reduced as rows.

    ``_peel`` takes the singleton +-1 pivots and builds rows of the entries
    left, ``_unit_phase`` takes the other +-1 pivots and ``_core_phase`` the
    rest; the pivots are those of ``_unit_phase`` on ``_rows(a)``.  ``a`` is
    left unchanged.  Returns the invariant factors with their divisibility
    chain, the rank and the rows of the unit-phase pivots, the peel's first.
    """
    pivots: list[tuple[int, int, int]] = []
    rows = _peel(a, pivots)
    _unit_phase(rows, pivots)
    units = len(pivots)
    _core_phase(rows, pivots)

    pivot_rows, _, factors = zip(*pivots) if pivots else ((), (), ())
    core = factors[units:]  # the unit phase's factors are all 1
    for d, e in zip(core, core[1:]):
        if e % d:
            raise AssertionError("invariant factor chain violated")
    return SnfResult(invariant_factors=factors, rank=len(factors), unit_rows=pivot_rows[:units])


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
        for row in reduced + active:
            f = row.get(c)
            if f:
                for k, v in pivot.items():
                    w = row.get(k, Fraction(0)) - f * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
        active = [row for row in active if row]
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
