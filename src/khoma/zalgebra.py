"""Exact sparse linear algebra over the integers, the rationals and F_p.

Everything is exact: matrices carry arbitrary-precision integer entries,
Smith normal form is computed by unimodular row and column operations (only
the invariant factors are kept, not the transforms), and rational ranks,
kernels and images use Fraction arithmetic.  No floating point is ever
involved.

There is one matrix type, ``SparseIntMat``, held row-major: the cube writes
its boundary blocks by rows and ``snf`` reduces them by rows.  The
reduction works on copies of the rows and leaves its input as it was.

The Smith reduction runs in two phases.  Entries of absolute value one are
eliminated first, shortest row first, each in its shortest column, and each
pivot row is deleted once its column is cleared; this clears the bulk of the
chain-complex boundary matrices this library exists for with little fill and
small entries.  Rows of length one and two give almost every pivot and wait
in queues of their own.  Whatever survives is reduced by the classic
textbook procedure (smallest pivot, remainder swaps, divisibility sweep),
which guarantees the divisibility chain of the invariant factors.

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
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence


@dataclass(frozen=True, init=False)
class SparseIntMat:
    """Immutable sparse integer matrix, held row-major.

    ``by_row`` maps each nonempty row to its nonzero entries ``{col: value}``
    and ``nnz`` counts them; ``entries`` is the same matrix keyed by
    (row, col), built when read.  The public constructor checks the range of
    its entries, refuses a shape, index or value that is not an integer and
    drops zeros; ``of_rows`` takes rows the engine built itself.  Equality
    compares the shape and the rows.  Nothing reading a matrix may mutate
    ``by_row``.
    """

    rows: int
    cols: int
    nnz: int = field(compare=False)
    by_row: dict[int, dict[int, int]]

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        index = operator.index
        try:
            rows, cols = index(rows), index(cols)
            items = [((index(r), index(c)), v) for (r, c), v in (entries or {}).items()]
        except TypeError:
            raise ValueError("matrix shape and entry indices must be integers") from None
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        by_row: dict[int, dict[int, int]] = {}
        nnz = 0
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
                by_row.setdefault(r, {})[c] = iv
                nnz += 1
        # frozen: the fields are filled past the blocked __setattr__
        vars(self).update(rows=rows, cols=cols, nnz=nnz, by_row=by_row)

    @classmethod
    def of_rows(cls, rows: int, cols: int, nnz: int, by_row: dict[int, dict[int, int]]):
        """A matrix that takes ``by_row`` as it is, without copy or check.

        For matrices the engine builds itself: every row nonempty, every
        entry a nonzero int inside the shape, ``nnz`` their count.  The
        caller must not mutate ``by_row`` afterwards.
        """
        mat = object.__new__(cls)
        vars(mat).update(rows=rows, cols=cols, nnz=nnz, by_row=by_row)
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
    def entries(self) -> Mapping[tuple[int, int], int]:
        """The nonzero entries keyed by (row, col), a read-only view."""
        return MappingProxyType(
            {(r, c): v for r, row in self.by_row.items() for c, v in row.items()}
        )

    def get(self, r: int, c: int) -> int:
        return self.by_row.get(r, {}).get(c, 0)

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, row in self.by_row.items():
            for c, v in row.items():
                dense[r][c] = v
        return dense

    def transpose(self) -> "SparseIntMat":
        by_col: dict[int, dict[int, int]] = {}
        for r, row in self.by_row.items():
            for c, v in row.items():
                by_col.setdefault(c, {})[r] = v
        return SparseIntMat.of_rows(self.cols, self.rows, self.nnz, by_col)

    def __matmul__(self, other: "SparseIntMat") -> "SparseIntMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out: dict[int, dict[int, int]] = {}
        for r, row in self.by_row.items():
            acc: dict[int, int] = {}
            for k, v in row.items():
                for c, w in other.by_row.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                out[r] = acc
        return SparseIntMat.of_rows(
            self.rows, other.cols, sum(map(len, out.values())), out
        )


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

    The rows are copies of the input's, so the input is never changed.
    ``col[c]`` lists the rows with an entry in column ``c``, each once and
    in no particular order; a column without entries has no list.
    """

    def __init__(self, a: SparseIntMat):
        self.row = {r: dict(entries) for r, entries in a.by_row.items()}
        self.col: dict[int, list[int]] = {}
        for r, entries in self.row.items():
            for c in entries:
                self.col.setdefault(c, []).append(r)

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

    Rows of length 1 and 2 wait in one heap of row numbers per length, pushed
    whenever a change leaves them at that length.  Longer changed rows wait
    in a set that is pushed into a (length, row) heap only once both short
    heaps are empty.  Entries whose row died or changed length are skipped;
    a row without a unit waits until it changes again.  The row taken pivots
    on its +-1 entry in the shortest column; that column is cleared by row
    operations and the pivot row is deleted outright.  No column operations
    are needed: once the column holds nothing but the pivot, they could only
    zero the rest of the pivot row, and no transforms are kept.  A pivot row
    of length 1 clears its column without row operations: each other row of
    the column just loses its entry there.

    Each pivot row is reduced only by earlier pivot rows, so the pivot rows
    meet the pivot columns in a unimodular block.
    """
    row, col = work.row, work.col
    heappush, heappop = heapq.heappush, heapq.heappop
    # a sorted list is a heap; short[k] holds the rows of length k = 1, 2
    ones, twos = (sorted(r for r, e in row.items() if len(e) == k) for k in (1, 2))
    short = (None, ones, twos)
    changed = {r for r, entries in row.items() if len(entries) > 2}
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
        v = entries[c]
        for r2 in [r2 for r2 in col[c] if r2 != r]:
            work.add_row(r2, r, -v * row[r2][c])  # 1/v == v for a unit
            k = len(row.get(r2, ()))
            if k > 2:
                changed.add(r2)
            elif k:
                heappush(short[k], r2)
        pivots.append((r, c, 1))
        work.drop_row(r)
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
    """Smith normal form of ``a``, reduced on copies of its ``by_row``.

    ``a`` is left unchanged.  Returns the invariant factors with their
    divisibility chain, the rank and the rows of the unit-phase pivots.
    """
    work = _Reduction(a)
    pivots: list[tuple[int, int, int]] = []
    _unit_phase(work, pivots)
    unit_rows = tuple(r for r, _, _ in pivots)
    _core_phase(work, pivots)

    factors = tuple(v for _, _, v in pivots)
    for d, e in zip(factors, factors[1:]):
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
    basis = []
    for c in pivot_cols:
        vec = [Fraction(0)] * a.rows
        for r in range(a.rows):
            v = a.get(r, c)
            if v:
                vec[r] = Fraction(v)
        basis.append(vec)
    return basis


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
    for r, row in a.by_row.items():
        for c, v in row.items():
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
