"""The cube of resolutions of a word and its bigraded chain complex.

Every total resolution of the crossings is a vertex of an m-dimensional cube,
carrying the free module on {1, X}-labellings of its circles; an edge flips
one resolution bit from 0 to 1 and either merges two circles (multiplication)
or splits one (comultiplication), with a sign that makes every square of the
cube anticommute.  Summing the signed edge maps gives a differential whose
homology is computed elsewhere; this module only builds bases, edges and
matrices.

A labelling is held as a mask, bit k set when circle k carries X.  With x
bits set on the c circles of a vertex of weight w (number of 1-bits), its
quantum degree c - 2x + w already includes the per-column degree shift, so
every edge map preserves the quantum degree on the nose.

Vertices are built lazily per homological degree so that words near the
crossing limit never materialize the whole cube at once.  A vertex holds the
circle of each arc of the word's arc graph and each circle's key, its first
arc.  Only the all-zero vertex is traced by ``circles``; every other vertex
is built from its parent, the vertex with its highest set bit cleared, by
the one circle surgery at that crossing.  A merge relabels one circle as
the other; a split traces one piece, the one without the old key, through
the new resolution, and inserts its key among the others.  Circles away
from the crossing keep their arcs, hence their keys and order.

An edge's surgery is read from two arcs per side of its crossing: each
resolution joins the crossing's four corners in two pairs, and the first
arc of each pair names the circle through it.  An edge record holds only
its target, its sign and the touched circles: the untouched circles keep
their keys, hence their order, so where they go follows from the circle
count and the touched circles alone.

A block d^{i,j} is assembled without a basis list.  A vertex's labellings of
one quantum degree fill a run of consecutive basis indices, so an index is
the vertex's run start plus the rank of its label mask among the masks of
the same weight.  Each edge writes its entries from a template, the map from
each source run to (column offset, row rank) pairs, which depends only on the
edge's circle surgery and is memoized per surgery, shared by every cube.
Blocks are written by rows into a row-major ``SparseIntMat``, the one matrix
type that ``snf``, the F_p checks and the cone maps all read, and are cached
as built.  Columns that the homology walk carries over from the previous
degree are never built.  The cone maps of a split along one crossing use the
same numbering: a vertex of a resolved word is a vertex of one face of the
cube, with the same circles in the same order, so each run maps onto a run.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .diagram import (
    CrossingLimitError,
    Word,
    circles,
    label_crossings,
    resolve_crossing,
)
from .zalgebra import SparseIntMat

DEFAULT_MAX_CROSSINGS = 16


class VertexData:
    """One resolution: the circle of each arc and each circle's key.

    ``arcs[a]`` is the index of the circle through arc a of the word's arc
    graph and ``keys[k]`` is circle k's first arc.  Circles are numbered by
    key, and arc order is key order, so the numbering is that of
    ``circles``.
    """

    __slots__ = ("eps", "weight", "arcs", "keys")

    def __init__(self, eps: int, weight: int, arcs: tuple[int, ...], keys: tuple[int, ...]):
        self.eps = eps
        self.weight = weight
        self.arcs = arcs
        self.keys = keys

    @property
    def count(self) -> int:
        return len(self.keys)


class EdgeData(NamedTuple):
    """A cube edge out of a vertex: what assembly reads of it.

    ``target`` is the source mask with one bit flipped 0 -> 1, and ``sign``
    is -1 to the number of 1-bits strictly before that bit.  The touched
    circles, ascending, are ``src_affected`` and ``tgt_affected``: two merge
    into one, or one splits into two.  The others follow by ``_carry``.
    """

    target: int
    sign: int
    src_affected: tuple[int, ...]
    tgt_affected: tuple[int, ...]


class CubeComplex:
    """All resolutions of a word, with per-degree lazy materialization."""

    def __init__(self, word: Word, max_crossings: int = DEFAULT_MAX_CROSSINGS):
        m = word.crossing_count
        if m > max_crossings:
            raise CrossingLimitError(
                f"word has {m} crossings, limit is {max_crossings}"
            )
        self.word = word
        self.labels = label_crossings(word)
        self.m = m
        self.n_plus = word.n_plus
        self.n_minus = word.n_minus
        self.strands = word.strands
        # per crossing and side (bit 0, bit 1), the first arc of each of the
        # two pairs of corners that the resolution joins
        self._graph = graph = word._arcs
        corners = [()] * m
        for flat, smooth_bit, smoothed, straight in graph.letters:
            if flat is not None:
                sides = (straight, smoothed) if smooth_bit else (smoothed, straight)
                corners[flat] = tuple(tuple(a for a, _ in pairs) for pairs in sides)
        self._corners = tuple(corners)
        self._vertices: dict[int, dict[int, VertexData]] = {}
        self._basis: dict[int, dict[int, list[tuple[int, int]]]] = {}
        self._basis_index: dict[int, dict[int, dict[tuple[int, int], int]]] = {}
        self._run_starts: dict[int, tuple[dict[int, tuple[int, ...]], dict[int, int]]] = {}
        self._blocks: dict[int, dict[int, SparseIntMat]] = {}

    # -- vertices ---------------------------------------------------------

    def _root(self) -> VertexData:
        """The all-zero resolution, traced by ``circles``."""
        graph = self._graph
        state = circles(self.word, (0,) * self.m)
        s = self.strands
        arcs = tuple(state.membership[r * s + k - 1] for r, k in graph.arc_keys)
        keys = tuple(graph.arc_of_point[r * s + k - 1] for r, k in state.keys)
        return VertexData(0, 0, arcs, keys)

    def _child(self, parent: VertexData, bit: int) -> VertexData:
        """The vertex ``parent.eps | 1 << bit``, by the surgery at crossing ``bit``."""
        eps = parent.eps | 1 << bit
        (a, b), (u, v) = self._corners[bit]
        arcs, keys = parent.arcs, parent.keys
        ca, cb = arcs[a], arcs[b]
        if ca != cb:
            # merge: the higher circle joins the lower, which keeps its key
            lo, hi = (ca, cb) if ca < cb else (cb, ca)
            arcs = tuple(map(_merge_relabel(len(keys), lo, hi).__getitem__, arcs))
            keys = keys[:hi] + keys[hi + 1:]
        else:
            # split: the piece without the old key is new, and its key,
            # the least of its arcs, exceeds the old one
            piece = self._graph.trace(eps, u)
            if keys[ca] in piece:
                piece = self._graph.trace(eps, v)
            key = min(piece)
            pos = bisect.bisect(keys, key)
            relabelled = list(map(_split_relabel(len(keys), pos).__getitem__, arcs))
            for arc in piece:
                relabelled[arc] = pos
            arcs = tuple(relabelled)
            keys = keys[:pos] + (key,) + keys[pos:]
        return VertexData(eps, parent.weight + 1, arcs, keys)

    def vertex(self, eps: int) -> VertexData:
        return self.vertices_by_eps(eps.bit_count())[eps]

    def vertices_by_eps(self, i: int) -> dict[int, VertexData]:
        """Vertices of degree i by resolution mask, ascending.

        Degree i is built from degree i - 1, which is built first if it is
        missing; each vertex comes from its parent, its mask with the highest
        set bit cleared.
        """
        if i < 0 or i > self.m:
            return {}
        if i not in self._vertices:
            if i == 0:
                degree = {0: self._root()}
            else:
                degree = {}
                for eps, parent in self.vertices_by_eps(i - 1).items():
                    for b in range(eps.bit_length(), self.m):
                        degree[eps | 1 << b] = self._child(parent, b)
            self._vertices[i] = dict(sorted(degree.items()))
        return self._vertices[i]

    def release_degree(self, i: int):
        """Drop cached data for one homological degree."""
        self._vertices.pop(i, None)
        self._basis.pop(i, None)
        self._basis_index.pop(i, None)
        self._run_starts.pop(i, None)
        self._blocks.pop(i, None)

    # -- edges ------------------------------------------------------------

    def edge(self, eps: int, bit: int) -> EdgeData:
        if (eps >> bit) & 1:
            raise ValueError("edge bit is already set in the source")
        target = eps | (1 << bit)
        # both degrees are held while the walk assembles, so read them directly
        w = eps.bit_count()
        held = self._vertices
        src = (held.get(w) or self.vertices_by_eps(w))[eps].arcs
        tgt = (held.get(w + 1) or self.vertices_by_eps(w + 1))[target].arcs
        (s0, s1), (t0, t1) = self._corners[bit]
        a, b = src[s0], src[s1]
        u, v = tgt[t0], tgt[t1]
        if a != b and u == v:
            src_affected, tgt_affected = (min(a, b), max(a, b)), (u,)
        elif a == b and u != v:
            src_affected, tgt_affected = (a,), (min(u, v), max(u, v))
        else:
            raise AssertionError("edge surgery did not change the circle count by one")
        sign = -1 if (eps & ((1 << bit) - 1)).bit_count() & 1 else 1
        return EdgeData(target, sign, src_affected, tgt_affected)

    # -- bases and matrices -------------------------------------------------
    #
    # The basis of C^{i,j} lists vertices by resolution mask and, within a
    # vertex's run, its label masks with x = (c + i - j) / 2 X-labels in
    # ascending order.

    def _runs(self, i: int) -> tuple[dict[int, tuple[int, ...]], dict[int, int]]:
        """Run starts of C^i per vertex, indexed by X count, and dim C^{i,j}."""
        if i not in self._run_starts:
            starts: dict[int, tuple[int, ...]] = {}
            dims: dict[int, int] = {}
            for eps, vx in self.vertices_by_eps(i).items():
                c = vx.count
                run = []
                for x in range(c + 1):
                    j = c + i - 2 * x
                    start = dims.get(j, 0)
                    run.append(start)
                    dims[j] = start + math.comb(c, x)
                starts[eps] = tuple(run)
            self._run_starts[i] = (starts, dims)
        return self._run_starts[i]

    def chain_ranks(self, i: int) -> dict[int, int]:
        """dim C^{i,j} for every quantum degree j where it is nonzero."""
        return self._runs(i)[1]

    def chain_rank(self, i: int, j: int) -> int:
        return self._runs(i)[1].get(j, 0)

    def chain_basis(self, i: int) -> dict[int, list[tuple[int, int]]]:
        """Basis elements (eps, mask) of C^i, grouped by quantum degree.

        Elements are ordered by resolution mask, then by label mask.
        """
        if i < 0 or i > self.m:
            return {}
        if i not in self._basis:
            built: dict[int, list[tuple[int, int]]] = {}
            for eps, vx in self.vertices_by_eps(i).items():
                c = vx.count
                for mask in range(1 << c):
                    built.setdefault(c + i - 2 * mask.bit_count(), []).append((eps, mask))
            self._basis[i] = built
        return self._basis[i]

    def basis_index(self, i: int) -> dict[int, dict[tuple[int, int], int]]:
        """Position of each basis element of C^{i,j}, per quantum degree."""
        if i not in self._basis_index:
            self._basis_index[i] = {
                j: {elem: n for n, elem in enumerate(elems)}
                for j, elems in self.chain_basis(i).items()
            }
        return self._basis_index[i]

    def differential_blocks(self, i: int) -> dict[int, SparseIntMat]:
        """All quantum-degree blocks of d: C^i -> C^{i+1}, from one sweep."""
        if i not in self._blocks:
            self._blocks[i] = self._assemble(i, self.chain_ranks(i), {})
        return self._blocks[i]

    def differential_matrix(self, i: int, j: int) -> SparseIntMat:
        """Matrix of d restricted to quantum degree j, rows = (i+1, j) basis.

        Read from the sweep of ``differential_blocks(i)``; where C^{i,j} is
        zero it is the matrix of width 0 and height dim C^{i+1,j}.
        """
        block = self.differential_blocks(i).get(j)
        if block is None:
            return SparseIntMat.of_rows(self.chain_rank(i + 1, j), 0, 0, {})
        return block

    def _assemble(self, i: int, js, carried) -> dict[int, SparseIntMat]:
        """Blocks of d: C^i -> C^{i+1} at the quantum degrees ``js``, in one sweep.

        Columns are numbered from the run starts of C^i and rows from those
        of C^{i+1}, plus mask rank within a run; each edge writes all its
        source runs from one template.  ``carried`` maps j to columns never
        built (the homology walk's unit-pivot rows of d^{i-1,j}); blocks keep
        their full shape.  Only ``differential_blocks`` caches the sweep.

        Each block is written by rows, ``{row: {col: sign}}``, which is how
        ``snf`` reads it.  A (row, column) pair gets at most one term, since
        the edges out of a vertex reach distinct target runs and a split's two
        images differ, so entries are assigned.  The entries are in range by
        construction: template ranks lie in their target run, and every
        target run must end within the rows.
        """
        col_starts, col_dims = self._runs(i)
        row_starts, row_dims = self._runs(i + 1)
        by_row = {j: [{} for _ in range(row_dims.get(j, 0))] for j in js}
        dead = {j: sorted(carried[j]) for j in js if carried.get(j)}
        for eps, vx in self.vertices_by_eps(i).items():
            c = vx.count
            runs = []
            for x in range(c + 1):
                j = c + i - 2 * x
                block = by_row.get(j)
                if block is None:
                    continue
                first = col_starts[eps][x]
                skip = ()
                if j in dead:
                    end = first + math.comb(c, x)
                    lo = bisect.bisect_left(dead[j], first)
                    hi = bisect.bisect_left(dead[j], end, lo)
                    if hi - lo == end - first:
                        continue
                    skip = {col - first for col in dead[j][lo:hi]}
                runs.append((x, block, first, skip))
            if not runs:
                continue
            for b in range(self.m):
                if (eps >> b) & 1:
                    continue
                target, sign, src_affected, tgt_affected = self.edge(eps, b)
                template = _edge_template(c, src_affected, tgt_affected)
                target_starts = row_starts[target]
                for x, block, first, skip in runs:
                    x_out, size, terms = template[x]
                    if not terms:
                        continue
                    row = target_starts[x_out]
                    if row + size > len(block):
                        raise AssertionError("target run ends beyond the block's rows")
                    if skip:
                        for offset, rank in terms:
                            if offset not in skip:
                                block[row + rank][first + offset] = sign
                    else:
                        for offset, rank in terms:
                            block[row + rank][first + offset] = sign
        blocks = {}
        for j in js:
            rows = {r: entries for r, entries in enumerate(by_row[j]) if entries}
            nnz = sum(map(len, rows.values()))
            blocks[j] = SparseIntMat.of_rows(len(by_row[j]), col_dims.get(j, 0), nnz, rows)
        return blocks


@functools.cache
def _masks_of_weight(c: int, x: int) -> tuple[int, ...]:
    """Label masks on c circles with exactly x circles labelled X, ascending."""
    return tuple(mask for mask in range(1 << c) if mask.bit_count() == x)


@functools.cache
def _mask_ranks(c: int) -> tuple[int, ...]:
    """Rank of each label mask on c circles among the masks of its weight."""
    seen = [0] * (c + 1)
    ranks = []
    for mask in range(1 << c):
        x = mask.bit_count()
        ranks.append(seen[x])
        seen[x] += 1
    return tuple(ranks)


@functools.cache
def _merge_relabel(c: int, lo: int, hi: int) -> tuple[int, ...]:
    """Circle index map of a merge of circles lo < hi among c: hi becomes lo."""
    return tuple(lo if k == hi else k - (k > hi) for k in range(c))


@functools.cache
def _split_relabel(c: int, pos: int) -> tuple[int, ...]:
    """Circle index map of c circles as a new circle is inserted at ``pos``."""
    return tuple(k + (k >= pos) for k in range(c))


def _carry(
    c: int, src_affected: tuple[int, ...], tgt_affected: tuple[int, ...]
) -> tuple[Optional[int], ...]:
    """Target index of each of c source circles across an edge, None if touched.

    The untouched circles keep their keys, and circles are numbered by key,
    so they keep their order: the k-th untouched source circle is the k-th
    untouched target circle.
    """
    c_out = c - len(src_affected) + len(tgt_affected)
    untouched = iter([t for t in range(c_out) if t not in tgt_affected])
    return tuple(None if k in src_affected else next(untouched) for k in range(c))


@functools.cache
def _edge_template(
    c: int, src_affected: tuple[int, ...], tgt_affected: tuple[int, ...]
) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """An edge's map from each source run, indexed by its X count x.

    Run x is (x', size, terms): the target run has the ``size`` masks with
    x' X-labels (x for a merge, x + 1 for a split), and each term is a shared
    ``_term`` pair (column offset, row rank), the rank checked to lie in the
    target run.  The circle count and the touched circles fix the surgery,
    carry included, whatever the word, so every cube shares it.
    """
    carry = _carry(c, src_affected, tgt_affected)
    c_out = c - len(src_affected) + len(tgt_affected)
    rank = _mask_ranks(c_out)
    scatter = [(k, t) for k, t in enumerate(carry) if t is not None]
    runs = []
    for x in range(c + 1):
        x_out = x if len(tgt_affected) == 1 else x + 1
        size = math.comb(c_out, x_out)
        terms = []
        for offset, mask in enumerate(_masks_of_weight(c, x)):
            base = sum(1 << t for k, t in scatter if (mask >> k) & 1)
            for out in _image_masks(src_affected, tgt_affected, mask, base):
                terms.append(_term(offset, rank[out]))
        if any(not 0 <= r < size for _, r in terms):
            raise AssertionError("edge template row outside its target run")
        runs.append((x_out, size, tuple(terms)))
    return tuple(runs)


@functools.cache
def _term(offset: int, rank: int) -> tuple[int, int]:
    return offset, rank


def _image_masks(
    src_affected: tuple[int, ...], tgt_affected: tuple[int, ...], mask: int, base: int
) -> tuple[int, ...]:
    """Target label masks of one basis element across one edge's surgery.

    Merge by (1,1)->1, (1,X)->X, (X,1)->X, (X,X)->0, split by 1 -> 1|X + X|1
    and X -> X|X.  ``base`` holds the X-labels of the untouched circles,
    already carried.
    """
    if len(src_affected) == 2:
        a, b = src_affected
        xa = (mask >> a) & 1
        xb = (mask >> b) & 1
        if xa and xb:
            return ()
        (t,) = tgt_affected
        return (base | ((xa | xb) << t),)
    (a,) = src_affected
    t1, t2 = tgt_affected
    if (mask >> a) & 1:
        return (base | (1 << t1) | (1 << t2),)
    return (base | (1 << t1), base | (1 << t2))


def build_cube(word: Word, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> CubeComplex:
    """Build the cube of resolutions of a word, guarding the crossing budget."""
    return CubeComplex(word, max_crossings=max_crossings)


# -- mapping cone decomposition ---------------------------------------------


@dataclass
class ConeSplit:
    """The cube split along one crossing into a subcomplex and a quotient.

    Vertices with the chosen bit set form a subcomplex isomorphic to the cube
    of the 1-resolution shifted by one homological and one quantum degree; the
    bit-0 vertices form the quotient, the cube of the 0-resolution.  All
    three maps come from ``_face_matrix``, which sends each run of a resolved
    word's basis onto a run of one face of the total cube.
    ``inclusion_matrix`` and ``projection_matrix`` are honest chain maps: the
    inclusion carries the sign needed to absorb the flipped bit's
    contribution to edge signs at positions above the chosen crossing, and
    the projection is the transpose of the lift, a bijection onto the
    0-face.  Each face map is built once per (bit, i, j), and each
    projection once per (i, j), and kept on the split.
    """

    total: CubeComplex
    sub: CubeComplex
    quotient: CubeComplex
    flat_index: int

    def __post_init__(self):
        self._faces: dict[tuple[int, int, int], SparseIntMat] = {}
        self._projections: dict[tuple[int, int], SparseIntMat] = {}

    # bit bookkeeping: positions in the total word vs. the resolved words
    def _embed(self, eps_small: int, bit: int) -> int:
        pi = self.flat_index
        low = eps_small & ((1 << pi) - 1)
        high = eps_small >> pi
        return (high << (pi + 1)) | (bit << pi) | low

    def _sign(self, eps_small: int) -> int:
        # 1-bits of the subcomplex vertex above the resolved position flip the
        # sign so the inclusion commutes with the differentials
        return -1 if (eps_small >> self.flat_index).bit_count() & 1 else 1

    def _face_matrix(self, small: CubeComplex, bit: int, i: int, j: int) -> SparseIntMat:
        """C^{i-bit, j-bit}(small) -> C^{i, j}(total), onto the ``bit`` face.

        Each basis element of the resolved word goes to the element of the
        total cube whose vertex has the chosen bit set to ``bit`` and whose
        circles carry the same labels, so a run of x X-labels goes rank by
        rank onto the face vertex's run of x X-labels; the 1-face carries
        ``_sign``.
        """
        small_starts, small_dims = small._runs(i - bit)
        total_starts = self.total._runs(i)[0]
        by_row: dict[int, dict[int, int]] = {}
        for eps_small, starts in small_starts.items():
            big = total_starts[self._embed(eps_small, bit)]
            # Circle k of the resolved vertex is circle k of the face vertex.
            # A smoothing keeps the grid and resolves every letter alike, so
            # the circles keep their keys.  Deleting letter t merges row t + 1
            # into row t (row t into row 0 if t is last); a merged point lies
            # on its partner's circle and the partner is the smaller point,
            # so no circle's least point moves out of order.
            if len(starts) != len(big):
                raise AssertionError("face vertex has another circle count")
            c = len(starts) - 1
            x, odd = divmod(c + i - j, 2)
            if odd or not 0 <= x <= c:
                continue
            col, row = starts[x], big[x]
            sign = self._sign(eps_small) if bit else 1
            for k in range(math.comb(c, x)):
                by_row[row + k] = {col + k: sign}
        cols = small_dims.get(j - bit, 0)
        return SparseIntMat.of_rows(self.total.chain_rank(i, j), cols, cols, by_row)

    def _face(self, bit: int, i: int, j: int) -> SparseIntMat:
        key = (bit, i, j)
        if key not in self._faces:
            small = self.sub if bit else self.quotient
            self._faces[key] = self._face_matrix(small, bit, i, j)
        return self._faces[key]

    def inclusion_matrix(self, i: int, j: int) -> SparseIntMat:
        """Chain map C^{i-1, j-1}(1-resolution) -> C^{i, j}(total)."""
        return self._face(1, i, j)

    def projection_matrix(self, i: int, j: int) -> SparseIntMat:
        """Chain map C^{i, j}(total) -> C^{i, j}(0-resolution).

        The lift is a bijection onto the 0-face, so the projection is its
        transpose.
        """
        if (i, j) not in self._projections:
            self._projections[i, j] = self._face(0, i, j).transpose()
        return self._projections[i, j]

    def lift_matrix(self, i: int, j: int) -> SparseIntMat:
        """The obvious degreewise section of the projection."""
        return self._face(0, i, j)


def mapping_cone_split(cube: CubeComplex, flat_index: int) -> ConeSplit:
    """Split the cube along one crossing into subcomplex and quotient.

    The 1-resolution cube enters shifted by one homological and one quantum
    degree; both structure maps commute with the differentials exactly.
    """
    if not 0 <= flat_index < cube.m:
        raise IndexError(f"crossing index {flat_index} out of range")
    word = cube.word
    sub_word = resolve_crossing(word, flat_index, 1)
    quot_word = resolve_crossing(word, flat_index, 0)
    # the split words have one crossing less; they always fit the same budget
    sub = CubeComplex(sub_word, max_crossings=cube.m)
    quotient = CubeComplex(quot_word, max_crossings=cube.m)
    return ConeSplit(total=cube, sub=sub, quotient=quotient, flat_index=flat_index)
