"""Smith normal form, rational and F_p ranks, kernels and images."""

import collections
import copy
import hashlib
import heapq
import itertools
import pickle
import random
import types
from array import array
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from khoma.cube import build_cube
from khoma.diagram import parse_word, torus_word
from khoma.homology import homology_unnormalized
from khoma.zalgebra import (
    EchelonModP,
    SparseIntMat,
    _core_phase,
    _rows,
    _unit_phase,
    columns_mod_p,
    image_basis_q,
    index_array,
    kernel_basis_q,
    rank_q,
    snf,
)


def dense_det(mat):
    """Fraction Gaussian determinant, for minor gcds."""
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def minor_gcd(mat, k):
    """gcd of all k x k minors; the product d_1...d_k must equal it."""
    rows, cols = len(mat), len(mat[0])
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            sub = [[mat[r][c] for c in csel] for r in rsel]
            g = gcd(g, int(dense_det(sub)))
    return g


def check_snf(dense):
    a = SparseIntMat.from_dense(dense, cols=len(dense[0]) if dense else 0)
    res = snf(a)
    assert res.rank == len(res.invariant_factors)
    assert all(d > 0 for d in res.invariant_factors)
    for d, e in zip(res.invariant_factors, res.invariant_factors[1:]):
        assert e % d == 0
    assert list(res.invariant_factors) == oracle.smith_factors(dense)
    return res


def test_snf_identity():
    res = check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert res.invariant_factors == (1, 1, 1)
    assert res.rank == 3


def test_snf_two_by_two():
    # gcd of entries is 2 and |det| = 8, forcing factors (2, 4)
    res = check_snf([[2, 4], [6, 8]])
    assert res.invariant_factors == (2, 4)
    assert res.rank == 2


def test_snf_zero_matrix():
    res = snf(SparseIntMat.zero(2, 5))
    assert res.invariant_factors == ()
    assert res.rank == 0


def test_snf_empty_matrix():
    res = snf(SparseIntMat.zero(0, 0))
    assert res.rank == 0
    assert list(res.invariant_factors) == oracle.smith_factors([])


def test_snf_torsion_example():
    res = check_snf([[2, 0], [0, 2]])
    assert res.invariant_factors == (2, 2)
    res = check_snf([[6, 0], [0, 10]])
    assert res.invariant_factors == (2, 30)


def test_snf_known_torsion_chain():
    res = check_snf(
        [
            [2, 4, 4],
            [-6, 6, 12],
            [10, 4, 16],
        ]
    )
    assert res.invariant_factors == (2, 2, 156)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_snf_matches_minor_gcd_oracle(dense):
    res = check_snf(dense)
    prod = 1
    for k, d in enumerate(res.invariant_factors, start=1):
        prod *= d
        assert prod == minor_gcd(dense, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_rank_q_equals_snf_rank_on_random_sparse(seed):
    rng = random.Random(seed)
    rows = rng.randrange(1, 50)
    cols = rng.randrange(1, 50)
    entries = {}
    for _ in range(rng.randrange(0, 3 * max(rows, cols))):
        entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice(
            [v for v in range(-9, 10) if v]
        )
    a = SparseIntMat(rows, cols, entries)
    assert rank_q(a) == snf(a).rank


def random_sparse(rng, bound, values, least=1):
    """A random matrix of at most ``bound - 1`` rows and columns."""
    rows = rng.randrange(1, bound)
    cols = rng.randrange(1, bound)
    entries = {}
    for _ in range(rng.randrange(least, 3 * max(rows, cols))):
        entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice(values)
    return SparseIntMat(rows, cols, entries)


@pytest.mark.parametrize("seed", range(30))
def test_unit_rows_meet_pivot_columns_unimodularly(seed):
    a = random_sparse(random.Random(seed), 40, [-3, -2, -1, -1, 1, 1, 2, 3])
    unit_rows = snf(a).unit_rows
    pivots: list = []
    _unit_phase(_rows(a), pivots)
    assert unit_rows == tuple(r for r, _, _ in pivots)
    assert unit_rows, "a random matrix with +-1 entries has unit pivots"
    row_at = {r: n for n, r in enumerate(unit_rows)}
    col_at = {c: n for n, (_, c, _) in enumerate(pivots)}
    block = SparseIntMat(
        len(row_at),
        len(col_at),
        {
            (row_at[r], col_at[c]): v
            for (r, c), v in a.entries.items()
            if r in row_at and c in col_at
        },
    )
    res = snf(block)
    assert res.rank == len(unit_rows)
    assert set(res.invariant_factors) <= {1}


@pytest.mark.parametrize("seed", [*range(25), "tall"])
def test_snf_reads_row_blocks_without_changing_them(seed):
    """Entries taken by ``of_arrays`` reduce like the equal checked matrix, intact.

    The tall input has the shape the unit phase leaves of the cube's blocks:
    thousands of rows of one entry each, here +-2, +-4 or 6 in three columns.
    """
    if seed == "tall":
        rng = random.Random(7100)
        rows, cols = 3000, 3
        dense = [[0] * cols for _ in range(rows)]
        for line in dense:
            c = rng.randrange(cols)
            line[c] = rng.choice(([-4, 4, 6], [-2, 2, -4, 4], [6])[c])
    else:
        rng = random.Random(7000 + seed)
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        dense = [
            [rng.choice([0, 0, 0, -4, -2, -1, 1, 2, 3, 6]) for _ in range(cols)]
            for _ in range(rows)
        ]
    mat = SparseIntMat.from_dense(dense)
    assert mat.nnz == sum(map(len, mat.by_row.values()))
    # the same rows, written in another order as assembly might write them
    order = list(range(rows))
    rng.shuffle(order)
    by_row = {
        r: {c: dense[r][c] for c in reversed(range(cols)) if dense[r][c]}
        for r in order
        if any(dense[r])
    }
    assert by_row == mat.by_row
    size = max(rows, cols)
    block = SparseIntMat.of_arrays(
        rows,
        cols,
        index_array(size, [r for r, row in by_row.items() for _ in row]),
        index_array(size, [c for row in by_row.values() for c in row]),
        array("b", [v for row in by_row.values() for v in row.values()]),
    )
    assert block.nnz == mat.nnz
    before = copy.deepcopy(by_row)
    from_block, from_mat = snf(block), snf(mat)
    assert block.by_row == before
    assert from_block.invariant_factors == from_mat.invariant_factors
    assert from_block.rank == from_mat.rank
    assert from_block.unit_rows == from_mat.unit_rows
    assert list(from_block.invariant_factors) == oracle.smith_factors(dense)
    assert block == mat


def add_row(row, col, dst, src, factor):
    """row_dst += factor * row_src, adding ``dst`` to the column sets it
    enters and removing it from those it cancels."""
    drow = row[dst]
    for c, v in row[src].items():
        if c not in drow:
            drow[c] = factor * v
            col[c].add(dst)
        elif drow[c] + factor * v:
            drow[c] += factor * v
        else:
            del drow[c]
            col[c].remove(dst)
    if not drow:
        del row[dst]


def drop_row(row, col, r):
    """Delete row ``r``, removing it from its columns and dropping the empty ones."""
    for c in row.pop(r):
        col[c].remove(r)
        if not col[c]:
            del col[c]


def unit_phase_by_row_operations(a, pivots, lengths=None):
    """The reference unit phase on ``a.by_row``, with column sets of its own:
    one (length, row) heap, pushed on every change and popped past stale
    entries, and every pivot column cleared by row operations.  ``_unit_phase``
    must take the same pivots in the same order and leave the same rows;
    returns the rows left and how many pivots rows of length 1 gave, and
    counts the pivots by the length of their row into ``lengths`` when given.
    """
    row = a.by_row
    col: dict = {}
    for r, entries in row.items():
        for c in entries:
            col.setdefault(c, set()).add(r)
    n = max(row, default=0) + 1
    heap = [len(entries) * n + r for r, entries in row.items()]
    heapq.heapify(heap)
    singletons = 0
    while heap:
        length, r = divmod(heapq.heappop(heap), n)
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
            add_row(row, col, r2, r, -v * row[r2][c])
            if r2 in row:
                heapq.heappush(heap, len(row[r2]) * n + r2)
        pivots.append((r, c, 1))
        singletons += length == 1
        if lengths is not None:
            lengths[length] += 1
        drop_row(row, col, r)
    return row, singletons


def assert_singleton_pivots_match_row_operations(a, lengths=None):
    """Same pivots, same leftover rows, same ``unit_rows``; the core phase
    then empties the rows.  Returns the singleton and the core pivot counts."""
    rows, pivots, slow_pivots = _rows(a), [], []
    _unit_phase(rows, pivots)
    slow_rows, singletons = unit_phase_by_row_operations(a, slow_pivots, lengths)
    assert pivots == slow_pivots
    assert rows == slow_rows
    res = snf(a)
    assert res.unit_rows == tuple(r for r, _, _ in slow_pivots)
    _core_phase(rows, pivots)
    assert rows == {}
    assert tuple(v for _, _, v in pivots) == res.invariant_factors
    return singletons, len(pivots) - len(slow_pivots)


def test_singleton_pivots_match_row_operations_on_random_matrices():
    singletons = core = 0
    for seed in range(60):
        rng = random.Random(9100 + seed)
        rows, cols = rng.randrange(1, 30), rng.randrange(1, 30)
        entries = {}
        for _ in range(rng.randrange(1, 3 * max(rows, cols))):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice(
                [-2, -1, -1, 1, 1, 2, 3]
            )
        counts = assert_singleton_pivots_match_row_operations(SparseIntMat(rows, cols, entries))
        singletons += counts[0]
        core += counts[1]
    assert singletons and core


def test_singleton_pivots_match_row_operations_on_cube_blocks():
    singletons = 0
    for w in [torus_word(3, 5), parse_word("1 -2 1 1 -2 -2 1", strands=3)]:
        cube = build_cube(w)
        for i in range(cube.m):
            for block in cube.differential_blocks(i).values():
                singletons += assert_singleton_pivots_match_row_operations(block)[0]
    assert singletons


def walk_blocks(word, monkeypatch):
    """The blocks the homology walk reduces, carried columns left out."""
    from khoma.cube import CubeComplex

    seen = []
    assemble = CubeComplex._assemble

    def record(cube, i, js, carried):
        blocks = assemble(cube, i, js, carried)
        seen.extend(blocks.values())
        return blocks

    with monkeypatch.context() as patch:
        patch.setattr(CubeComplex, "_assemble", record)
        homology_unnormalized(word)
    return seen


# pivots of the reference unit phase on the walk's blocks, by row length:
# rows of length 2, and of length 3 or more
WALK_PIVOTS_BY_LENGTH = {
    "T(3,5)": (894, 0),
    "T(2,7)": (229, 0),
    "1 -2 1 1 -2 -2 1": (120, 21),
}


def test_singleton_pivots_match_row_operations_on_walk_blocks(monkeypatch):
    """The blocks the walk reduces, not only uncarried ``differential_blocks``:
    rows of length 2 and longer give pivots there, cleared in one sweep."""
    words = {
        "T(3,5)": torus_word(3, 5),
        "T(2,7)": torus_word(2, 7),
        "1 -2 1 1 -2 -2 1": parse_word("1 -2 1 1 -2 -2 1", strands=3),
    }
    found = {}
    for name, word in words.items():
        lengths = collections.Counter()
        for block in walk_blocks(word, monkeypatch):
            assert_singleton_pivots_match_row_operations(block, lengths)
        found[name] = (lengths[2], sum(k for n, k in lengths.items() if n > 2))
    assert found == WALK_PIVOTS_BY_LENGTH


# sha256 of the repr of every block's (unit_rows, invariant_factors), in walk order
WALK_PIVOTS_T36 = "d3b7a61f419f79bafca389a4ea14b57ff1cb4343568d232122d95a2b88d9da40"


def test_unit_phase_pivot_sequence_is_pinned(monkeypatch):
    """The pivot rows of every block the T(3,6) walk reduces are pinned, so
    a change of pivot rule or queue order fails here even where the ranks
    and torsion, and so the tables, stay the same."""
    blocks = walk_blocks(torus_word(3, 6), monkeypatch)
    assert len(blocks) == 64
    assert max((b.rows, b.cols, b.nnz) for b in blocks) == (3912, 3872, 17009)
    pivots = [(res.unit_rows, res.invariant_factors) for res in map(snf, blocks)]
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == WALK_PIVOTS_T36


def test_unit_phase_takes_a_unit_made_by_a_row_operation():
    """Row 1 has no unit until row 0 is subtracted from it twice."""
    dense = [[1, 1, 0], [2, 3, 2]]
    a = SparseIntMat.from_dense(dense)
    rows, pivots = _rows(a), []
    _unit_phase(rows, pivots)
    assert sorted(r for r, _, _ in pivots) == [0, 1]
    assert not any(abs(v) == 1 for row in rows.values() for v in row.values())
    assert list(snf(a).invariant_factors) == oracle.smith_factors(dense)


def test_long_row_pivots_match_row_operations():
    """Every row starts with 3 or more entries, so the first pivots come
    from the refreshed long-row heap, in the reference loop's order."""
    with_pivots = 0
    for seed in range(60):
        rng = random.Random(9300 + seed)
        rows, cols = rng.randrange(1, 25), rng.randrange(4, 25)
        entries = {
            (r, c): rng.choice([-2, -1, -1, 1, 1, 2, 3])
            for r in range(rows)
            for c in rng.sample(range(cols), rng.randrange(3, min(cols, 7) + 1))
        }
        a = SparseIntMat(rows, cols, entries)
        assert min(map(len, a.by_row.values())) >= 3
        assert_singleton_pivots_match_row_operations(a)
        with_pivots += bool(snf(a).unit_rows)
    assert with_pivots > 50


def test_unit_phase_pops_fewer_than_two_per_row(monkeypatch):
    """An operation count, not a timing: a long row enters the heap once
    per refresh, not once per change."""
    from khoma import zalgebra

    count = {"pops": 0, "rows": 0}
    rows_of = zalgebra._rows

    def counted_rows(a):
        rows = rows_of(a)
        count["rows"] += len(rows)
        return rows

    def counted_pop(heap):
        count["pops"] += 1
        return heapq.heappop(heap)

    seen = types.SimpleNamespace(**{**vars(heapq), "heappop": counted_pop})
    monkeypatch.setattr(zalgebra, "heapq", seen)
    monkeypatch.setattr(zalgebra, "_rows", counted_rows)
    homology_unnormalized(torus_word(3, 5))
    assert count["rows"] > 0
    assert count["pops"] < 2 * count["rows"], count


def test_rank_q_examples():
    assert rank_q(SparseIntMat.identity(5)) == 5
    assert rank_q(SparseIntMat.from_dense([[1, 2], [2, 4]])) == 1
    assert rank_q(SparseIntMat.zero(3, 4)) == 0


def test_kernel_identity_is_empty():
    assert kernel_basis_q(SparseIntMat.identity(3)) == []


def test_kernel_single_equation():
    basis = kernel_basis_q(SparseIntMat.from_dense([[1, 1]]))
    assert len(basis) == 1
    (vec,) = basis
    assert vec[0] == -vec[1] != 0


def test_image_rank_one():
    basis = image_basis_q(SparseIntMat.from_dense([[1, 2], [2, 4]]))
    assert len(basis) == 1
    (vec,) = basis
    assert vec == [Fraction(1), Fraction(2)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_rank_nullity_and_bases(seed):
    rng = random.Random(seed)
    rows = rng.randrange(1, 10)
    cols = rng.randrange(1, 10)
    entries = {
        (r, c): rng.randrange(-4, 5)
        for r in range(rows)
        for c in range(cols)
        if rng.random() < 0.4
    }
    a = SparseIntMat(rows, cols, entries)
    ker = kernel_basis_q(a)
    img = image_basis_q(a)
    r = rank_q(a)
    assert len(ker) + r == a.cols
    assert len(img) == r
    # every kernel vector really is annihilated
    for vec in ker:
        for row in range(a.rows):
            assert sum(Fraction(a.get(row, c)) * vec[c] for c in range(a.cols)) == 0


def test_matmul_and_transpose():
    a = SparseIntMat.from_dense([[1, 2], [0, 1]])
    b = SparseIntMat.from_dense([[1, 0], [3, 1]])
    assert (a @ b).to_dense() == [[7, 2], [3, 1]]
    assert a.transpose().to_dense() == [[1, 0], [2, 1]]
    with pytest.raises(ValueError):
        a @ SparseIntMat.zero(3, 3)


def test_entries_are_cleaned():
    a = SparseIntMat(2, 2, {(0, 0): 0, (1, 1): 5})
    assert a.nnz == 1
    with pytest.raises(ValueError):
        SparseIntMat(1, 1, {(1, 0): 2})


def test_non_integral_entries_are_refused():
    # neither stored as a zero entry nor truncated to an integer
    for v in (0.5, 2.7, -1.5, Fraction(1, 3), float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=r"entry \(0, 0\) is not an integer"):
            SparseIntMat(1, 1, {(0, 0): v})
    with pytest.raises(ValueError):
        SparseIntMat.from_dense([[0.5, 2]])
    # an integral value of another type is kept exactly
    a = SparseIntMat.from_dense([[2.0, Fraction(-6, 2)], [0.0, 1]])
    assert a.to_dense() == [[2, -3], [0, 1]] and a.nnz == 3
    assert all(type(v) is int for v in a.entries.values())


def test_non_integral_shapes_and_indices_are_refused():
    message = "matrix shape and entry indices must be integers"
    for rows, cols in ((2.5, 2), (2, 2.0), ("2", 2), (None, 2)):
        with pytest.raises(ValueError, match=message):
            SparseIntMat(rows, cols)
    for entries in ({(0.5, 0): 1, (1, 1): 1}, {(0, 1.0): 3}, {(Fraction(1), 0): 1}):
        with pytest.raises(ValueError, match=message):
            SparseIntMat(2, 2, entries)
    # an integer of another type is stored as an int
    a = SparseIntMat(True, 2, {(False, True): 3})
    assert (a.rows, a.cols) == (1, 2) and type(a.rows) is int
    assert a.by_row == {0: {1: 3}}
    assert all(type(k) is int for rc in a.entries for k in rc)


@pytest.mark.parametrize("seed", range(10))
def test_matrix_contract_survives_pickling(seed):
    """A pickled matrix comes back equal with the same Smith form,
    ``entries`` is exactly the constructor's nonzero entries, and the matrix
    stays checked and frozen."""
    rng = random.Random(9000 + seed)
    rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
    given = {
        (rng.randrange(rows), rng.randrange(cols)): rng.choice([0, -3, -1, 1, 2, 4])
        for _ in range(rng.randrange(0, 3 * max(rows, cols)))
    }
    a = SparseIntMat(rows, cols, given)
    assert a.entries == {rc: v for rc, v in given.items() if v}
    assert a.nnz == len(a.entries)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and back.nnz == a.nnz
    assert snf(back) == snf(a)
    with pytest.raises(ValueError):
        SparseIntMat(rows, cols, {(rows, 0): 1})
    with pytest.raises(ValueError):
        SparseIntMat(rows, cols, {(0, -1): 1})
    with pytest.raises(AttributeError):
        a.rows = rows + 1
    with pytest.raises(AttributeError):
        a.by_row = {}
    with pytest.raises(TypeError):
        a.entries[(0, 0)] = 1
    assert (a.rows, a.cols) == (rows, cols)


PRIMES = (2, 3, 2 ** 31 - 1)
MOD_P_VALUES = [-6, -4, -3, -2, -1, 1, 1, 2, 3, 4, 6, 9]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(25))
def test_rank_mod_p_counts_invariant_factors_prime_to_p(seed, p):
    a = random_sparse(random.Random(seed), 30, MOD_P_VALUES, least=0)
    echelon, kernel = columns_mod_p(a, p)
    assert len(echelon) == sum(1 for d in snf(a).invariant_factors if d % p)
    assert len(kernel) == a.cols - len(echelon)
    # each kernel vector ends at its own column with coefficient 1, so they
    # are independent, and each is annihilated mod p
    assert len({max(vec) for vec in kernel}) == len(kernel)
    for vec in kernel:
        assert vec[max(vec)] == 1
        for row in range(a.rows):
            assert sum(a.get(row, c) * x for c, x in vec.items()) % p == 0


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_mod_p_reads_coordinates_of_the_span(p):
    rng = random.Random(p)
    echelon = EchelonModP(p)
    stored = []
    for k in range(12):
        vec = {rng.randrange(20): rng.randrange(1, p) for _ in range(4)}
        if echelon.add(vec, {k: 1}) is None:
            stored.append((k, vec))
    assert len(echelon) == len(stored) >= 8
    weights = {k: rng.randrange(p) for k, _ in stored}
    combo: dict = {}
    for k, vec in stored:
        for index, v in vec.items():
            combo[index] = (combo.get(index, 0) + weights[k] * v) % p
    residual, coords = echelon.reduce({i: v for i, v in combo.items() if v})
    assert residual == {}
    assert coords == {k: w for k, w in weights.items() if w}
    # a vector outside the span leaves a residual; once stored, adding it
    # again yields the relation between its two coordinates
    outside = {20: 1}
    assert echelon.reduce(outside)[0] == outside
    assert echelon.add(outside, {"x": 1}) is None
    assert echelon.add(outside, {"y": 1}) == {"y": 1, "x": p - 1}


def assert_reduction_matches_rows(a):
    """The working rows built from the arrays are ``by_row``, in ascending order."""
    rows = _rows(a)
    assert rows == a.by_row
    assert list(rows) == sorted(rows)


def test_reduction_from_arrays_matches_rows_on_random_matrices():
    for seed in range(40):
        a = random_sparse(random.Random(9500 + seed), 30, [-3, -2, -1, -1, 1, 1, 2, 5])
        assert_reduction_matches_rows(a)
    assert_reduction_matches_rows(SparseIntMat.zero(3, 4))


def test_reduction_from_arrays_matches_rows_on_cube_blocks():
    checked = 0
    for w in [torus_word(3, 5), parse_word("1 -2 1 1 -2 -2 1", strands=3)]:
        cube = build_cube(w)
        for i in range(cube.m):
            for block in cube.differential_blocks(i).values():
                assert_reduction_matches_rows(block)
                checked += block.nnz
    assert checked


def test_matrix_arrays_hold_every_entry_once():
    """The arrays are the entries; ``get``, ``to_dense``, ``transpose`` and
    ``@`` agree with the dict views, and values past a byte or past 64 bits
    are kept exactly."""
    rng = random.Random(9600)
    for values in ([-1, 1], [-300, 7, 1], [-(2**70), 3, 2**64 + 1]):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        given = {(rng.randrange(rows), rng.randrange(cols)): rng.choice(values) for _ in range(20)}
        a = SparseIntMat(rows, cols, given)
        assert len(a.row_index) == len(a.col_index) == len(a.values) == a.nnz
        assert dict(a.entries) == given
        assert all(a.get(r, c) == given.get((r, c), 0) for r in range(rows) for c in range(cols))
        assert a.get(rows, 0) == 0 and a.get(-1, 0) == 0
        assert a.to_dense() == [[given.get((r, c), 0) for c in range(cols)] for r in range(rows)]
        t = a.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert dict(t.entries) == {(c, r): v for (r, c), v in given.items()}
        assert a @ SparseIntMat.identity(cols) == a
        assert (t @ a).to_dense() == [
            [sum(a.get(k, r) * a.get(k, c) for k in range(rows)) for c in range(cols)]
            for r in range(cols)
        ]


def test_engine_paths_never_build_row_dicts(monkeypatch):
    """Assembly, Smith, the F_p columns, ``get`` and the exact triangle read
    the arrays; none of them builds ``by_row`` or ``entries``."""
    from khoma.verify import check_les

    def refuse(_mat):
        raise AssertionError("a dict view of a matrix was built")

    monkeypatch.setattr(SparseIntMat, "by_row", property(refuse))
    monkeypatch.setattr(SparseIntMat, "entries", property(refuse))
    assert homology_unnormalized(torus_word(3, 4)).total_rank() > 0
    a = SparseIntMat(3, 3, {(0, 1): 2, (2, 2): -1})
    assert a.get(0, 1) == 2 and a.get(1, 1) == 0
    assert len(columns_mod_p(a, 5)[0]) == 2
    assert check_les(torus_word(3, 4), 4).passed


def test_huge_sparse_shape_needs_no_slot_per_row():
    """Indices past 2**31 take 8-byte arrays, and a shape far larger than
    its entries reduces without a row slot for every row."""
    a = SparseIntMat(2**40, 2**40, {(2**39, 7): 3, (5, 2**38): -1})
    assert a.row_index.typecode == a.col_index.typecode == "q"
    assert a.get(2**39, 7) == 3 and a.get(2**39, 8) == 0
    assert snf(a).invariant_factors == (1, 3)
    assert_reduction_matches_rows(a)
