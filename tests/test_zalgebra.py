"""Smith normal form, rational and F_p ranks, kernels and images."""

import copy
import heapq
import itertools
import pickle
import random
import types
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
    _Reduction,
    _unit_phase,
    columns_mod_p,
    image_basis_q,
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
    _unit_phase(_Reduction(a), pivots)
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


@pytest.mark.parametrize("seed", range(25))
def test_snf_reads_row_blocks_without_changing_them(seed):
    """Rows taken by ``of_rows`` reduce like the equal checked matrix, intact."""
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
    block = SparseIntMat.of_rows(rows, cols, sum(map(len, by_row.values())), by_row)
    assert block.nnz == mat.nnz
    before = copy.deepcopy(by_row)
    from_block, from_mat = snf(block), snf(mat)
    assert block.by_row == before
    assert from_block.invariant_factors == from_mat.invariant_factors
    assert from_block.rank == from_mat.rank
    assert from_block.unit_rows == from_mat.unit_rows
    assert list(from_block.invariant_factors) == oracle.smith_factors(dense)
    assert block == mat


def unit_phase_by_row_operations(work, pivots):
    """The reference unit phase: one (length, row) heap, pushed on every
    change and popped past stale entries, and every pivot column cleared by
    row operations.  ``_unit_phase`` must take the same pivots in the same
    order; returns how many pivots rows of length 1 gave.
    """
    row, col = work.row, work.col
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
            work.add_row(r2, r, -v * row[r2][c])
            if r2 in row:
                heapq.heappush(heap, len(row[r2]) * n + r2)
        pivots.append((r, c, 1))
        singletons += length == 1
        work.drop_row(r)
    return singletons


def assert_singleton_pivots_match_row_operations(a):
    """Same pivots, same leftover rows and columns, same ``unit_rows``."""
    fast, slow = _Reduction(a), _Reduction(a)
    fast_pivots, slow_pivots = [], []
    _unit_phase(fast, fast_pivots)
    singletons = unit_phase_by_row_operations(slow, slow_pivots)
    assert fast_pivots == slow_pivots
    assert fast.row == slow.row and fast.col == slow.col
    assert snf(a).unit_rows == tuple(r for r, _, _ in slow_pivots)
    return singletons


def test_singleton_pivots_match_row_operations_on_random_matrices():
    singletons = 0
    for seed in range(60):
        rng = random.Random(9100 + seed)
        rows, cols = rng.randrange(1, 30), rng.randrange(1, 30)
        entries = {}
        for _ in range(rng.randrange(1, 3 * max(rows, cols))):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice(
                [-2, -1, -1, 1, 1, 2, 3]
            )
        singletons += assert_singleton_pivots_match_row_operations(
            SparseIntMat(rows, cols, entries)
        )
    assert singletons


def test_singleton_pivots_match_row_operations_on_cube_blocks():
    singletons = 0
    for w in [torus_word(3, 5), parse_word("1 -2 1 1 -2 -2 1", strands=3)]:
        cube = build_cube(w)
        for i in range(cube.m):
            for block in cube.differential_blocks(i).values():
                singletons += assert_singleton_pivots_match_row_operations(block)
    assert singletons


def test_unit_phase_takes_a_unit_made_by_a_row_operation():
    """Row 1 has no unit until row 0 is subtracted from it twice."""
    dense = [[1, 1, 0], [2, 3, 2]]
    a = SparseIntMat.from_dense(dense)
    work = _Reduction(a)
    pivots: list = []
    _unit_phase(work, pivots)
    assert sorted(r for r, _, _ in pivots) == [0, 1]
    assert not any(abs(v) == 1 for row in work.row.values() for v in row.values())
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
    init = zalgebra._Reduction.__init__

    def counted_init(work, a):
        count["rows"] += len(a.by_row)
        init(work, a)

    def counted_pop(heap):
        count["pops"] += 1
        return heapq.heappop(heap)

    seen = types.SimpleNamespace(**{**vars(heapq), "heappop": counted_pop})
    monkeypatch.setattr(zalgebra, "heapq", seen)
    monkeypatch.setattr(zalgebra._Reduction, "__init__", counted_init)
    homology_unnormalized(torus_word(3, 5))
    assert count["rows"] > 0
    assert count["pops"] < 2 * count["rows"], count


def assert_column_index(work):
    """``col[c]`` lists exactly the rows holding ``c``, each once, never empty."""
    for c, rows in work.col.items():
        assert rows and len(set(rows)) == len(rows), (c, rows)
    holders: dict = {}
    for r, entries in work.row.items():
        for c in entries:
            holders.setdefault(c, set()).add(r)
    assert {c: set(rows) for c, rows in work.col.items()} == holders


def test_column_index_stays_consistent():
    """Checked after the unit phase, after every column operation of the
    core phase (a broken index can make it loop) and at the end."""
    column_operations = 0

    def checked(work, add_col):
        def checked_add_col(dst, src, factor):
            nonlocal column_operations
            column_operations += 1
            add_col(dst, src, factor)
            assert_column_index(work)

        return checked_add_col

    for seed in range(30):
        for a in (
            random_sparse(random.Random(seed), 40, [-3, -2, -1, -1, 1, 1, 2, 3]),
            random_sparse(random.Random(9100 + seed), 30, [-2, -1, -1, 1, 1, 2, 3]),
            random_sparse(random.Random(seed), 30, MOD_P_VALUES, least=0),
        ):
            work, pivots = _Reduction(a), []
            _unit_phase(work, pivots)
            assert_column_index(work)
            work.add_col = checked(work, work.add_col)
            _core_phase(work, pivots)
            assert work.row == {} and work.col == {}
    assert column_operations


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
    """Blocks cross process boundaries under ``--jobs``: a pickled matrix
    comes back equal with the same Smith form, ``entries`` is exactly the
    constructor's nonzero entries, and the matrix stays checked and frozen."""
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
