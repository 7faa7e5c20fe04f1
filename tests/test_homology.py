"""Homology tables: golden values, oracle agreement, invariance properties."""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from khoma.cube import build_cube
from khoma.diagram import (
    POS_CROSS,
    Word,
    mirror,
    parse_word,
    pos_cross,
    smooth,
    torus_word,
)
from khoma.homology import (
    AbGroup,
    BigradedTable,
    homology,
    homology_unnormalized,
    normalize,
    worker_count,
)
from khoma.zalgebra import SparseIntMat, snf

TREFOIL_TABLE = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 7): (0, (2,)),
    (3, 9): (1, ()),
}

MIRROR_TREFOIL_TABLE = {
    (-3, -9): (1, ()),
    (-2, -7): (0, (2,)),
    (-2, -5): (1, ()),
    (0, -3): (1, ()),
    (0, -1): (1, ()),
}

HOPF_TABLE = {
    (0, 0): (1, ()),
    (0, 2): (1, ()),
    (2, 4): (1, ()),
    (2, 6): (1, ()),
}

UNKNOT_TABLE = {(0, -1): (1, ()), (0, 1): (1, ())}


def as_plain(table):
    return {key: (g.rank, g.torsion) for key, g in table.items()}


def test_abgroup_validation():
    with pytest.raises(ValueError):
        AbGroup(-1)
    with pytest.raises(ValueError):
        AbGroup(0, (1,))
    with pytest.raises(ValueError):
        AbGroup(0, (4, 2))
    assert str(AbGroup(2, (2, 4))) == "Z^2 + Z_2 + Z_4"
    assert str(AbGroup()) == "0"


def test_trefoil_golden_table():
    assert as_plain(homology(parse_word("1 1 1"))) == TREFOIL_TABLE


def test_mirror_trefoil_table():
    assert as_plain(homology(parse_word("-1 -1 -1"))) == MIRROR_TREFOIL_TABLE


def test_hopf_link_table():
    assert as_plain(homology(parse_word("1 1"))) == HOPF_TABLE


def test_unknot_presentations():
    for text, strands in [("1", None), ("-1", None), ("1 -1 1", None)]:
        assert as_plain(homology(parse_word(text, strands=strands))) == UNKNOT_TABLE
    assert as_plain(homology(torus_word(1, 7))) == UNKNOT_TABLE
    assert as_plain(homology(Word(1))) == UNKNOT_TABLE


def test_two_component_unlink():
    assert as_plain(homology(parse_word("1 -1"))) == {
        (0, -2): (1, ()),
        (0, 0): (2, ()),
        (0, 2): (1, ()),
    }


def test_crossingless_unlinks():
    # the closure of the empty word on p strands is the p-component unlink,
    # whose homology is the p-th power of the unknot's
    for p in [1, 2, 3]:
        table = as_plain(homology(torus_word(p, 0)))
        expected = {
            (0, p - 2 * x): (math.comb(p, x), ()) for x in range(p + 1)
        }
        assert table == expected


def test_unnormalized_is_shift_of_normalized():
    w = parse_word("1 1 1")
    raw = homology_unnormalized(w)
    assert as_plain(raw) == {
        (i, j - 3): g for (i, j), g in TREFOIL_TABLE.items()
    }
    assert as_plain(normalize(raw)) == TREFOIL_TABLE


def test_normalize_guards():
    w = parse_word("1 1 1")
    table = homology(w)
    with pytest.raises(ValueError):
        normalize(table)  # already normalized
    smooth_word = Word(3, (smooth(1),))
    raw = homology_unnormalized(smooth_word)
    with pytest.raises(ValueError):
        normalize(raw)
    with pytest.raises(ValueError):
        homology(smooth_word)


def test_markov_moves_exact_table_equality():
    base = homology(parse_word("1 1 1"))
    stabilized = homology(parse_word("1 1 1 2", strands=3))
    conjugated = homology(parse_word("-2 1 1 1 2 2", strands=3))
    negative_stab = homology(parse_word("1 1 1 -2", strands=3))
    assert base.groups == stabilized.groups
    assert base.groups == conjugated.groups
    assert base.groups == negative_stab.groups


def test_mirror_duality_total_rank():
    for text in ["1 1 1", "1 1", "1 2 1 2", "1 -2 1"]:
        w = parse_word(text, strands=3)
        assert homology(w).total_rank() == homology(mirror(w)).total_rank()


def test_raw_homology_never_negative_degree():
    for text in ["1 1 1", "1 -1 1", "-1 -1", "1 -2 -2 1"]:
        w = parse_word(text, strands=3)
        raw = homology_unnormalized(w)
        assert all(i >= 0 for (i, j) in raw.groups)


def test_positive_link_diagrams_vanish_below_negative_count():
    # words whose closures are positive links: raw homology starts at n_minus
    for text in ["1 -1 1", "2 1 1 1 -2"]:
        w = parse_word(text, strands=3)
        raw = homology_unnormalized(w)
        assert all(i >= w.n_minus for (i, j) in raw.groups)


def test_parity_field():
    knot = homology(parse_word("1 1 1"))
    assert knot.parity == 1  # one component: odd quantum degrees
    link = homology(parse_word("1 1"))
    assert link.parity == 0


def test_max_i_truncation_agrees_with_full_run():
    w = torus_word(3, 3)
    full = homology_unnormalized(w)
    for bound in [0, 1, 2, 3]:
        part = homology_unnormalized(w, max_i=bound)
        assert part.groups == {
            key: g for key, g in full.groups.items() if key[0] <= bound
        }
    norm = homology(w, max_i=2)
    assert norm.groups == {
        key: g for key, g in homology(w).groups.items() if key[0] <= 2
    }


def test_parallel_jobs_identical_tables():
    w = torus_word(3, 4)
    assert homology(w, jobs=2).groups == homology(w).groups


def test_worker_count_clamps_and_refuses():
    cpus = os.cpu_count() or 1
    assert worker_count(1) == 1
    assert worker_count(10 ** 6) == cpus  # sizing only; no pool is started
    for bad in (0, -3):
        with pytest.raises(ValueError):
            worker_count(bad)
    with pytest.raises(ValueError):
        homology(torus_word(2, 3), jobs=0)


def without_columns(mat, dead):
    """The block with the columns in ``dead`` deleted and the rest renumbered."""
    keep = {c: n for n, c in enumerate(c for c in range(mat.cols) if c not in dead)}
    return SparseIntMat(
        mat.rows,
        len(keep),
        {(r, keep[c]): v for (r, c), v in mat.entries.items() if c in keep},
    )


@pytest.mark.parametrize(
    "word",
    [torus_word(3, 4), torus_word(2, 5), parse_word("1 -2 1 1 -2 -2 1", strands=3)],
    ids=["T(3,4)", "T(2,5)", "mixed"],
)
def test_unit_pivot_rows_are_removable_columns(word):
    """Gaussian elimination lemma, block by block, without the carry code.

    Deleting from d^{i,j} the columns that are the rows of d^{i-1,j}'s unit
    pivots leaves its rank and torsion unchanged.
    """
    cube = build_cube(word)
    dropped = torsion_blocks = 0
    for i in range(cube.m + 1):
        for j in cube.chain_basis(i):
            dead = set(snf(cube.differential_matrix(i - 1, j)).unit_rows)
            block = cube.differential_matrix(i, j)
            plain = snf(block)
            shrunk = snf(without_columns(block, dead))
            assert shrunk.rank == plain.rank
            assert shrunk.invariant_factors == plain.invariant_factors
            dropped += len(dead)
            torsion_blocks += any(d > 1 for d in plain.invariant_factors)
    assert dropped > 0
    assert torsion_blocks > 0  # every word here has Z/2 torsion


CARRY_WORDS = [
    torus_word(3, 4),
    torus_word(2, 5),
    mirror(torus_word(2, 5)),
    parse_word("1 -2 1 1 -2 -2 1", strands=3),
    Word(3, (pos_cross(1), smooth(2), pos_cross(1), pos_cross(2))),
]
CARRY_IDS = ["T(3,4)", "T(2,5)", "mirror T(2,5)", "mixed", "smoothing"]


@pytest.mark.parametrize("word", CARRY_WORDS, ids=CARRY_IDS)
def test_walk_never_builds_carried_columns(word, monkeypatch):
    """Both walks build each block once, without the carried columns.

    Every block the walk assembles equals the full block with the carried
    columns' entries removed, and none of them is cached: later full blocks
    of the same cube are whole.
    """
    from khoma.cube import CubeComplex
    from khoma.homology import homology_group_at

    built = []
    assemble = CubeComplex._assemble

    def record(cube, i, js, carried):
        blocks = assemble(cube, i, js, carried)
        built.append((cube, i, dict(carried), blocks))
        return blocks

    monkeypatch.setattr(CubeComplex, "_assemble", record)
    table = homology_unnormalized(word)
    walks = {"all j": len(built)}
    for j in sorted({j for _, j in table.groups}):
        homology_group_at(word, build_cube(word).m, j)
    walks["one j"] = len(built) - walks["all j"]
    monkeypatch.undo()

    full = build_cube(word)
    cut = 0
    for cube, i, carried, blocks in built:
        for j, mat in blocks.items():
            dead = carried.get(j, frozenset())
            whole = full.differential_matrix(i, j)
            assert (mat.rows, mat.cols) == (whole.rows, whole.cols)
            assert mat.entries == {
                rc: v for rc, v in whole.entries.items() if rc[1] not in dead
            }
            cut += len(whole.entries) - len(mat.entries)
        # a carried block is never stored: assembled again on the same
        # cube, it leaves the full blocks to both cached paths
        assemble(cube, i, list(blocks), carried)
        for j, mat in blocks.items():
            whole = full.differential_matrix(i, j)
            assert cube.differential_matrix(i, j) == whole
            if mat.cols:
                assert cube.differential_blocks(i)[j] == whole
    assert walks["all j"] and walks["one j"]
    assert cut > 0


# sha256 of the sorted (i, j, rows, cols, nnz, sorted unit_rows) of every
# block the walk reduces, with the number of blocks, their nnz and their
# unit rows; computed before vertices were built by surgery and before
# singleton unit pivots skipped their row operations
WALK_BLOCK_PINS = {
    (3, 5): (49, 25426, 4202, "8575923ae7e8a91b"),
    (2, 7): (38, 4768, 1088, "6689252c19abdfa9"),
}


@pytest.mark.parametrize("p, q", sorted(WALK_BLOCK_PINS))
def test_walk_blocks_are_pinned(p, q, monkeypatch):
    """The walk assembles and carries exactly the pinned blocks."""
    import hashlib

    from khoma.cube import CubeComplex

    seen = []
    assemble = CubeComplex._assemble

    def record(cube, i, js, carried):
        blocks = assemble(cube, i, js, carried)
        for j, mat in blocks.items():
            unit_rows = tuple(sorted(snf(mat).unit_rows))
            seen.append((i, j, mat.rows, mat.cols, mat.nnz, unit_rows))
        return blocks

    monkeypatch.setattr(CubeComplex, "_assemble", record)
    homology_unnormalized(torus_word(p, q))
    seen.sort()
    digest = hashlib.sha256(repr(seen).encode()).hexdigest()[:16]
    summary = (len(seen), sum(b[4] for b in seen), sum(len(b[5]) for b in seen), digest)
    assert summary == WALK_BLOCK_PINS[(p, q)]


def test_free_rank_matches_pure_rational_rank():
    from khoma.cube import build_cube
    from khoma.zalgebra import rank_q

    w = torus_word(3, 3)
    cube = build_cube(w)
    raw = homology_unnormalized(w)
    for i in range(cube.m + 1):
        for j in cube.chain_basis(i):
            dim = cube.chain_rank(i, j)
            free = dim - rank_q(cube.differential_matrix(i, j)) - rank_q(
                cube.differential_matrix(i - 1, j)
            )
            assert free == raw.group(i, j).rank


words_strategy = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda k: k != 0),
    max_size=6,
)


@settings(max_examples=25, deadline=None)
@given(words_strategy)
def test_engine_matches_oracle_on_random_words(letters):
    word = parse_word(" ".join(str(k) for k in letters), strands=3)
    engine = as_plain(homology_unnormalized(word))
    assert engine == oracle.khovanov_groups(list(letters), strands=3)


def test_engine_matches_oracle_with_smoothings():
    # a plat-bearing word: smoothing letters participate in the closure
    letters = [1, ("o", 2), 1, 2]
    word = Word(3, tuple(
        smooth(x[1]) if isinstance(x, tuple) else
        (parse_word(str(x), strands=3).letters[0])
        for x in letters
    ))
    engine = as_plain(homology_unnormalized(word))
    assert engine == oracle.khovanov_groups(letters, strands=3)


T34_TABLE = {
    (0, 5): (1, ()),
    (0, 7): (1, ()),
    (2, 9): (1, ()),
    (3, 11): (0, (2,)),
    (3, 13): (1, ()),
    (4, 11): (1, ()),
    (4, 13): (1, ()),
    (5, 15): (1, ()),
    (5, 17): (1, ()),
}


def test_full_torus_34_table_matches_oracle():
    assert as_plain(homology(torus_word(3, 4))) == T34_TABLE
    assert oracle.khovanov_normalized([1, 2] * 4, strands=3) == T34_TABLE


def duality_pairing_holds(table, mirror_table):
    """Free ranks reflect through the origin; torsion shifts one degree.

    This is the universal-coefficient relation between the homology of a link
    and of its mirror; it cross-validates torsion placement between two
    independent computations.
    """
    keys = set(mirror_table)
    keys |= {(-i, -j) for (i, j) in table}
    keys |= {(-i + 1, -j) for (i, j) in table}
    for i, j in keys:
        free_m = mirror_table.get((i, j), (0, ()))[0]
        free_k = table.get((-i, -j), (0, ()))[0]
        tor_m = mirror_table.get((i, j), (0, ()))[1]
        tor_k = table.get((-i + 1, -j), (0, ()))[1]
        if free_m != free_k or tor_m != tor_k:
            return False
    return True


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 3), (3, 4)])
def test_mirror_duality_pairing(p, q):
    table = as_plain(homology(torus_word(p, q)))
    mirrored = as_plain(homology(mirror(torus_word(p, q))))
    assert duality_pairing_holds(table, mirrored)


def test_homology_group_at_single_slice():
    from khoma.homology import homology_group_at

    words = [
        parse_word("1 1 1"),
        torus_word(3, 4),
        parse_word("1 -2 1 1 -2 -2 1", strands=3),  # carries Z/2
        mirror(torus_word(2, 5)),
        Word(3, (pos_cross(1), smooth(2), pos_cross(1), pos_cross(2))),
    ]
    for w in words:
        full = homology_unnormalized(w)
        keys = set(full.groups)
        for i, j in full.groups:
            keys |= {(i - 1, j), (i + 1, j), (i, j - 2), (i, j + 2), (i, j + 1)}
        for i, j in keys:
            assert homology_group_at(w, i, j) == full.group(i, j), (str(w), i, j)
    assert homology_group_at(parse_word("1 1 1"), 1, 0).is_trivial
    assert homology_group_at(torus_word(3, 4), 4, 3) == AbGroup(1)


def test_homology_group_at_never_assembles_a_whole_degree(monkeypatch):
    from khoma.cube import CubeComplex
    from khoma.homology import homology_group_at

    def refuse(self, i):
        raise AssertionError("a single group assembled a whole degree")

    monkeypatch.setattr(CubeComplex, "differential_blocks", refuse)
    assert homology_group_at(torus_word(3, 4), 4, 3) == AbGroup(1)


def test_table_bookkeeping():
    t = homology(parse_word("1 1 1"))
    assert t.group(5, 5).is_trivial
    assert t.total_rank() == 4
    assert t.restricted(2) == {
        (0, 1): AbGroup(1),
        (0, 3): AbGroup(1),
    }
    shifted = t.shifted(1, 2)
    assert (1, 3) in shifted


@pytest.mark.parametrize("p, q", [(3, 4), (2, 7)], ids=["T(3,4)", "T(2,7)"])
def test_unit_phase_fill_stays_small(p, q, monkeypatch):
    """The unit phase inserts fewer than a third of its blocks' input entries.

    Pivoting the shortest row first on its shortest column keeps fill low.
    """
    from khoma import zalgebra

    count = {"nnz": 0, "inserted": 0, "in_unit_phase": False}
    init, add_row, unit_phase = (
        zalgebra._Reduction.__init__,
        zalgebra._Reduction.add_row,
        zalgebra._unit_phase,
    )

    def counted_init(work, a):
        count["nnz"] += a.nnz
        init(work, a)

    def counted_add_row(work, dst, src, factor):
        if count["in_unit_phase"]:
            drow = work.row.get(dst, {})
            count["inserted"] += sum(1 for c in work.row[src] if c not in drow)
        add_row(work, dst, src, factor)

    def flagged_unit_phase(work, pivots):
        count["in_unit_phase"] = True
        unit_phase(work, pivots)
        count["in_unit_phase"] = False

    monkeypatch.setattr(zalgebra._Reduction, "__init__", counted_init)
    monkeypatch.setattr(zalgebra._Reduction, "add_row", counted_add_row)
    monkeypatch.setattr(zalgebra, "_unit_phase", flagged_unit_phase)
    homology_unnormalized(torus_word(p, q))
    assert count["nnz"] > 0
    assert 3 * count["inserted"] < count["nnz"], count
