"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion is asserted exactly (group-by-group table equality including
torsion, exact polynomial identities) and against the runtime budget it was
given.  Reference values come from the independent brute-force oracle in
_oracle.py or from pinned table patterns; nothing here is read back from the
engine under test.
"""

import functools
import itertools
import random
import time

import pytest

import _oracle as oracle
from khoma.cube import build_cube
from khoma.diagram import (
    Word,
    circle_count,
    label_crossings,
    mirror,
    parse_word,
    torus_word,
)
from khoma.homology import AbGroup, homology, homology_group_at, homology_unnormalized
from khoma.invariants import (
    diagonal_profile,
    graded_euler,
    jones_from_bracket,
)
from khoma.verify import (
    PASS,
    check_conjecture1,
    check_e_vanishing,
    check_f1,
    check_f3,
    check_les,
    check_low_degree_table,
    check_t1,
    stable_poly,
)
from khoma.zalgebra import SparseIntMat, rank_q, snf


def announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} [{name}]: PASS{suffix}")


def plain(table):
    return {key: (g.rank, g.torsion) for key, g in table.items()}


def test_criterion_01_trefoil_golden_table():
    started = time.monotonic()
    engine = plain(homology(parse_word("1 1 1")))
    elapsed = time.monotonic() - started
    # frozen golden table, and the oracle recomputes it from scratch
    golden = {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (2, 5): (1, ()),
        (3, 7): (0, (2,)),
        (3, 9): (1, ()),
    }
    assert engine == golden
    assert oracle.khovanov_normalized([1, 1, 1]) == golden
    assert elapsed < 1.0
    announce(1, "trefoil golden table", f"{elapsed * 1000:.0f} ms")


def test_criterion_02_thickness_generator_anchors():
    started = time.monotonic()
    t33 = homology(torus_word(3, 3), max_i=4)
    assert t33.group(4, 9).rank == 1
    first = time.monotonic() - started

    started = time.monotonic()
    t34 = homology(torus_word(3, 4), max_i=4)
    assert t34.group(4, 11).rank == 1
    second = time.monotonic() - started
    assert first < 10 and second < 10
    announce(2, "rank anchors at degree four", f"{first + second:.2f} s")


def test_criterion_03_low_degree_table():
    started = time.monotonic()
    for p, q in [(3, 4), (3, 5)]:
        report = check_low_degree_table(p, q)
        assert report.verdict == PASS, report.witness
    elapsed = time.monotonic() - started
    assert elapsed < 120
    announce(3, "degree <= 4 table for (3,4) and (3,5)", f"{elapsed:.1f} s")


def test_criterion_04_twist_reduction_chain():
    started = time.monotonic()
    for q in [5, 6, 7]:
        report = check_f1(3, q)
        assert report.verdict == PASS, report.witness
        assert report.witness["i_below"] == q  # p + q - 3 with p = 3
    elapsed = time.monotonic() - started
    assert elapsed < 900
    announce(4, "twist reduction up to fourteen crossings", f"{elapsed:.1f} s")


def test_criterion_05_strand_reduction_square():
    started = time.monotonic()
    report = check_f3(3)
    assert report.verdict == PASS, report.witness
    # independent pin: raw (3,3) groups against the oracle trefoil, shifted
    square = homology_unnormalized(torus_word(3, 3), max_i=2)
    trefoil_raw = oracle.khovanov_groups([1, 1, 1])
    for (i, j), g in square.groups.items():
        assert trefoil_raw.get((i, j + 1)) == (g.rank, g.torsion)
    elapsed = time.monotonic() - started
    assert elapsed < 10
    announce(5, "square diagram strand reduction", f"{elapsed:.1f} s")


def test_criterion_06_plat_vanishing():
    started = time.monotonic()
    for p, q, i, bound in [(3, 4, 1, 4), (3, 4, 2, 4), (3, 3, 1, 3)]:
        report = check_e_vanishing(p, q, i)
        assert report.verdict == PASS, report.witness
        assert report.witness["i_below"] == bound
        assert report.witness["nonzero"] == []
    elapsed = time.monotonic() - started
    assert elapsed < 30
    announce(6, "plat diagram low-degree vanishing", f"{elapsed:.1f} s")


def test_criterion_07_long_exact_sequence():
    started = time.monotonic()
    trefoil = parse_word("1 1 1")
    for flat in range(3):
        report = check_les(trefoil, flat)
        assert report.verdict == PASS, report.witness
    d34 = torus_word(3, 4)
    flat = next(
        l.flat_index for l in label_crossings(d34) if (l.type, l.ordinal) == (2, 1)
    )
    report = check_les(d34, flat)
    assert report.verdict == PASS, report.witness
    elapsed = time.monotonic() - started
    assert elapsed < 60
    announce(7, "resolution triangle exactness", f"{elapsed:.1f} s")


EULER_CORPUS = [
    ("1", None),
    ("-1", None),
    ("1 1", None),
    ("-1 -1", None),
    ("1 -1", None),
    ("1 -1 1", None),
    ("1 1 1", None),
    ("-1 -1 -1", None),
    ("1 1 1 1", None),
    ("1 1 1 1 1", None),
    ("1 2 1 2", None),
    ("-1 -2 -1 -2", None),
    ("1 2 -1 2", None),
    ("1 -2 1 -2", None),
    ("2 1 -2 1", None),
    ("1 1 2 2", None),
    ("1 1 -2 -2", None),
    ("-1 2 -1 2 -1 2", None),
    ("1 2 3 1 2 3", None),
    ("1 -2 3 -2", None),
    ("1 1 1 2 2 2", None),
    ("1 2 1 2 1 2", None),
    ("1 2 1 2 1 2 1 2", None),
    ("1 1 1 1 1 1 1 1 1 1 1 1", None),
]


def test_criterion_08_euler_against_bracket():
    assert len(EULER_CORPUS) >= 20
    for text, strands in EULER_CORPUS:
        w = parse_word(text, strands=strands)
        assert w.crossing_count <= 12
        euler = graded_euler(homology(w))
        jones = jones_from_bracket(w)
        assert euler == jones, text
    has_negative = sum(1 for t, _ in EULER_CORPUS if "-" in t)
    assert has_negative >= 8
    announce(8, "graded Euler equals bracket Jones", f"{len(EULER_CORPUS)} words")


def test_criterion_09_markov_invariance():
    base = homology(parse_word("1 1 1"))
    stabilized = homology(parse_word("1 1 1 2", strands=3))
    conjugate = homology(parse_word("-2 1 1 1 2 2", strands=3))
    assert plain(base) == plain(stabilized) == plain(conjugate)
    announce(9, "Markov move invariance", "stabilization and conjugation")


def test_criterion_10_corner_group_and_width():
    started = time.monotonic()
    corner = homology_group_at(torus_word(3, 4), 4, 3)
    assert corner == AbGroup(1)
    width = diagonal_profile(homology(torus_word(3, 4))).width
    assert width == 3
    report = check_conjecture1(3)
    assert report.verdict == PASS
    # stretch target: the same corner group one strand up
    stretch = check_conjecture1(4)  # 15 crossings, inside the default budget
    assert stretch.verdict == PASS
    assert stretch.witness["rank"] == 1
    assert stretch.witness["width_at_least"] == 4
    elapsed = time.monotonic() - started
    assert elapsed < 3600
    announce(
        10,
        "corner rank and width",
        f"p=3 width 3; p=4 {stretch.verdict} ({elapsed:.1f} s)",
    )


def test_criterion_11_stable_polynomial():
    started = time.monotonic()
    result = stable_poly(3, 6)
    assert result.n_checked == (4, 5, 6)
    assert result.consistent, result.mismatches
    for a, b in itertools.combinations(result.n_checked, 2):
        bound = 3 + min(a, b) - 3
        assert result.per_n[a].t_truncated(bound) == result.per_n[b].t_truncated(bound)
    elapsed = time.monotonic() - started
    announce(11, "stable twist-normalized polynomial", f"{elapsed:.1f} s")


def test_criterion_12_property_suites():
    rng = random.Random(20250808)

    # Smith invariant factors on random matrices, against the dense oracle
    for _ in range(25):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        dense = [
            [rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)
        ]
        a = SparseIntMat.from_dense(dense, cols=cols)
        res = snf(a)
        assert list(res.invariant_factors) == oracle.smith_factors(dense)
        for d, e in zip(res.invariant_factors, res.invariant_factors[1:]):
            assert e % d == 0
        assert res.rank == rank_q(a)

    # minor-gcd spot checks on 4 x 4 matrices
    from test_zalgebra import minor_gcd

    for _ in range(5):
        dense = [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)]
        res = snf(SparseIntMat.from_dense(dense))
        prod = 1
        for k, d in enumerate(res.invariant_factors, start=1):
            prod *= d
            assert prod == minor_gcd(dense, k)

    # word corpus: d squared, circle steps, degree preservation
    from test_cube import label_q_degree, oracle_vertices

    words = [parse_word(t, strands=s) for t, s in [
        ("1 1 1", None),
        ("1 2 1 2", None),
        ("-1 2 -2 1", 3),
        ("1 -1 2 -2", 3),
    ]]
    for _ in range(6):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 7))]
        words.append(parse_word(" ".join(map(str, letters)), strands=3))

    for w in words:
        cube = build_cube(w)
        m = cube.m
        for i in range(m):
            lower = cube.differential_blocks(i)
            upper = cube.differential_blocks(i + 1)
            for j, mat in lower.items():
                if j in upper:
                    assert (upper[j] @ mat).nnz == 0
        for eps in range(1 << m):
            bits = tuple((eps >> b) & 1 for b in range(m))
            base = circle_count(w, bits)
            for b in range(m):
                if not (eps >> b) & 1:
                    flipped = tuple(
                        1 if k == b else bits[k] for k in range(m)
                    )
                    assert abs(circle_count(w, flipped) - base) == 1
        # every entry of d joins two labellings of the block's quantum
        # degree, q = (#1-labels - #X-labels) + weight on the oracle's circles
        q = functools.partial(label_q_degree, oracle_vertices(cube))
        for i in range(m):
            for j, elems in cube.chain_basis(i).items():
                rows = cube.chain_basis(i + 1).get(j, [])
                for row, col in cube.differential_matrix(i, j).entries:
                    assert q(*elems[col]) == q(*rows[row]) == j

    announce(12, "randomized property suites", f"{len(words)} words, 30 matrices")
