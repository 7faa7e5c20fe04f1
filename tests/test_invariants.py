"""Polynomials, the bracket state sum, diagonals and thickness."""

import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from khoma.diagram import (
    NEG_CROSS,
    POS_CROSS,
    CrossingLimitError,
    Letter,
    Word,
    _ArcGraph,
    mirror,
    parse_word,
    resolve_crossing,
    torus_word,
)
from khoma.homology import homology
from khoma.invariants import (
    THICK,
    THIN,
    LaurentPoly1,
    LaurentPoly2,
    diagonal_profile,
    graded_euler,
    jones_from_bracket,
    kauffman_bracket,
    poincare,
    thickness_class,
)
from test_diagram import _oracle_letters


def test_laurent1_arithmetic():
    a = LaurentPoly1({1: 1, -1: 1})
    assert a + a == LaurentPoly1({1: 2, -1: 2})
    assert a - a == LaurentPoly1()
    assert (a * a) == LaurentPoly1({2: 1, 0: 2, -2: 1})
    assert a ** 3 == a * a * a
    assert (-a).coeffs == {1: -1, -1: -1}
    assert a.shifted(2) == LaurentPoly1({3: 1, 1: 1})
    assert a.inverted() == a
    assert LaurentPoly1({5: 2}).inverted() == LaurentPoly1({-5: 2})
    assert not LaurentPoly1({0: 0})
    with pytest.raises(ValueError):
        a ** -1


def test_laurent_rendering():
    assert str(LaurentPoly1()) == "0"
    assert str(LaurentPoly1({-1: 1, 1: 1})) == "q^-1 + q"
    assert str(LaurentPoly1({1: 1, 3: 1, 5: 1, 9: -1})) == "q + q^3 + q^5 - q^9"
    assert str(LaurentPoly1({-2: 1, 0: 2, 2: 1})) == "q^-2 + 2 + q^2"
    assert str(LaurentPoly1({0: -3, 2: 5})) == "-3 + 5*q^2"
    assert (
        str(LaurentPoly2({(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}))
        == "q + q^3 + t^2*q^5 + t^3*q^9"
    )
    assert str(LaurentPoly2({(2, 0): 1, (1, -1): -1})) == "-t*q^-1 + t^2"


def test_laurent2_tools():
    p = LaurentPoly2({(0, 1): 1, (2, 5): 3, (3, 9): -1})
    assert p.t_coefficient(2) == LaurentPoly1({5: 3})
    assert p.t_truncated(2) == LaurentPoly2({(0, 1): 1})
    assert p.t_degrees() == [0, 2, 3]
    assert p.q_shifted(-1).coeffs == {(0, 0): 1, (2, 4): 3, (3, 8): -1}
    assert p.at_t_minus_one() == LaurentPoly1({1: 1, 5: 3, 9: 1})


def test_poincare_and_euler_trefoil():
    table = homology(parse_word("1 1 1"))
    assert str(poincare(table)) == "q + q^3 + t^2*q^5 + t^3*q^9"
    assert str(graded_euler(table)) == "q + q^3 + q^5 - q^9"
    assert poincare(table).at_t_minus_one() == graded_euler(table)


def test_unknot_polynomials():
    table = homology(torus_word(1, 1))
    assert str(poincare(table)) == "q^-1 + q"
    assert str(graded_euler(table)) == "q^-1 + q"
    assert str(jones_from_bracket(torus_word(1, 1))) == "q^-1 + q"


def test_bracket_matches_oracle():
    for text in ["1 1 1", "1 -1", "1 2 1 2", "-1 -1 -1", "1 -2 1 -2"]:
        w = parse_word(text, strands=3)
        letters = list(w.signed_letters())
        assert jones_from_bracket(w).coeffs == oracle.jones_poly(letters, strands=3)


def test_bracket_recursion():
    # the state sum satisfies bracket(w) = bracket(w0) - q * bracket(w1)
    for text in ["1 1 1", "1 2 1 2", "-1 2 1"]:
        w = parse_word(text, strands=3)
        for flat in range(w.crossing_count):
            w0 = resolve_crossing(w, flat, 0)
            w1 = resolve_crossing(w, flat, 1)
            expected = kauffman_bracket(w0) - kauffman_bracket(w1).shifted(1)
            assert kauffman_bracket(w) == expected


def test_euler_equals_jones_corpus():
    corpus = [
        ("1 1 1", None),
        ("1 1", None),
        ("-1 -1 -1", None),
        ("1 -1 1", None),
        ("1 2 1 2", None),
        ("1 -2 1 -2", None),
        ("1 1 2 2", None),
        ("2 2 1 -2 1", 3),
    ]
    for text, strands in corpus:
        w = parse_word(text, strands=strands)
        assert graded_euler(homology(w)) == jones_from_bracket(w), text


def test_mirror_jones_inverts_q():
    for text in ["1 1 1", "1 2 1 2"]:
        w = parse_word(text)
        assert jones_from_bracket(mirror(w)) == jones_from_bracket(w).inverted()


def test_diagonal_profiles():
    trefoil = homology(parse_word("1 1 1"))
    profile = diagonal_profile(trefoil)
    assert sorted(profile.diagonals) == [1, 3]
    assert profile.width == 2
    assert thickness_class(trefoil) == THIN

    unknot = homology(torus_word(1, 2))
    assert sorted(diagonal_profile(unknot).diagonals) == [-1, 1]
    assert thickness_class(unknot) == THIN

    t25 = homology(torus_word(2, 5))
    assert thickness_class(t25) == THIN

    t34 = homology(torus_word(3, 4))
    profile34 = diagonal_profile(t34)
    assert profile34.width == 3
    assert thickness_class(t34) == THICK
    w = 2 * 3  # the three witness diagonals of the thickness argument
    assert {w - 3, w - 1, w + 1} <= profile34.diagonals


def test_thickness_witness_diagonals_t35():
    t35 = homology(torus_word(3, 5))
    profile = diagonal_profile(t35)
    w = 2 * 4
    assert {w - 3, w - 1, w + 1} <= profile.diagonals
    assert thickness_class(t35) == THICK


def test_width_at_least_two_for_links():
    for text in ["1", "1 1", "1 1 1", "-1 -1", "1 2 1 2"]:
        table = homology(parse_word(text))
        assert diagonal_profile(table).width >= 2


def test_diagonal_profile_guards():
    raw = homology(parse_word("1 1 1"))
    from khoma.homology import homology_unnormalized

    with pytest.raises(ValueError):
        diagonal_profile(homology_unnormalized(parse_word("1 1 1")))


def test_poincare_ignores_torsion():
    table = homology(parse_word("1 1 1"))
    assert (3, 7) not in poincare(table).coeffs


def test_bracket_honours_crossing_budget():
    with pytest.raises(CrossingLimitError, match="word has 18 crossings, limit is 16"):
        kauffman_bracket(torus_word(3, 9))
    with pytest.raises(CrossingLimitError, match="word has 13 crossings, limit is 12"):
        jones_from_bracket(torus_word(2, 13), max_crossings=12)
    for word in (torus_word(2, 3), Word(3)):
        with pytest.raises(ValueError, match="max_crossings must be at least 0, got -1"):
            kauffman_bracket(word, max_crossings=-1)
    assert kauffman_bracket(Word(1), max_crossings=0) == LaurentPoly1({1: 1, -1: 1})


def assert_bracket_matches_oracle(w):
    expected = oracle.bracket_poly(_oracle_letters(w), strands=w.strands)
    assert kauffman_bracket(w).coeffs == expected, str(w)


def test_bracket_scan_matches_oracle_on_seeded_words():
    rng = random.Random(24)
    for _ in range(300):
        strands = rng.randint(1, 5)
        length = rng.randint(1, 7) if strands > 1 else 0
        letters = tuple(
            Letter(rng.choice((POS_CROSS, NEG_CROSS)), rng.randint(1, strands - 1))
            for _ in range(length)
        )
        assert_bracket_matches_oracle(Word(strands, letters))


def test_bracket_scan_matches_oracle_with_smoothing_letters():
    rng = random.Random(25)
    for text, strands in [("1 1 1", 2), ("1 -2 1 -2", 3), ("2 2 1 -2 1", 3), ("1 -2 3 -1 2 -3", 4)]:
        w = parse_word(text, strands=strands)
        for flat in range(w.crossing_count):
            for r in (0, 1):
                smoothed = resolve_crossing(w, flat, r)
                assert_bracket_matches_oracle(smoothed)
                if smoothed.crossing_count:
                    again = rng.randrange(smoothed.crossing_count)
                    assert_bracket_matches_oracle(resolve_crossing(smoothed, again, 1))


def test_bracket_scan_matches_oracle_without_crossings():
    for strands in range(1, 7):
        assert_bracket_matches_oracle(Word(strands))
        assert kauffman_bracket(Word(strands)) == LaurentPoly1({1: 1, -1: 1}) ** strands


def test_bracket_scan_matches_oracle_on_benchmark_braids(workloads):
    words = {text for seed in (1, 2, 3) for text in workloads.braid_words(seed)}
    assert len(words) == 225
    for text in sorted(words):
        assert_bracket_matches_oracle(parse_word(text))


def test_bracket_of_a_wide_word_is_its_closed_form():
    def too_slow(_signum, _frame):
        raise TimeoutError("bracket of a 255-strand word took over a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(1)
    try:
        bracket = kauffman_bracket(parse_word("1", strands=255))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # the identity leaves 255 loops, the cap-cup 254 at weight one
    assert bracket == LaurentPoly1({-1: 1}) * LaurentPoly1({1: 1, -1: 1}) ** 254


def test_bracket_shares_no_fault_with_the_cube(monkeypatch):
    """Flip every crossing's smoothing bit in the arc graph: the cube computes
    the homology of another diagram, and the bracket must not follow it."""
    init = _ArcGraph.__init__

    def flipped(self, w):
        init(self, w)
        self.letters = tuple((f, 1 - sb, sm, st) for f, sb, sm, st in self.letters)

    monkeypatch.setattr(_ArcGraph, "__init__", flipped)
    corpus = [("1 1 1", None), ("1 2 1 2", None), ("1 1 2 -1 2", None), ("2 2 1 -2 1", 3)]
    moved = [
        text
        for text, strands in corpus
        if graded_euler(homology(parse_word(text, strands=strands)))
        != jones_from_bracket(parse_word(text, strands=strands))
    ]
    assert moved
