"""Word construction, crossing labelling, resolutions and circle tracing."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from khoma import diagram
from khoma.diagram import (
    NEG_CROSS,
    POS_CROSS,
    SMOOTH,
    Word,
    circle_count,
    circles,
    label_crossings,
    mirror,
    neg_cross,
    parse_word,
    pos_cross,
    resolve_crossing,
    smooth,
    torus_word,
)


def bits(mask, m):
    return tuple((mask >> k) & 1 for k in range(m))


def test_parse_simple():
    w = parse_word("1 1 1")
    assert w.strands == 2
    assert w.letters == (pos_cross(1),) * 3
    assert w.crossing_count == 3 and w.n_plus == 3 and w.n_minus == 0


def test_parse_mixed_signs():
    w = parse_word("1 -1", strands=2)
    assert w.n_plus == 1 and w.n_minus == 1


def test_parse_position_out_of_range():
    with pytest.raises(ValueError):
        parse_word("3 1", strands=2)


def test_parse_rejects_zero_and_junk():
    with pytest.raises(ValueError):
        parse_word("1 0 1")
    with pytest.raises(ValueError):
        parse_word("1 x")
    with pytest.raises(ValueError):
        parse_word("")


def test_parse_explicit_strands_widens():
    w = parse_word("1", strands=4)
    assert w.strands == 4


def test_torus_word_shapes():
    w = torus_word(3, 4)
    assert w.strands == 3
    assert len(w.letters) == 8
    assert w.letters[:2] == (pos_cross(1), pos_cross(2))
    assert w.crossing_count == 8 and w.n_minus == 0

    assert torus_word(1, 5).letters == ()
    assert torus_word(1, 5).strands == 1

    assert torus_word(2, 3).letters == (pos_cross(1),) * 3


def test_mirror_swaps_crossings():
    w = torus_word(2, 3)
    mw = mirror(w)
    assert mw.letters == (neg_cross(1),) * 3
    assert mw.n_plus == 0 and mw.n_minus == 3
    assert mirror(mw) == w
    assert mirror(Word(1)) == Word(1)


def test_mirror_keeps_smoothings():
    w = Word(3, (pos_cross(1), smooth(2), neg_cross(1)))
    assert mirror(w).letters == (neg_cross(1), smooth(2), pos_cross(1))


def test_label_crossings_torus_32():
    labels = label_crossings(torus_word(3, 2))
    assert [(l.type, l.ordinal) for l in labels] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [l.flat_index for l in labels] == [0, 1, 2, 3]
    assert labels[0].letter_index == 0  # the first sigma_1


def test_label_crossings_single_type():
    w = Word(4, (pos_cross(2),) * 5)
    labels = label_crossings(w)
    assert all(l.type == 2 for l in labels)
    assert [l.ordinal for l in labels] == [1, 2, 3, 4, 5]
    assert label_crossings(Word(2)) == ()


def test_label_crossings_skips_smoothings():
    w = Word(3, (smooth(1), pos_cross(2), pos_cross(1)))
    labels = label_crossings(w)
    assert [(l.type, l.ordinal, l.letter_index) for l in labels] == [
        (1, 1, 2),
        (2, 1, 1),
    ]


def test_resolve_crossing_e1_diagram():
    # 1-resolving the first type-2 crossing of the (3,4) torus diagram leaves
    # a smoothing in place
    w = torus_word(3, 4)
    flat = next(l.flat_index for l in label_crossings(w) if (l.type, l.ordinal) == (2, 1))
    e1 = resolve_crossing(w, flat, 1)
    assert e1.letters == (
        pos_cross(1),
        smooth(2),
        pos_cross(1),
        pos_cross(2),
        pos_cross(1),
        pos_cross(2),
        pos_cross(1),
        pos_cross(2),
    )
    d1 = resolve_crossing(w, flat, 0)
    assert d1.crossing_count == 7 and d1.smooth_count == 0


def test_resolve_crossing_deletion():
    w = parse_word("1 1 1")
    assert resolve_crossing(w, 0, 0).letters == (pos_cross(1),) * 2
    assert resolve_crossing(w, 0, 1).letters[0] == smooth(1)
    with pytest.raises(IndexError):
        resolve_crossing(w, 3, 0)


def test_resolve_negative_crossing_mirror_rule():
    w = parse_word("-1 -1")
    assert resolve_crossing(w, 0, 0).letters[0] == smooth(1)
    assert resolve_crossing(w, 0, 1).letters == (neg_cross(1),)


def test_circles_identity_closure():
    for p, q in [(2, 3), (3, 4), (4, 3)]:
        w = torus_word(p, q)
        assert circle_count(w, [0] * w.crossing_count) == p


def test_circles_all_one_torus_34():
    st_ = circles(torus_word(3, 4), [1] * 8)
    assert st_.count == 1


def test_circles_trefoil_states():
    w = parse_word("1 1 1")
    counts = [circle_count(w, bits(mask, 3)) for mask in range(8)]
    assert counts == [2, 1, 1, 2, 1, 2, 2, 3]
    assert circles(w, (1, 1, 1)).count == 3
    assert circles(w, (0, 0, 0)).count == 2


def test_internal_loop_counts_as_circle():
    w = Word(2, (smooth(1), smooth(1)))
    st_ = circles(w, ())
    assert st_.count == 2
    # the loop between the two smoothings owns its own traversed points
    assert frozenset({(1, 1), (1, 2)}) in {st_.circle_points(k) for k in range(2)}


def test_resolved_state_bookkeeping():
    w = parse_word("1 1 1")
    st_ = circles(w, (1, 0, 1))
    assert st_.weight == 2
    assert st_.count == len(st_.keys)
    assert sorted(st_.keys) == list(st_.keys)
    union = set()
    for k in range(st_.count):
        pts = st_.circle_points(k)
        assert min(pts) == st_.keys[k]
        union |= pts
    assert len(union) == st_.rows * st_.strands


def test_circles_requires_full_assignment():
    with pytest.raises(ValueError):
        circles(parse_word("1 1"), (0,))
    with pytest.raises(ValueError):
        circles(parse_word("1 1"), (0, 2))


words_strategy = st.tuples(
    st.integers(min_value=2, max_value=4),
    st.lists(st.integers(min_value=-3, max_value=3).filter(lambda k: k != 0), max_size=7),
).map(
    lambda sw: Word(
        sw[0],
        tuple(
            pos_cross(min(abs(k), sw[0] - 1)) if k > 0 else neg_cross(min(abs(k), sw[0] - 1))
            for k in sw[1]
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(words_strategy)
def test_circle_counts_match_oracle(w):
    letters = [
        x.position if x.kind == POS_CROSS else -x.position for x in w.letters
    ]
    m = w.crossing_count
    for mask in range(2 ** m):
        eps = bits(mask, m)
        # the oracle indexes crossings in word order; translate from flat order
        labels = label_crossings(w)
        by_word = [0] * m
        for n, lab in enumerate(sorted(labels, key=lambda l: l.letter_index)):
            by_word[n] = eps[lab.flat_index]
        assert circle_count(w, eps) == oracle.circle_count(
            letters, tuple(by_word), strands=w.strands
        )


def _oracle_letters(w):
    """The oracle's spelling of a word: +-k for crossings, ("o", k) for smoothings."""
    return [
        ("o", x.position) if x.kind == SMOOTH
        else x.position if x.kind == POS_CROSS
        else -x.position
        for x in w.letters
    ]


def _random_word(rng, strands, length):
    kinds = {"+": pos_cross, "-": neg_cross, "o": smooth}
    return Word(
        strands,
        tuple(
            kinds[rng.choice("+-o")](rng.randint(1, strands - 1)) for _ in range(length)
        ),
    )


def arc_tracing_words():
    """Fixed random words of up to 10 letters, smoothings included."""
    rng = random.Random(20260)
    words = [Word(1), Word(2), Word(4), Word(2, (smooth(1),))]
    words += [_random_word(rng, s, 1) for s in range(2, 7) for _ in range(3)]
    words += [_random_word(rng, rng.randint(2, 6), rng.randint(0, 10)) for _ in range(300)]
    return words


def test_arc_tracing_matches_grid_reference():
    words = arc_tracing_words()
    assert any(w.smooth_count and w.crossing_count for w in words)
    for w in words:
        letters = _oracle_letters(w)
        labels = sorted(label_crossings(w), key=lambda lab: lab.letter_index)
        m = w.crossing_count
        for mask in range(1 << m):
            eps = bits(mask, m)
            by_word = tuple(eps[lab.flat_index] for lab in labels)
            count, keys, membership, rows = oracle.grid_resolution(
                w.strands, oracle.state_slots(letters, by_word)
            )
            state = circles(w, eps)
            assert state == diagram.ResolvedState(
                assignment=eps,
                count=count,
                keys=keys,
                membership=membership,
                rows=rows,
                strands=w.strands,
            ), (str(w), eps)
            assert circle_count(w, eps) == count


@settings(max_examples=60, deadline=None)
@given(words_strategy)
def test_flipping_one_bit_changes_count_by_one(w):
    m = w.crossing_count
    labels = label_crossings(w)
    for mask in range(2 ** m):
        eps = bits(mask, m)
        base = circle_count(w, eps)
        # caps and cups are the only way to close extra circles
        smooth_slots = w.smooth_count + sum(
            1
            for lab in labels
            if (w.letters[lab.letter_index].kind == POS_CROSS)
            == (eps[lab.flat_index] == 1)
        )
        assert 1 <= base <= w.strands + smooth_slots
        for b in range(m):
            if not (mask >> b) & 1:
                flipped = circle_count(w, bits(mask | (1 << b), m))
                assert abs(flipped - base) == 1


@settings(max_examples=40, deadline=None)
@given(words_strategy)
def test_mirror_swaps_sign_counts(w):
    assert mirror(w).n_plus == w.n_minus
    assert mirror(w).n_minus == w.n_plus
    assert mirror(mirror(w)) == w


@settings(max_examples=40, deadline=None)
@given(words_strategy)
def test_labels_are_a_total_order(w):
    labels = label_crossings(w)
    assert [l.flat_index for l in labels] == list(range(w.crossing_count))
    assert list(labels) == sorted(labels, key=lambda l: (l.type, l.ordinal))
    for a, b in itertools.combinations(labels, 2):
        if a.type == b.type:
            assert (a.ordinal < b.ordinal) == (a.letter_index < b.letter_index)


def test_flip_steps_on_ten_crossing_word():
    # the one-step circle change holds across the whole cube at ten crossings
    w = torus_word(3, 5)
    m = w.crossing_count
    counts = [circle_count(w, bits(mask, m)) for mask in range(1 << m)]
    for mask in range(1 << m):
        for b in range(m):
            if not (mask >> b) & 1:
                assert abs(counts[mask | (1 << b)] - counts[mask]) == 1


def test_resolution_order_does_not_matter():
    # fully resolving crossings one by one agrees with the all-at-once trace
    w = torus_word(3, 3)
    m = w.crossing_count
    for mask in [0, 5, 21, 63, 42]:
        eps = bits(mask, m)
        step = w
        for flat in reversed(range(m)):  # resolve from the back to keep indices stable
            step = resolve_crossing(step, flat, eps[flat])
        assert step.crossing_count == 0
        assert circle_count(step, ()) == circle_count(w, eps)


def test_signed_letters_roundtrip():
    w = parse_word("1 -2 1", strands=3)
    assert w.signed_letters() == (1, -2, 1)
    with pytest.raises(ValueError):
        Word(3, (smooth(1),)).signed_letters()
