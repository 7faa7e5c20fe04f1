"""Torus-knot checks: twist reduction, vanishing, exactness, stability."""

from collections import Counter

import pytest

import _oracle as oracle
import khoma.verify
from khoma.cube import ConeSplit, build_cube
from khoma.diagram import (
    SMOOTH,
    label_crossings,
    mirror,
    parse_word,
    torus_word,
)
from khoma.homology import homology_unnormalized
from khoma.invariants import LaurentPoly1, kauffman_bracket, graded_euler
from khoma.verify import (
    CLAIMS,
    FAIL,
    LES_PRIMES,
    PASS,
    SKIPPED,
    _HomologyModP,
    check,
    check_conjecture1,
    check_e_vanishing,
    check_f1,
    check_f2,
    check_f3,
    check_les,
    check_low_degree_table,
    check_rem2,
    check_t1,
    check_width_lower_bound,
    d_diagram,
    e_diagram,
    stable_poly,
    stable_poly_report,
)
from khoma.zalgebra import SparseIntMat


def test_e_diagram_shape():
    e1 = e_diagram(3, 4, 1)
    assert [l.kind for l in e1.letters].count(SMOOTH) == 1
    assert e1.letters[1].kind == SMOOTH and e1.letters[1].position == 2
    assert e1.crossing_count == 7

    e2 = e_diagram(3, 4, 2)
    # after 0-resolving (2,1), the next step resolves (1,1)
    assert e2.crossing_count == 6
    assert sum(1 for l in e2.letters if l.kind == SMOOTH) == 1

    with pytest.raises(ValueError):
        e_diagram(3, 4, 3)


def test_d_diagram_drops_one_twist():
    # 0-resolving the first crossing of every type removes one full twist
    assert d_diagram(3, 4, 2) == torus_word(3, 3)
    assert d_diagram(4, 4, 3) == torus_word(4, 3)


def test_e_vanishing_oracle_cross_check():
    # the oracle agrees that the first resolution diagram has no low homology
    word = e_diagram(3, 3, 1)
    letters = []
    for letter in word.letters:
        if letter.kind == SMOOTH:
            letters.append(("o", letter.position))
        else:
            letters.append(letter.position)
    groups = oracle.khovanov_groups(letters, strands=3)
    assert all(i >= 3 for (i, j) in groups)


@pytest.mark.parametrize(
    "p,q,i,expected",
    [
        (3, 4, 1, PASS),
        (3, 4, 2, PASS),
        (3, 3, 1, PASS),
        (3, 3, 2, PASS),
        (3, 5, 1, PASS),
        (3, 5, 2, PASS),
    ],
)
def test_e_vanishing(p, q, i, expected):
    report = check_e_vanishing(p, q, i)
    assert report.verdict == expected
    assert report.witness["nonzero"] == []


def test_e_vanishing_guards():
    with pytest.raises(ValueError):
        check_e_vanishing(3, 4, 0)
    report = check_e_vanishing(5, 9, 1, max_crossings=16)
    assert report.verdict == SKIPPED


def test_t1_anchors():
    assert check_t1(3, 3).witness == {"i": 4, "j": 9, "rank": 1}
    assert check_t1(3, 3).verdict == PASS
    assert check_t1(3, 4).witness == {"i": 4, "j": 11, "rank": 1}
    assert check_t1(3, 4).verdict == PASS
    # one more twist: the same rank persists, as twist reduction predicts
    assert check_t1(3, 5).witness == {"i": 4, "j": 13, "rank": 1}
    assert check_t1(4, 4, max_crossings=8).verdict == SKIPPED
    with pytest.raises(ValueError):
        check_t1(2, 3)


def test_f1_small_cases():
    assert check_f1(2, 3).verdict == PASS
    assert check_f1(2, 4).verdict == PASS
    assert check_f1(3, 4).verdict == PASS
    with pytest.raises(ValueError):
        check_f1(3, 3)


def test_f2_iterates_f1():
    report = check_f2(2, 5)
    assert report.verdict == PASS
    assert report.witness["i_below"] == 3


def test_f2_three_strands_full_range():
    # all twist counts 4..7 share the raw groups below degree five
    report = check_f2(3, 7)
    assert report.verdict == PASS, report.witness
    assert report.witness["i_below"] == 5
    # direct endpoint comparison, not just the consecutive chain
    left = homology_unnormalized(torus_word(3, 4), max_i=4)
    right = homology_unnormalized(torus_word(3, 7), max_i=4)
    assert {k: (g.rank, g.torsion) for k, g in left.groups.items() if k[0] < 5} == {
        k: (g.rank, g.torsion) for k, g in right.groups.items() if k[0] < 5
    }


def test_rem2_refined_bound():
    # (3, 4): refined bound q - 1 + floor((q-1)/p)(p-2) = 3 + 1 = 4
    report = check_rem2(3, 4)
    assert report.verdict == PASS
    assert report.witness["i_below"] == 4
    assert check_rem2(2, 5).witness["i_below"] == 4


def test_rem2_beats_plain_bound_at_seven_twists():
    # at (3, 7) the refined bound reaches degree 8, past p + q - 3 = 7
    report = check_rem2(3, 7)
    assert report.verdict == PASS, report.witness
    assert report.witness["i_below"] == 8


def test_f3_square_reduction():
    report = check_f3(3)
    assert report.verdict == PASS
    assert report.witness["i_below"] == 3
    # p = 2: the bound collapses to checking degree zero only
    report = check_f3(2)
    assert report.verdict == PASS
    assert report.witness["i_below"] == 1


def test_f3_four_strands():
    report = check_f3(4)
    assert report.verdict == PASS, report.witness
    assert report.witness["i_below"] == 5


def test_f3_matches_oracle_small():
    # raw groups of the (3,3) diagram against the trefoil, shifted by one
    square = homology_unnormalized(torus_word(3, 3))
    slim = oracle.khovanov_groups([1, 1, 1])
    for i in range(3):
        left = {(a, b): (g.rank, g.torsion) for (a, b), g in square.groups.items() if a == i}
        right = {(a, b - 1): g for (a, b), g in slim.items() if a == i}
        assert left == right


def test_low_degree_table():
    assert check_low_degree_table(3, 4).verdict == PASS
    assert check_low_degree_table(3, 3).verdict == SKIPPED
    report = check_low_degree_table(4, 4, max_crossings=10)
    assert report.verdict == SKIPPED


def test_les_trefoil_all_crossings():
    w = parse_word("1 1 1")
    for flat in range(3):
        report = check_les(w, flat)
        assert report.verdict == PASS, report.witness


def test_les_rejects_negative_crossings():
    w = parse_word("1 -1 1")
    labels = label_crossings(w)
    assert w.letters[labels[1].letter_index].kind != SMOOTH
    with pytest.raises(ValueError):
        check_les(w, 1)  # the middle letter is the negative crossing
    assert check_les(w, 0).verdict == PASS


def test_les_every_positive_crossing_of_corpus():
    corpus = [("1 1", None), ("1 2 1 2", None), ("1 -1 1", None), ("2 1 1", None)]
    for text, strands in corpus:
        w = parse_word(text, strands=strands)
        labels = label_crossings(w)
        for lab in labels:
            if w.letters[lab.letter_index].kind == "+":
                report = check_les(w, lab.flat_index)
                assert report.verdict == PASS, (text, lab.flat_index, report.witness)


def test_les_on_plat_bearing_word():
    # the twist-reduction sequence applies the triangle to diagrams that
    # already carry a smoothing; exactness must hold there too
    word = e_diagram(3, 3, 1)
    labels = label_crossings(word)
    flat = next(
        lab.flat_index
        for lab in labels
        if word.letters[lab.letter_index].kind == "+"
    )
    report = check_les(word, flat)
    assert report.verdict == PASS, report.witness


@pytest.mark.parametrize(
    "word",
    [
        torus_word(3, 4),
        torus_word(2, 5),
        mirror(torus_word(2, 5)),
        parse_word("1 -2 1 1 -2 -2 1", strands=3),
    ],
    ids=str,
)
def test_homology_mod_p_obeys_universal_coefficients(word):
    # dim H^{i,j}(C; F_p) = rank H^{i,j} + #{factors of H^{i,j} divisible by p}
    # + #{those of H^{i+1,j}}: the differential raises i
    cube = build_cube(word)
    table = homology_unnormalized(word)
    assert any(g.torsion for g in table.groups.values())  # Z/2 in every word here
    for p in (2, 3, 2 ** 31 - 1):
        h = _HomologyModP(cube, p)
        for i in range(cube.m + 1):
            for j in cube.chain_basis(i):
                here, above = table.group(i, j), table.group(i + 1, j)
                expected = (
                    here.rank
                    + sum(1 for d in here.torsion if d % p == 0)
                    + sum(1 for d in above.torsion if d % p == 0)
                )
                assert h.dim_h(i, j) == expected, (p, i, j)
                if expected:
                    assert len(h.slice(i, j)[1]) == expected


def _doubled(method):
    def doubled(self, i, j):
        mat = method(self, i, j)
        return SparseIntMat(mat.rows, mat.cols, {rc: 2 * v for rc, v in mat.entries.items()})

    return doubled


def test_les_over_f2_sees_a_projection_scaled_by_two(monkeypatch):
    # twice a chain map is a chain map with the same image and kernel over Q
    # and over any odd prime; only F_2 sees that the projection vanishes
    monkeypatch.setattr(ConeSplit, "projection_matrix", _doubled(ConeSplit.projection_matrix))
    report = check_les(torus_word(3, 4), 4)
    assert report.verdict == FAIL
    assert {f["p"] for f in report.witness["failures"]} == {2}


def test_les_reports_an_inclusion_that_is_not_a_chain_map(monkeypatch):
    monkeypatch.setattr(ConeSplit, "_sign", lambda self, eps_small: 1)
    report = check_les(torus_word(3, 4), 4)
    assert report.verdict == FAIL
    failures = report.witness["failures"]
    assert any(f["defect"] == "not-a-cycle" for f in failures)
    # signs vanish over F_2, where the unsigned inclusion is a chain map
    assert {f["p"] for f in failures} == {LES_PRIMES[1]}


def test_les_reports_a_lift_whose_boundary_escapes(monkeypatch):
    lift = ConeSplit.lift_matrix

    def reversed_lift(self, i, j):
        mat = lift(self, i, j)
        return SparseIntMat(
            mat.rows, mat.cols, {(r, mat.cols - 1 - c): v for (r, c), v in mat.entries.items()}
        )

    monkeypatch.setattr(ConeSplit, "lift_matrix", reversed_lift)
    report = check_les(torus_word(3, 4), 4)
    assert report.verdict == FAIL
    escaped = [f for f in report.witness["failures"] if f["defect"] == "escaped-subcomplex"]
    assert escaped and all(f["station"] == "one-resolution" for f in escaped)
    # the failures of the lift as the cone maps were first built, both primes
    assert Counter((f["station"], f["defect"]) for f in report.witness["failures"]) == {
        ("one-resolution", "escaped-subcomplex"): 3,
        ("zero-resolution", "rank"): 3,
        ("one-resolution", "rank"): 3,
    }


def test_les_builds_each_cone_map_once(monkeypatch):
    """Each face map is built once per (bit, i, j), each projection once per (i, j)."""
    builds, projections, transposes = [], [], []
    face_matrix = ConeSplit._face_matrix
    projection_matrix = ConeSplit.projection_matrix
    transpose = SparseIntMat.transpose

    def counted(self, small, bit, i, j):
        builds.append((bit, i, j))
        return face_matrix(self, small, bit, i, j)

    def counted_projection(self, i, j):
        projections.append((i, j))
        return projection_matrix(self, i, j)

    def counted_transpose(self):
        transposes.append(self)
        return transpose(self)

    monkeypatch.setattr(ConeSplit, "_face_matrix", counted)
    monkeypatch.setattr(ConeSplit, "projection_matrix", counted_projection)
    monkeypatch.setattr(SparseIntMat, "transpose", counted_transpose)
    report = check_les(torus_word(3, 4), 4)
    assert report.to_json() == {
        "claim": "les",
        "params": {"crossing": 4, "strands": 3, "word": "1 2 1 2 1 2 1 2"},
        "verdict": PASS,
        "witness": {"failures": []},
    }
    assert len(builds) == len(set(builds)) == 13
    assert (len(projections), len(set(projections))) == (17, 10)
    assert len(transposes) == 10


def test_checks_accept_worker_pool():
    assert check_f1(3, 4, jobs=2).verdict == PASS


def test_jobs_refused_by_a_claim_that_does_not_take_them():
    assert not CLAIMS["les"].takes_jobs
    with pytest.raises(ValueError, match="does not take jobs"):
        check("les", torus_word(2, 3), 0, jobs=4)
    assert check("les", torus_word(2, 3), 0, jobs=1).verdict == PASS


def test_negative_crossing_budget_refused():
    with pytest.raises(ValueError, match="max_crossings must be at least 0"):
        check("f1", 3, 4, max_crossings=-5)
    with pytest.raises(ValueError, match="max_crossings must be at least 0, got -1"):
        stable_poly(3, 6, max_crossings=-1)


def test_les_euler_characteristic_identity():
    # the bracket recursion is the Euler shadow of the exact triangle
    from khoma.diagram import resolve_crossing

    w = parse_word("1 2 1 2")
    for flat in range(w.crossing_count):
        w0 = resolve_crossing(w, flat, 0)
        w1 = resolve_crossing(w, flat, 1)
        chi = graded_euler(homology_unnormalized(w))
        chi0 = graded_euler(homology_unnormalized(w0))
        chi1 = graded_euler(homology_unnormalized(w1))
        assert chi == chi0 - chi1.shifted(1)


def test_conjecture1_p3():
    report = check_conjecture1(3)
    assert report.verdict == PASS
    assert report.witness["rank"] == 1
    assert report.witness["width_at_least"] >= 3
    assert check_conjecture1(5).verdict == SKIPPED


def test_width_lower_bound():
    report = check_width_lower_bound(3, 4)
    assert report.verdict == PASS
    assert report.witness["delta_pair"] == [3, 7]
    # one more twist: the hypothesis group carries over unchanged
    report = check_width_lower_bound(3, 5)
    assert report.verdict == PASS
    assert report.witness["hypothesis_rank"] == 1
    assert report.witness["delta_pair"] == [5, 9]
    # degenerate two-strand case: hypothesis group is the trefoil's H^{2,2}
    report = check_width_lower_bound(2, 3)
    assert report.verdict == PASS
    assert report.witness["hypothesis_rank"] == 1
    assert report.witness["width_at_least"] >= 2


def test_corner_group_survives_last_twist_drop_p3():
    # (3,3) vs (3,4) at bigrading (4,3): the corner group is unchanged
    square = homology_unnormalized(torus_word(3, 3))
    wide = homology_unnormalized(torus_word(3, 4), max_i=4)
    assert square.group(4, 3) == wide.group(4, 3)
    assert square.group(4, 3).rank == 1


def test_stable_poly_two_strands():
    result = stable_poly(2, 6)
    assert result.n_checked == (3, 4, 5, 6)
    assert result.consistent
    # t-degree 0 stabilizes to the twist-normalized bottom pair
    assert result.truncation.t_coefficient(0) == LaurentPoly1({-2: 1, 0: 1})
    # agreement bound for the smallest pair: t-degrees below 2 + 3 - 3
    assert result.stable_t_bound == 2


def test_stable_poly_skips_over_budget():
    result = stable_poly(2, 20, max_crossings=8)
    assert tuple(result.n_skipped) == tuple(range(9, 21))
    assert set(result.n_checked) == {3, 4, 5, 6, 7, 8}
    report = stable_poly_report(4, 6, max_crossings=10)
    assert report.verdict == SKIPPED  # only n = ... none fit twice


def test_stable_poly_cost_does_not_grow_with_n_max():
    # the skipped twist counts are a tail, reported by where it starts
    report = stable_poly_report(2, 10**12, max_crossings=6)
    assert report.verdict == PASS
    assert report.witness["n_checked"] == [3, 4, 5, 6]
    assert report.witness["n_skipped_from"] == 7


def test_stable_poly_report_passes():
    report = stable_poly_report(2, 5)
    assert report.verdict == PASS
    assert report.witness["mismatches"] == []


def test_reports_serialize():
    import json

    report = check_t1(3, 3)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["claim"] == "T1"
    assert payload["verdict"] == "pass"
    assert report.passed


# per claim over integers: parameters outside its hypothesis with the error
# they raise, and parameters inside it
HYPOTHESES = {
    "t1": ((2, 3), "need 3 <= p <= q", (3, 4)),
    "f1": ((3, 3), "need 2 <= p < q", (3, 4)),
    "f2": ((4, 4), "need 2 <= p < q", (3, 5)),
    "f3": ((1,), "need p >= 2", (3,)),
    "rem2": ((1, 4), "need 2 <= p < q", (3, 4)),
    "table": ((4, 3), "need 3 <= p <= q", (3, 4)),
    "e-vanishing": ((3, 4, 3), "need 3 <= p <= q and 1 <= i <= p - 1", (3, 4, 1)),
    "conj1": ((2,), "need p >= 3", (3,)),
    "stable-poly": ((2, 2), "need m >= 2 and n_max > m", (2, 5)),
    "width": ((1, 3), "need 2 <= p <= q", (3, 4)),
}


def test_every_integer_claim_has_hypothesis_cases():
    assert set(HYPOTHESES) == {n for n, c in CLAIMS.items() if "word" not in c.params}


@pytest.mark.parametrize("name", sorted(HYPOTHESES))
def test_hypothesis_is_refused_before_the_budget(name):
    outside, message, _ = HYPOTHESES[name]
    with pytest.raises(ValueError) as err:
        check(name, *outside, max_crossings=0)
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(HYPOTHESES))
def test_over_budget_claim_is_skipped_without_a_word(monkeypatch, name):
    def no_word(*args):
        raise AssertionError("an over-budget claim built a word")

    monkeypatch.setattr(khoma.verify, "torus_word", no_word)
    monkeypatch.setattr(khoma.verify, "e_diagram", no_word)
    values = HYPOTHESES[name][2]
    need = CLAIMS[name].crossings(*values)
    report = check(name, *values, max_crossings=max(need - 1, 0))
    assert report.claim == CLAIMS[name].label
    assert report.verdict == SKIPPED
    if need:
        assert report.witness == {"reason": f"needs {need} crossings, limit is {need - 1}"}
    else:
        # no budget lies below 0: stable-poly skips in its body the twist
        # counts over the budget, here all of them
        assert report.witness["n_checked"] == []
