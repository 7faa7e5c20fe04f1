"""Cube construction: vertices, edge maps, signs, differentials, cone split."""

import functools
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from khoma.cube import (
    _carry,
    _edge_template,
    _image_masks,
    _mask_ranks,
    _masks_of_weight,
    _term,
    build_cube,
    mapping_cone_split,
)
from khoma.diagram import (
    CrossingLimitError,
    Word,
    circles,
    mirror,
    neg_cross,
    parse_word,
    pos_cross,
    smooth,
    torus_word,
)
from khoma.verify import e_diagram
from khoma.zalgebra import SparseIntMat, rank_q
from test_diagram import _oracle_letters, arc_tracing_words


def mask(*bits):
    out = 0
    for b in bits:
        out |= 1 << b
    return out


def edge_sign(eps, bit):
    return -1 if (eps & ((1 << bit) - 1)).bit_count() & 1 else 1


def oracle_vertices(cube):
    """eps -> the vertex's circles as point sets, traced by the oracle.

    The oracle numbers circles by their least (row, strand) point, which is
    the engine's numbering by key.  Memoized per cube.
    """
    w = cube.word
    letters = _oracle_letters(w)
    by_word = sorted(cube.labels, key=lambda lab: lab.letter_index)

    @functools.cache
    def circles_of(eps):
        state = tuple((eps >> lab.flat_index) & 1 for lab in by_word)
        return oracle.circle_sets(w.strands, oracle.state_slots(letters, state))

    return circles_of


def labels_of(mask, count):
    """The oracle's spelling of a label mask: bit k set means circle k carries X."""
    return tuple("X" if (mask >> k) & 1 else "1" for k in range(count))


def label_q_degree(circles_of, eps, mask):
    """(#1-labels - #X-labels) + weight, counted on the oracle's circles of eps."""
    labels = labels_of(mask, len(circles_of(eps)))
    return labels.count("1") - labels.count("X") + eps.bit_count()


def oracle_image_masks(src_circles, tgt_circles, mask):
    """Target label masks of one basis element across one edge, by the oracle."""
    images = oracle._edge_images(src_circles, tgt_circles, labels_of(mask, len(src_circles)))
    return [sum(1 << k for k, a in enumerate(image) if a == "X") for image in images]


def point_state(cube, eps):
    """A vertex's circle keys and per-point membership, as ``circles`` gives them."""
    graph = cube.word._arcs
    vx = cube.vertex(eps)
    keys = tuple(graph.arc_keys[k] for k in vx.keys)
    return keys, tuple(vx.arcs[a] for a in graph.arc_of_point)


def test_build_cube_unknot():
    cube = build_cube(Word(1))
    assert cube.m == 0
    (vx,) = cube.vertices_by_eps(0).values()
    assert vx.count == 1
    assert cube.chain_rank(0, 1) == 1 and cube.chain_rank(0, -1) == 1
    assert cube.chain_rank(0, 3) == 0 and cube.chain_rank(1, 1) == 0


def test_build_cube_trefoil_circles():
    cube = build_cube(parse_word("1 1 1"))
    by_weight = {
        i: [vx.count for vx in cube.vertices_by_eps(i).values()] for i in range(4)
    }
    assert by_weight == {0: [2], 1: [1, 1, 1], 2: [2, 2, 2], 3: [3]}


def test_build_cube_limit():
    with pytest.raises(CrossingLimitError):
        build_cube(torus_word(3, 9))
    build_cube(torus_word(3, 9), max_crossings=18)  # explicit budget is honoured


def test_chain_ranks_trefoil():
    cube = build_cube(parse_word("1 1 1"))
    assert cube.chain_rank(0, 2) == 1
    assert cube.chain_rank(0, 0) == 2
    assert cube.chain_rank(0, -2) == 1
    assert sum(cube.chain_rank(1, j) for j in cube.chain_basis(1)) == 6
    assert sum(sum(cube.chain_ranks(i).values()) for i in range(4)) == sum(
        2 ** vx.count for i in range(4) for vx in cube.vertices_by_eps(i).values()
    )


def test_edge_rules_on_the_trefoil():
    cube = build_cube(parse_word("1 1 1"))
    # 000 -> 100 merges the two circles into one
    assert cube.edge(0, 0) == (mask(0), 1, (0, 1), (0,))
    # multiplication: (1,1)->1, (1,X)->X, (X,1)->X, (X,X)->0
    merge = ((0, 1), (0,))
    assert [_image_masks(*merge, m, 0) for m in range(4)] == [(0,), (1,), (1,), ()]
    # 100 -> 110 splits one circle into two
    assert cube.edge(mask(0), 1) == (mask(0, 1), -1, (0,), (0, 1))
    # comultiplication: 1 -> 1|X + X|1, X -> X|X
    split = ((0,), (0, 1))
    assert [_image_masks(*split, m, 0) for m in range(2)] == [(mask(0), mask(1)), (mask(0, 1),)]
    # d^{1,2}: each one-circle vertex 100, 010, 001 (columns) splits along
    # its two edges into the two labellings X|1, 1|X of 110, 101, 011 (rows)
    assert cube.differential_matrix(1, 2).to_dense() == [
        [-1, 1, 0],
        [-1, 1, 0],
        [-1, 0, 1],
        [-1, 0, 1],
        [0, -1, 1],
        [0, -1, 1],
    ]


def test_edge_signs_count_ones_before_bit():
    cube = build_cube(parse_word("1 1 1"))
    assert cube.edge(0, 2).sign == 1
    assert cube.edge(mask(0), 2).sign == -1
    assert cube.edge(mask(0, 1), 2).sign == 1
    assert cube.edge(mask(1), 0).sign == 1  # earlier bits only


def test_edge_squares_anticommute():
    # two-step sign rule: flipping j then k is minus flipping k then j
    for text in ["1 1 1", "1 2 1 2", "1 -2 1 2"]:
        w = parse_word(text, strands=3)
        cube = build_cube(w)
        m = cube.m
        for eps in range(1 << m):
            for j in range(m):
                for k in range(j + 1, m):
                    if (eps >> j) & 1 or (eps >> k) & 1:
                        continue
                    s1 = cube.edge(eps, j).sign * cube.edge(eps | mask(j), k).sign
                    s2 = cube.edge(eps, k).sign * cube.edge(eps | mask(k), j).sign
                    assert s1 == -s2


def test_differential_squares_to_zero():
    for text, strands in [("1 1 1", None), ("1 2 1 2", None), ("-1 -1", None), ("1 -2 2 1", 3)]:
        cube = build_cube(parse_word(text, strands=strands))
        for i in range(cube.m):
            lower = cube.differential_blocks(i)
            upper = cube.differential_blocks(i + 1)
            for j, mat in lower.items():
                if j in upper:
                    assert (upper[j] @ mat).nnz == 0


def test_differential_squares_to_zero_ten_crossings():
    cube = build_cube(torus_word(3, 5))
    for i in range(cube.m):
        lower = cube.differential_blocks(i)
        upper = cube.differential_blocks(i + 1)
        for j, mat in lower.items():
            if j in upper:
                assert (upper[j] @ mat).nnz == 0


def test_differential_block_shapes_and_rank():
    cube = build_cube(parse_word("1 1 1"))
    block = cube.differential_matrix(0, 0)
    assert (block.rows, block.cols) == (3, 2)
    assert rank_q(block) == 1
    empty = cube.differential_matrix(5, 0)
    assert empty.cols == 0


def test_single_block_matches_whole_degree():
    """A block built alone equals the same block of a whole-degree sweep."""
    for text, strands in [("1 2 1 2 1 2 1 2", None), ("1 -2 1 1 -2 -2 1", 3)]:
        word = parse_word(text, strands=strands)
        whole, single = build_cube(word), build_cube(word)
        for i in range(-1, whole.m + 2):
            blocks = whole.differential_blocks(i)
            for j, mat in blocks.items():
                alone = single._assemble(i, (j,), {})[j]
                assert (alone.rows, alone.cols) == (mat.rows, mat.cols)
                assert alone.entries == mat.entries
                assert single.chain_rank(i, j) == whole.chain_rank(i, j)
            assert single.chain_basis(i) == whole.chain_basis(i)
            assert single.differential_blocks(i) == blocks


ARITHMETIC_WORDS = [
    torus_word(3, 4),
    torus_word(2, 5),
    mirror(torus_word(2, 5)),
    parse_word("1 -2 1 1 -2 -2 1", strands=3),
    Word(3, (pos_cross(1), smooth(2), pos_cross(1), pos_cross(2))),
]
ARITHMETIC_IDS = ["T(3,4)", "T(2,5)", "mirror T(2,5)", "mixed", "smoothing"]


@pytest.mark.parametrize("word", ARITHMETIC_WORDS, ids=ARITHMETIC_IDS)
def test_block_rows_by_arithmetic_match_basis_index(word):
    """Every entry sits at run start + mask rank, the basis index's row.

    The entries themselves are the oracle's: each basis element's labels on
    the oracle's circles of its vertex are pushed across every edge by the
    oracle's merge/split rule, with the sign of the edge.
    """
    cube = build_cube(word)
    circles_of = oracle_vertices(cube)
    terms = 0
    for i in range(-1, cube.m + 2):
        assert cube.chain_ranks(i) == {j: len(e) for j, e in cube.chain_basis(i).items()}
        for j, elems in cube.chain_basis(i).items():
            assert cube.chain_rank(i, j) == len(elems)
        starts = cube._runs(i + 1)[0]
        index = cube.basis_index(i + 1)
        for j, elems in cube.chain_basis(i).items():
            block = cube.differential_matrix(i, j)
            seen = {}
            for col, (eps, mask) in enumerate(elems):
                for b in range(cube.m):
                    if (eps >> b) & 1:
                        continue
                    target = eps | 1 << b
                    tgt = circles_of(target)
                    for out in oracle_image_masks(circles_of(eps), tgt, mask):
                        row = starts[target][out.bit_count()] + _mask_ranks(len(tgt))[out]
                        assert row == index[j][(target, out)]
                        seen[(row, col)] = seen.get((row, col), 0) + edge_sign(eps, b)
                        terms += 1
            assert block.entries == seen
        assert cube.chain_rank(i, 10 ** 6) == 0
    assert terms


def surgery_keys(cube):
    """(source circle count, touched circles) -> the edges with that surgery."""
    by_key = {}
    for i in range(cube.m):
        for eps, vx in cube.vertices_by_eps(i).items():
            for b in range(cube.m):
                if (eps >> b) & 1:
                    continue
                edge = cube.edge(eps, b)
                key = (vx.count, edge.src_affected, edge.tgt_affected)
                by_key.setdefault(key, []).append((eps, edge.target))
    return by_key


@pytest.mark.parametrize("word", ARITHMETIC_WORDS, ids=ARITHMETIC_IDS)
def test_shared_edge_template_matches_oracle(word):
    """Edges with the same surgery share a template, and it is right for each.

    Each edge's terms, run by run, come from the oracle's merge/split rule
    on the oracle's circles of its two vertices.
    """
    cube = build_cube(word)
    circles_of = oracle_vertices(cube)
    shared = [(key, edges[:2]) for key, edges in surgery_keys(cube).items() if len(edges) > 1]
    assert shared

    for key, edges in shared:
        template = _edge_template(*key)
        assert len(template) == key[0] + 1
        for eps, target in edges:
            src, tgt = circles_of(eps), circles_of(target)
            for x, (x_out, size, terms) in enumerate(template):
                assert size == len(_masks_of_weight(len(tgt), x_out))
                expected = []
                for offset, mask in enumerate(_masks_of_weight(len(src), x)):
                    for out in oracle_image_masks(src, tgt, mask):
                        assert out.bit_count() == x_out
                        expected.append((offset, _mask_ranks(len(tgt))[out]))
                assert sorted(terms) == sorted(expected)


TEMPLATE_WORDS = (
    torus_word(3, 4),
    parse_word("1 -2 1 -2 1", strands=3),
    Word(4, (pos_cross(1), smooth(2), neg_cross(1), pos_cross(2), pos_cross(3), neg_cross(2))),
)


def test_equal_surgeries_share_one_template_across_words():
    """Assembly builds one template per surgery key, whichever word meets it first.

    Equal (column offset, row rank) terms are one object across templates.
    """
    _edge_template.cache_clear()
    first, second = (build_cube(w) for w in TEMPLATE_WORDS[::2])
    keys_first, keys_second = set(surgery_keys(first)), set(surgery_keys(second))
    shared = keys_first & keys_second
    assert shared and keys_second - keys_first
    for i in range(first.m):
        first.differential_blocks(i)
    assert _edge_template.cache_info().misses == len(keys_first)
    templates = {key: _edge_template(*key) for key in shared}
    for i in range(second.m):
        second.differential_blocks(i)
    assert _edge_template.cache_info().misses == len(keys_first | keys_second)
    assert all(_edge_template(*key) is templates[key] for key in shared)
    terms = [
        term for key in keys_first | keys_second for run in _edge_template(*key) for term in run[2]
    ]
    assert all(term is _term(*term) for term in terms)
    assert len(set(map(id, terms))) == len(set(terms)) < len(terms)


def test_blocks_do_not_depend_on_which_word_built_the_templates():
    def blocks_in_order(words):
        _edge_template.cache_clear()
        built = {}
        for w in words:
            cube = build_cube(w)
            for i in range(-1, cube.m + 1):
                for j, block in cube.differential_blocks(i).items():
                    built[str(w), i, j] = (block.rows, block.cols, block.entries)
        return built

    assert blocks_in_order(TEMPLATE_WORDS) == blocks_in_order(TEMPLATE_WORDS[::-1])


@pytest.mark.parametrize("word", ARITHMETIC_WORDS, ids=ARITHMETIC_IDS)
def test_column_runs_tile_each_degree(word):
    """In vertex order, the runs of each C^{i,j} are consecutive and end at its dimension.

    Assembly numbers a block's columns from these run starts and takes its
    width from the same dimensions.
    """
    cube = build_cube(word)
    for i in range(cube.m + 1):
        starts, dims = cube._runs(i)
        ends = {}
        for eps, vx in cube.vertices_by_eps(i).items():
            for x, start in enumerate(starts[eps]):
                j = vx.count + i - 2 * x
                assert start == ends.get(j, 0)
                ends[j] = start + math.comb(vx.count, x)
        assert ends == dims
        assert {j: block.cols for j, block in cube.differential_blocks(i).items()} == dims


def test_edge_surgery_matches_traced_oracle():
    """Two corner points per side and the order carry give the traced surgery.

    Every edge of every arc-tracing word equals, field for field, the edge
    read off the crossing's four corner points, and ``_carry`` of its
    touched circles is the carry traced through each circle's key point.
    """
    checked = {"edges": 0, "one letter": 0, "smoothing": 0}
    for w in arc_tracing_words():
        cube = build_cube(w)
        rows = max(len(w.letters), 1)
        for i in range(cube.m):
            for eps, vx in cube.vertices_by_eps(i).items():
                src_keys, src_membership = point_state(cube, eps)
                for b in range(cube.m):
                    if (eps >> b) & 1:
                        continue
                    edge = cube.edge(eps, b)
                    lab = cube.labels[b]
                    _, src_affected, tgt_affected, carry = oracle.traced_edge(
                        w.strands, rows, lab.letter_index, lab.type,
                        src_keys, src_membership, point_state(cube, edge.target)[1],
                    )
                    expected = (eps | 1 << b, edge_sign(eps, b), src_affected, tgt_affected)
                    assert edge == expected, (str(w), eps, b)
                    assert _carry(vx.count, src_affected, tgt_affected) == carry
                    checked["edges"] += 1
                    checked["one letter"] += len(w.letters) == 1
                    checked["smoothing"] += w.smooth_count > 0
    assert all(checked.values()), checked


def arc_form(w, state):
    """A traced resolution per arc: each arc's circle, and each circle's first arc.

    Every point of an arc must lie on the arc's circle.
    """
    graph = w._arcs
    arcs = [None] * len(graph.arc_keys)
    for p, a in enumerate(graph.arc_of_point):
        assert arcs[a] in (None, state.membership[p])
        arcs[a] = state.membership[p]
    return tuple(arcs), tuple(graph.arc_keys.index(key) for key in state.keys)


def assert_vertices_match_circles(cube, i):
    w = cube.word
    degree = cube.vertices_by_eps(i)
    assert list(degree) == sorted(
        eps for eps in range(1 << cube.m) if eps.bit_count() == i
    )
    for eps, vx in degree.items():
        assert (vx.eps, vx.weight) == (eps, i)
        state = circles(w, tuple((eps >> b) & 1 for b in range(cube.m)))
        assert (vx.arcs, vx.keys) == arc_form(w, state), (str(w), eps)


def test_surgery_matches_traced_circles(monkeypatch):
    """Every vertex built by surgery from its parent is the traced resolution.

    Only the all-zero vertex of a cube is traced by ``circles``.
    """
    import khoma.cube

    traced = []

    def counted(w, bits):
        traced.append(bits)
        return circles(w, bits)

    monkeypatch.setattr(khoma.cube, "circles", counted)
    checked = {"vertices": 0, "one letter": 0, "smoothing": 0}
    for w in arc_tracing_words():
        cube = build_cube(w)
        traced.clear()
        for i in range(cube.m + 1):
            assert_vertices_match_circles(cube, i)
            checked["vertices"] += len(cube.vertices_by_eps(i))
        assert traced == [(0,) * cube.m]
        checked["one letter"] += len(w.letters) == 1
        checked["smoothing"] += w.smooth_count > 0 and cube.m > 0
    assert all(checked.values()), checked


def test_degree_rebuilt_after_its_parent_degree_is_released():
    for w in [torus_word(3, 4), parse_word("1 -2 1 1 -2 -2 1", strands=3)]:
        cube = build_cube(w)
        cube.vertices_by_eps(3)
        for i in (1, 2, 3):
            cube.release_degree(i)
        assert 2 not in cube._vertices
        assert_vertices_match_circles(cube, 3)
        assert_vertices_match_circles(cube, 2)
        # as the homology walk does: release a degree, then build the one
        # above its child
        cube.release_degree(2)
        assert_vertices_match_circles(cube, 4)


def test_first_request_for_a_high_degree_builds_from_the_bottom():
    w = Word(4, parse_word("1 2 3 -1 2 -3 1 2", strands=4).letters + (smooth(2),))
    cube = build_cube(w)
    top = (1 << cube.m) - 1
    assert cube.vertex(top ^ 1).weight == cube.m - 1
    assert_vertices_match_circles(cube, cube.m - 1)
    fresh = build_cube(w)
    assert_vertices_match_circles(fresh, cube.m)


def test_edge_carry_keeps_circle_keys():
    # an untouched circle keeps its point set, so it keeps its key too
    words = [
        torus_word(3, 4),
        parse_word("1 -2 1 1 -2 -2 1", strands=3),
        Word(5, parse_word("1 2 3 4 -2 3 1 -4", strands=5).letters + (smooth(3), pos_cross(2))),
    ]
    for w in words:
        cube = build_cube(w)
        checked = 0
        for i in range(cube.m):
            for eps in cube.vertices_by_eps(i):
                src_keys = point_state(cube, eps)[0]
                for b in range(cube.m):
                    if (eps >> b) & 1:
                        continue
                    edge = cube.edge(eps, b)
                    tgt_keys = point_state(cube, edge.target)[0]
                    carry = _carry(len(src_keys), edge.src_affected, edge.tgt_affected)
                    for c, t in enumerate(carry):
                        if c in edge.src_affected:
                            assert t is None
                        else:
                            assert tgt_keys[t] == src_keys[c]
                            checked += 1
        assert checked


def test_edge_maps_preserve_q_degree():
    """Every entry of d joins two labellings of the block's quantum degree.

    q is (#1-labels - #X-labels) + weight, counted here on the labels of
    the oracle's circles, for the engine's blocks and the oracle's edge maps.
    """
    for text in ["1 1 1", "1 2 1 2", "-1 2 -1"]:
        cube = build_cube(parse_word(text, strands=3))
        circles_of = oracle_vertices(cube)
        q = functools.partial(label_q_degree, circles_of)
        entries = 0
        for i in range(cube.m):
            for j, elems in cube.chain_basis(i).items():
                rows = cube.chain_basis(i + 1).get(j, [])
                for row, col in cube.differential_matrix(i, j).entries:
                    assert q(*elems[col]) == q(*rows[row]) == j
                    entries += 1
                for eps, mask in elems:
                    for b in range(cube.m):
                        if not (eps >> b) & 1:
                            target = eps | 1 << b
                            for out in oracle_image_masks(
                                circles_of(eps), circles_of(target), mask
                            ):
                                assert q(target, out) == j
        assert entries


def test_total_dimension_formula():
    # the chain ranks add up to 2^(circle count) over every resolution
    for p, q in [(2, 3), (3, 3)]:
        w = torus_word(p, q)
        cube = build_cube(w)
        letters = _oracle_letters(w)
        assert sum(sum(cube.chain_ranks(i).values()) for i in range(cube.m + 1)) == sum(
            2 ** oracle.circle_count(letters, state, w.strands)
            for state in itertools.product((0, 1), repeat=cube.m)
        )


def test_torus_34_vertex_census():
    cube = build_cube(torus_word(3, 4))
    assert sum(len(cube.vertices_by_eps(i)) for i in range(9)) == 256
    assert cube.vertex(0).count == 3
    assert cube.vertex(255).count == 1


def test_mapping_cone_partition_sizes():
    cube = build_cube(parse_word("1 1 1"))
    split = mapping_cone_split(cube, 0)
    assert sum(len(split.sub.vertices_by_eps(i)) for i in range(3)) == 4
    assert sum(len(split.quotient.vertices_by_eps(i)) for i in range(3)) == 4
    for i in range(cube.m + 1):
        for j in cube.chain_basis(i):
            assert cube.chain_rank(i, j) == split.quotient.chain_rank(
                i, j
            ) + split.sub.chain_rank(i - 1, j - 1)


CONE_WORDS = [
    pytest.param(parse_word(text, strands=strands), id=f"{text}-{strands}")
    for text, strands in [
        ("1 1 1", None),
        ("1 2 1 2", None),
        ("1 -1 1", None),
        ("-1 -1 -1", None),
        ("1 -2 2", 3),
    ]
] + [
    pytest.param(e_diagram(3, 4, 1), id="e_diagram(3,4,1)"),
    pytest.param(parse_word("1 -2 3 2 -1 3"), id="1 -2 3 2 -1 3-None"),
]


@pytest.mark.parametrize("word", CONE_WORDS)
def test_mapping_cone_chain_maps(word):
    cube = build_cube(word)
    for flat in range(cube.m):
        split = mapping_cone_split(cube, flat)
        js = {j for i in range(cube.m + 1) for j in cube.chain_basis(i)}
        js |= {j + 1 for j in js}
        for i in range(-1, cube.m + 2):
            for j in js:
                inc = split.inclusion_matrix(i, j)
                inc_next = split.inclusion_matrix(i + 1, j)
                d_total = cube.differential_matrix(i, j)
                d_sub = split.sub.differential_matrix(i - 1, j - 1)
                assert d_total @ inc == inc_next @ d_sub
                proj = split.projection_matrix(i, j)
                proj_next = split.projection_matrix(i + 1, j)
                d_quot = split.quotient.differential_matrix(i, j)
                assert d_quot @ proj == proj_next @ d_total
                # the lift is a section of the projection
                lift = split.lift_matrix(i, j)
                product = proj @ lift
                assert product == SparseIntMat.identity(product.rows)


# The cone maps as first built, one loop per map, kept to pin the face
# builder: each basis element is sent through a circle correspondence that
# matches the grid points of the resolved word with those of the total word.


def _row_map(length: int, deleted: int) -> list[int]:
    """Row renumbering after deleting one letter from a closed word.

    Rows are counted modulo the word length; deleting letter t merges the rows
    on its two sides.  Deleting the last letter merges back into the closure
    row 0.
    """
    rows = max(length, 1)
    new_rows = max(length - 1, 1)
    out = []
    for r in range(rows):
        if length == 1:
            out.append(0)
        elif deleted == length - 1:
            out.append(0 if r == length - 1 else r)
        else:
            out.append(r if r <= deleted else r - 1)
    if not all(0 <= r < new_rows for r in out):
        raise AssertionError("row map leaves the rows of the shorter word")
    return out


def reference_correspondence(split, bit, eps_small):
    """Per-circle index map, total vertex -> resolved-word vertex, by points."""
    small = split.sub if bit else split.quotient
    big = split.total.vertex(split._embed(eps_small, bit))
    small_vx = small.vertex(eps_small)
    big_arc_of = split.total.word._arcs.arc_of_point
    small_arc_of = small.word._arcs.arc_of_point
    if len(big_arc_of) == len(small_arc_of):
        point_map = range(len(big_arc_of))
    else:
        letter = split.total.labels[split.flat_index].letter_index
        rows = _row_map(len(split.total.word.letters), letter)
        s = split.total.strands
        point_map = [rows[p // s] * s + p % s for p in range(len(big_arc_of))]
    perm = [None] * big.count
    for p, small_p in enumerate(point_map):
        b = big.arcs[big_arc_of[p]]
        t = small_vx.arcs[small_arc_of[small_p]]
        if perm[b] is None:
            perm[b] = t
        elif perm[b] != t:
            raise AssertionError("circle correspondence is not well defined")
    perm_t = tuple(perm)
    if sorted(perm_t) != list(range(small_vx.count)):
        raise AssertionError("circle correspondence is not a bijection")
    return perm_t


def _pinned_inclusion(split, corr, i, j):
    cols = split.sub.chain_basis(i - 1).get(j - 1, [])
    rows_index = split.total.basis_index(i).get(j, {})
    entries = {}
    for col, (eps_small, mask_small) in enumerate(cols):
        perm = corr(1, eps_small)
        eps_big = split._embed(eps_small, 1)
        mask_big = 0
        for b, t in enumerate(perm):
            if (mask_small >> t) & 1:
                mask_big |= 1 << b
        row = rows_index[(eps_big, mask_big)]
        entries[(row, col)] = split._sign(eps_small)
    return SparseIntMat(split.total.chain_rank(i, j), len(cols), entries)


def _pinned_projection(split, corr, i, j):
    cols = split.total.chain_basis(i).get(j, [])
    rows_index = split.quotient.basis_index(i).get(j, {})
    entries = {}
    pi = split.flat_index
    for col, (eps_big, mask_big) in enumerate(cols):
        if (eps_big >> pi) & 1:
            continue
        eps_small = (eps_big >> (pi + 1)) << pi | eps_big & ((1 << pi) - 1)
        perm = corr(0, eps_small)
        mask_small = 0
        for b, t in enumerate(perm):
            if (mask_big >> b) & 1:
                mask_small |= 1 << t
        row = rows_index[(eps_small, mask_small)]
        entries[(row, col)] = 1
    return SparseIntMat(split.quotient.chain_rank(i, j), len(cols), entries)


def _pinned_lift(split, corr, i, j):
    cols = split.quotient.chain_basis(i).get(j, [])
    rows_index = split.total.basis_index(i).get(j, {})
    entries = {}
    for col, (eps_small, mask_small) in enumerate(cols):
        perm = corr(0, eps_small)
        eps_big = split._embed(eps_small, 0)
        mask_big = 0
        for b, t in enumerate(perm):
            if (mask_small >> t) & 1:
                mask_big |= 1 << b
        row = rows_index[(eps_big, mask_big)]
        entries[(row, col)] = 1
    return SparseIntMat(split.total.chain_rank(i, j), len(cols), entries)


@pytest.mark.parametrize("word", CONE_WORDS)
def test_face_builder_matches_pinned_cone_maps(word):
    cube = build_cube(word)
    maps = 0
    for flat in range(cube.m):
        split = mapping_cone_split(cube, flat)
        corr = functools.cache(functools.partial(reference_correspondence, split))
        js = {j for i in range(cube.m + 1) for j in cube.chain_basis(i)}
        js |= {j + 1 for j in js}
        for i in range(-1, cube.m + 2):
            for j in js:
                assert split.inclusion_matrix(i, j) == _pinned_inclusion(split, corr, i, j)
                assert split.projection_matrix(i, j) == _pinned_projection(split, corr, i, j)
                assert split.lift_matrix(i, j) == _pinned_lift(split, corr, i, j)
                maps += split.lift_matrix(i, j).nnz > 0
    assert maps


@st.composite
def words_with_smoothings(draw):
    strands = draw(st.integers(min_value=2, max_value=4))
    kinds = st.sampled_from((pos_cross, neg_cross, smooth))
    letters = draw(
        st.lists(
            st.builds(lambda kind, k: kind(k), kinds, st.integers(1, strands - 1)),
            min_size=1,
            max_size=6,
        )
    )
    return Word(strands, tuple(letters))


@settings(max_examples=40, deadline=None)
@given(words_with_smoothings())
@example(parse_word("1"))
@example(Word(3, (pos_cross(1), smooth(2), neg_cross(2), pos_cross(1))))
def test_cone_circle_correspondence_is_the_identity(word):
    # a resolved word's circles are those of its face vertex, in order, which
    # the face builder takes for granted; the examples split a one-letter
    # word and a crossing that is the last letter of its word
    cube = build_cube(word)
    for flat in range(cube.m):
        split = mapping_cone_split(cube, flat)
        for bit, small in ((1, split.sub), (0, split.quotient)):
            for i in range(small.m + 1):
                for eps_small in small.vertices_by_eps(i):
                    perm = reference_correspondence(split, bit, eps_small)
                    assert perm == tuple(range(len(perm)))


def test_mapping_cone_exhaustive_on_composites():
    # inclusion image is exactly the kernel of the projection, dimensionwise
    cube = build_cube(parse_word("1 2 1 2"))
    split = mapping_cone_split(cube, 2)
    for i in range(cube.m + 1):
        for j in cube.chain_basis(i):
            inc = split.inclusion_matrix(i, j)
            proj = split.projection_matrix(i, j)
            assert (proj @ inc).nnz == 0
            assert inc.cols + proj.rows == cube.chain_rank(i, j)


def test_mapping_cone_index_errors():
    cube = build_cube(parse_word("1 1"))
    with pytest.raises(IndexError):
        mapping_cone_split(cube, 2)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-2, max_value=2).filter(lambda k: k != 0),
        min_size=1,
        max_size=6,
    )
)
def test_random_words_d_squared_zero(letters):
    word = Word(
        3,
        tuple(
            pos_cross(min(abs(k), 2)) if k > 0 else neg_cross(min(abs(k), 2))
            for k in letters
        ),
    )
    cube = build_cube(word)
    for i in range(cube.m):
        lower = cube.differential_blocks(i)
        upper = cube.differential_blocks(i + 1)
        for j, mat in lower.items():
            if j in upper:
                assert (upper[j] @ mat).nnz == 0
