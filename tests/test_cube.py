"""Cube construction: vertices, edge maps, signs, differentials, cone split."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from khoma.cube import (
    MERGE,
    SPLIT,
    _mask_ranks,
    _masks_of_weight,
    apply_edge,
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
from khoma.zalgebra import SparseIntMat, rank_q
from test_diagram import arc_tracing_words


def mask(*bits):
    out = 0
    for b in bits:
        out |= 1 << b
    return out


def point_state(cube, eps):
    """A vertex's circle keys and per-point membership, as ``circles`` gives them."""
    graph = cube.word._arcs
    vx = cube.vertex(eps)
    keys = tuple(graph.arc_keys[k] for k in vx.keys)
    return keys, tuple(vx.arcs[a] for a in graph.arc_of_point)


def test_build_cube_unknot():
    cube = build_cube(Word(1))
    assert cube.m == 0
    (vx,) = cube.vertices(0)
    assert vx.count == 1
    assert sorted(vx.q_degree(m) for m in range(2)) == [-1, 1]
    assert cube.chain_rank(0, 1) == 1 and cube.chain_rank(0, -1) == 1
    assert cube.chain_rank(0, 3) == 0 and cube.chain_rank(1, 1) == 0


def test_build_cube_trefoil_circles():
    cube = build_cube(parse_word("1 1 1"))
    by_weight = {
        i: [vx.count for vx in cube.vertices(i)] for i in range(4)
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
    assert cube.total_dimension() == sum(
        2 ** vx.count for i in range(4) for vx in cube.vertices(i)
    )


def test_apply_edge_rules():
    cube = build_cube(parse_word("1 1 1"))
    # 000 -> 100 merges the two circles into one
    edge = cube.edge(0, 0)
    assert edge.kind == MERGE
    assert apply_edge(cube, edge, ("1", "1")) == [(("1",), 1)]
    assert apply_edge(cube, edge, ("1", "X")) == [(("X",), 1)]
    assert apply_edge(cube, edge, ("X", "1")) == [(("X",), 1)]
    assert apply_edge(cube, edge, ("X", "X")) == []
    # 100 -> 110 splits one circle into two
    split_edge = cube.edge(mask(0), 1)
    assert split_edge.kind == SPLIT
    image = apply_edge(cube, split_edge, ("1",))
    assert sorted(image) == [(("1", "X"), -1), (("X", "1"), -1)]
    assert apply_edge(cube, split_edge, ("X",)) == [(("X", "X"), -1)]


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
    """Every entry sits at run start + mask rank, the basis index's row."""
    cube = build_cube(word)
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
                vx = cube.vertex(eps)
                for edge in cube.edges_from(eps):
                    tgt = cube.vertex(edge.target)
                    for labels, coef in apply_edge(cube, edge, vx.labels(mask)):
                        out = tgt.label_mask(labels)
                        row = starts[edge.target][out.bit_count()] + _mask_ranks(tgt.count)[out]
                        assert row == index[j][(edge.target, out)]
                        seen[(row, col)] = seen.get((row, col), 0) + coef
                        terms += 1
            assert block.entries == seen
        assert cube.chain_rank(i, 10 ** 6) == 0
    assert terms


@pytest.mark.parametrize("word", ARITHMETIC_WORDS, ids=ARITHMETIC_IDS)
def test_shared_edge_template_matches_apply_edge(word):
    """Edges with the same surgery share a template, and it is right for each."""
    cube = build_cube(word)
    by_key = {}
    for i in range(cube.m):
        for eps in cube.vertices_by_eps(i):
            for edge in cube.edges_from(eps):
                for x in range(cube.vertex(eps).count + 1):
                    by_key.setdefault((edge[4:], x), []).append(edge)
    shared = [(x, edges[:2]) for (_, x), edges in by_key.items() if len(edges) > 1]
    assert shared

    def key(edge, x):
        return (len(edge.carry), edge.src_affected, edge.tgt_affected, x)

    for x, edges in shared:
        x_out, size, pairs = template = cube._template(key(edges[0], x))
        for edge in edges:
            assert cube._template(key(edge, x)) is template
            src, tgt = cube.vertex(edge.source), cube.vertex(edge.target)
            assert size == len(_masks_of_weight(tgt.count, x_out))
            terms = []
            for offset, mask in enumerate(_masks_of_weight(src.count, x)):
                for labels, coef in apply_edge(cube, edge, src.labels(mask)):
                    out = tgt.label_mask(labels)
                    assert out.bit_count() == x_out and coef == edge.sign
                    terms.append((offset, _mask_ranks(tgt.count)[out]))
            assert sorted(pairs) == sorted(terms)


def test_edge_surgery_matches_traced_oracle():
    """Two corner points per side and the order carry give the traced surgery.

    Every edge of every arc-tracing word equals, field for field, the edge
    read off the crossing's four corner points with a carry traced through
    each circle's key point.
    """
    checked = {"edges": 0, "one letter": 0, "smoothing": 0}
    for w in arc_tracing_words():
        cube = build_cube(w)
        rows = max(len(w.letters), 1)
        for i in range(cube.m):
            for eps in cube.vertices_by_eps(i):
                src_keys, src_membership = point_state(cube, eps)
                for edge in cube.edges_from(eps):
                    b = edge.bit
                    lab = cube.labels[b]
                    sign = -1 if (eps & ((1 << b) - 1)).bit_count() & 1 else 1
                    traced = oracle.traced_edge(
                        w.strands, rows, lab.letter_index, lab.type,
                        src_keys, src_membership, point_state(cube, edge.target)[1],
                    )
                    assert edge == (eps, eps | 1 << b, b, sign) + traced, (str(w), eps, b)
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
                for edge in cube.edges_from(eps):
                    tgt_keys = point_state(cube, edge.target)[0]
                    for c, t in enumerate(edge.carry):
                        if c in edge.src_affected:
                            assert t is None
                        else:
                            assert tgt_keys[t] == src_keys[c]
                            checked += 1
        assert checked


def test_edge_maps_preserve_q_degree():
    for text in ["1 1 1", "1 2 1 2", "-1 2 -1"]:
        cube = build_cube(parse_word(text, strands=3))
        for i in range(cube.m):
            for eps, vx in cube.vertices_by_eps(i).items():
                for b in range(cube.m):
                    if (eps >> b) & 1:
                        continue
                    edge = cube.edge(eps, b)
                    tgt = cube.vertex(edge.target)
                    for label_mask in range(1 << vx.count):
                        q = vx.q_degree(label_mask)
                        for labels, _ in apply_edge(cube, edge, vx.labels(label_mask)):
                            assert tgt.q_degree(tgt.label_mask(labels)) == q


def test_total_dimension_formula():
    for p, q in [(2, 3), (3, 3)]:
        cube = build_cube(torus_word(p, q))
        assert cube.total_dimension() == sum(
            2 ** vx.count for i in range(cube.m + 1) for vx in cube.vertices(i)
        )


def test_torus_34_vertex_census():
    cube = build_cube(torus_word(3, 4))
    assert sum(len(cube.vertices(i)) for i in range(9)) == 256
    assert cube.vertex(0).count == 3
    assert cube.vertex(255).count == 1


def test_mapping_cone_partition_sizes():
    cube = build_cube(parse_word("1 1 1"))
    split = mapping_cone_split(cube, 0)
    assert sum(1 for i in range(3) for _ in split.sub.vertices(i)) == 4
    assert sum(1 for i in range(3) for _ in split.quotient.vertices(i)) == 4
    for i in range(cube.m + 1):
        for j in cube.chain_basis(i):
            assert cube.chain_rank(i, j) == split.quotient.chain_rank(
                i, j
            ) + split.sub.chain_rank(i - 1, j - 1)


CONE_WORDS = [("1 1 1", None), ("1 2 1 2", None), ("1 -1 1", None), ("-1 -1 -1", None), ("1 -2 2", 3)]


@pytest.mark.parametrize("text,strands", CONE_WORDS)
def test_mapping_cone_chain_maps(text, strands):
    cube = build_cube(parse_word(text, strands=strands))
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


# The cone maps as first built, one loop per map, kept to pin the shared
# face builder: each basis element is sent through the circle correspondence.


def _pinned_inclusion(split, i, j):
    cols = split.sub.chain_basis(i - 1).get(j - 1, [])
    rows_index = split.total.basis_index(i).get(j, {})
    entries = {}
    for col, (eps_small, mask_small) in enumerate(cols):
        perm = split._correspondence(split.sub, eps_small, 1, split._sub_perm)
        eps_big = split._embed(eps_small, 1)
        mask_big = 0
        for b, t in enumerate(perm):
            if (mask_small >> t) & 1:
                mask_big |= 1 << b
        row = rows_index[(eps_big, mask_big)]
        entries[(row, col)] = split._sign(eps_small)
    return SparseIntMat(split.total.chain_rank(i, j), len(cols), entries)


def _pinned_projection(split, i, j):
    cols = split.total.chain_basis(i).get(j, [])
    rows_index = split.quotient.basis_index(i).get(j, {})
    entries = {}
    pi = split.flat_index
    for col, (eps_big, mask_big) in enumerate(cols):
        if (eps_big >> pi) & 1:
            continue
        eps_small = (eps_big >> (pi + 1)) << pi | eps_big & ((1 << pi) - 1)
        perm = split._correspondence(split.quotient, eps_small, 0, split._quot_perm)
        mask_small = 0
        for b, t in enumerate(perm):
            if (mask_big >> b) & 1:
                mask_small |= 1 << t
        row = rows_index[(eps_small, mask_small)]
        entries[(row, col)] = 1
    return SparseIntMat(split.quotient.chain_rank(i, j), len(cols), entries)


def _pinned_lift(split, i, j):
    cols = split.quotient.chain_basis(i).get(j, [])
    rows_index = split.total.basis_index(i).get(j, {})
    entries = {}
    for col, (eps_small, mask_small) in enumerate(cols):
        perm = split._correspondence(split.quotient, eps_small, 0, split._quot_perm)
        eps_big = split._embed(eps_small, 0)
        mask_big = 0
        for b, t in enumerate(perm):
            if (mask_small >> t) & 1:
                mask_big |= 1 << b
        row = rows_index[(eps_big, mask_big)]
        entries[(row, col)] = 1
    return SparseIntMat(split.total.chain_rank(i, j), len(cols), entries)


@pytest.mark.parametrize("text,strands", CONE_WORDS)
def test_face_builder_matches_pinned_cone_maps(text, strands):
    cube = build_cube(parse_word(text, strands=strands))
    maps = 0
    for flat in range(cube.m):
        split = mapping_cone_split(cube, flat)
        js = {j for i in range(cube.m + 1) for j in cube.chain_basis(i)}
        js |= {j + 1 for j in js}
        for i in range(-1, cube.m + 2):
            for j in js:
                assert split.inclusion_matrix(i, j) == _pinned_inclusion(split, i, j)
                assert split.projection_matrix(i, j) == _pinned_projection(split, i, j)
                assert split.lift_matrix(i, j) == _pinned_lift(split, i, j)
                maps += split.lift_matrix(i, j).nnz > 0
    assert maps


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
