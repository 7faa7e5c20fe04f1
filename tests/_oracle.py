"""Independent brute-force Khovanov homology for small closed words.

This module is the test oracle: it never imports the package under test and
deliberately makes different mechanical choices, so that agreement with the
engine is meaningful evidence rather than a tautology.

Differences from the engine, on purpose:

* crossings are indexed in word order (top to bottom), not grouped by strand;
* circles are found by walking an explicit adjacency structure, not by the
  engine's union-find over arcs;
* matrices are dense lists of lists, reduced by textbook algorithms.

A word is a list of letters; a letter is either a nonzero int (k > 0 for a
positive crossing at strand k, k < 0 for a negative one) or a pair ("o", k)
for a cap-cup smoothing at strand k.  The closure joins top endpoint k to
bottom endpoint k on every strand.
"""

from fractions import Fraction


def _letter_strands(letter):
    if isinstance(letter, tuple):
        return letter[1]
    return abs(letter)


def infer_strands(letters):
    return max((_letter_strands(x) for x in letters), default=0) + 1


def crossing_positions(letters):
    """Word positions of the crossing letters, in word order."""
    return [t for t, x in enumerate(letters) if not isinstance(x, tuple)]


def signs(letters):
    plus = sum(1 for x in letters if not isinstance(x, tuple) and x > 0)
    minus = sum(1 for x in letters if not isinstance(x, tuple) and x < 0)
    return plus, minus


def state_slots(letters, state):
    """Resolve every crossing per `state` (bits in word order).

    Returns one ("i" | "s", strand) slot per letter: "s" is a cap-cup at the
    given strand, "i" is two parallel strands (nothing happens).
    A positive crossing smooths to "i" on bit 0 and "s" on bit 1; a negative
    crossing uses the mirror rule.
    """
    slots = []
    pos = 0
    for x in letters:
        if isinstance(x, tuple):
            slots.append(("s", x[1]))
        else:
            bit = state[pos]
            pos += 1
            if x > 0:
                slots.append(("s" if bit else "i", x))
            else:
                slots.append(("i" if bit else "s", -x))
    return slots


def circle_sets(strands, slots):
    """Circles of the closed crossingless pattern, as frozensets of points.

    Points are (row, strand) with rows counted modulo the word length (the
    closure).  Every point lies on exactly two arcs, one from the letter above
    and one from the letter below; circles are the cycles of that 2-regular
    graph, found by walking neighbours.
    """
    rows = max(len(slots), 1)
    links = {(r, c): [] for r in range(rows) for c in range(1, strands + 1)}
    for t, (kind, k) in enumerate(slots):
        top, bot = t, (t + 1) % rows
        if kind == "i":
            for c in range(1, strands + 1):
                links[(top, c)].append((bot, c))
                links[(bot, c)].append((top, c))
        else:
            links[(top, k)].append((top, k + 1))
            links[(top, k + 1)].append((top, k))
            links[(bot, k)].append((bot, k + 1))
            links[(bot, k + 1)].append((bot, k))
            for c in range(1, strands + 1):
                if c != k and c != k + 1:
                    links[(top, c)].append((bot, c))
                    links[(bot, c)].append((top, c))

    seen = set()
    circles = []
    for start in sorted(links):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for nxt in links[p]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seen |= component
        circles.append(frozenset(component))
    return circles


def grid_resolution(strands, slots):
    """Reference tracing of one resolution, point by point.

    Union-find over every (row, strand) grid point, encoded row * strands +
    strand - 1, with rows counted modulo the slot count.  Returns the
    engine's ``ResolvedState`` fields (count, keys, membership, rows): keys
    are each circle's smallest point as (row, strand), circles are numbered
    in key order and ``membership`` gives every point's circle.
    """
    rows = max(len(slots), 1)
    n = rows * strands
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for t, (kind, k) in enumerate(slots):
        top = t * strands
        bot = ((t + 1) % rows) * strands
        if kind == "s":
            union(top + k - 1, top + k)
            union(bot + k - 1, bot + k)
            for c in range(strands):
                if c != k - 1 and c != k:
                    union(top + c, bot + c)
        else:
            for c in range(strands):
                union(top + c, bot + c)

    roots = {}
    for p in range(n):
        roots.setdefault(find(p), p)  # first point in scan order = smallest
    order = sorted(roots, key=roots.get)
    index_of_root = {root: k for k, root in enumerate(order)}
    membership = tuple(index_of_root[find(p)] for p in range(n))
    keys = tuple((roots[root] // strands, roots[root] % strands + 1) for root in order)
    return len(order), keys, membership, rows


def traced_edge(strands, rows, letter_index, position, src_keys, src_of, tgt_of):
    """Circle surgery of one cube edge, read off the four corners of its crossing.

    The crossing sits in letter ``letter_index`` at strand ``position`` of a
    word with ``rows`` rows; ``src_keys`` are the source circles' keys and
    ``src_of`` / ``tgt_of`` the source and target membership tuples (grid
    point row * strands + strand - 1 to circle index).  Returns (kind,
    src_affected, tgt_affected, carry): the circles through the four corner
    points, ascending, and per source circle the target circle through its
    key point, None for a touched circle.
    """
    top = letter_index * strands + position - 1
    bot = (letter_index + 1) % rows * strands + position - 1
    points = (top, top + 1, bot, bot + 1)
    src_touched = sorted({src_of[p] for p in points})
    tgt_touched = sorted({tgt_of[p] for p in points})
    if len(src_touched) == 2 and len(tgt_touched) == 1:
        kind = "merge"
    elif len(src_touched) == 1 and len(tgt_touched) == 2:
        kind = "split"
    else:
        raise AssertionError("edge surgery did not change the circle count by one")
    # an untouched circle keeps its point set, so its key point lies on the
    # same circle of the target
    carry = tuple(
        None if c in src_touched else tgt_of[row * strands + strand - 1]
        for c, (row, strand) in enumerate(src_keys)
    )
    return kind, tuple(src_touched), tuple(tgt_touched), carry


def circle_count(letters, state, strands=None):
    s = strands if strands is not None else infer_strands(letters)
    return len(circle_sets(s, state_slots(letters, state)))


def _states(m):
    for mask in range(2 ** m):
        yield tuple((mask >> t) & 1 for t in range(m))


def _basis(letters, strands):
    """All (state, labelling) pairs grouped by (homological, quantum) degree.

    A labelling assigns "1" or "X" to each circle of the state, listed in the
    order of `circle_sets`.  The quantum degree is (#1 - #X) + weight.
    """
    m = len(crossing_positions(letters))
    graded = {}
    state_circles = {}
    for state in _states(m):
        cs = circle_sets(strands, state_slots(letters, state))
        state_circles[state] = cs
        i = sum(state)
        for mask in range(2 ** len(cs)):
            labels = tuple("X" if (mask >> k) & 1 else "1" for k in range(len(cs)))
            j = len(cs) - 2 * sum(1 for a in labels if a == "X") + i
            graded.setdefault((i, j), []).append((state, labels))
    return graded, state_circles


def _edge_images(src_circles, tgt_circles, labels):
    """Apply the merge/split rule across one cube edge.

    Unchanged circles are matched by point-set equality; the affected ones are
    combined by m (merge) or split by Delta.
    """
    tgt_index = {c: k for k, c in enumerate(tgt_circles)}
    carried = {}
    src_affected = []
    for k, c in enumerate(src_circles):
        if c in tgt_index:
            carried[k] = tgt_index[c]
        else:
            src_affected.append(k)
    tgt_affected = [k for k, c in enumerate(tgt_circles) if c not in set(src_circles)]

    out = []
    base = [None] * len(tgt_circles)
    for k, t in carried.items():
        base[t] = labels[k]
    if len(src_affected) == 2:
        a, b = src_affected
        (t,) = tgt_affected
        if labels[a] == "X" and labels[b] == "X":
            return []
        merged = "X" if "X" in (labels[a], labels[b]) else "1"
        image = list(base)
        image[t] = merged
        out.append(tuple(image))
    else:
        (a,) = src_affected
        t1, t2 = tgt_affected
        if labels[a] == "X":
            image = list(base)
            image[t1] = image[t2] = "X"
            out.append(tuple(image))
        else:
            for one, ex in ((t1, t2), (t2, t1)):
                image = list(base)
                image[one] = "1"
                image[ex] = "X"
                out.append(tuple(image))
    return out


def _differentials(letters, strands):
    """Dense matrix of d at every (i, j), rows = (i+1, j) basis."""
    graded, state_circles = _basis(letters, strands)
    index = {
        key: {elem: n for n, elem in enumerate(elems)} for key, elems in graded.items()
    }
    mats = {}
    for (i, j), elems in graded.items():
        tgt = graded.get((i + 1, j), [])
        mat = [[0] * len(elems) for _ in range(len(tgt))]
        if tgt:
            tgt_idx = index[(i + 1, j)]
            for col, (state, labels) in enumerate(elems):
                for b in range(len(state)):
                    if state[b]:
                        continue
                    sign = -1 if sum(state[:b]) % 2 else 1
                    new_state = state[:b] + (1,) + state[b + 1:]
                    for image in _edge_images(
                        state_circles[state], state_circles[new_state], labels
                    ):
                        mat[tgt_idx[(new_state, image)]][col] += sign
        mats[(i, j)] = mat
    return graded, mats


def rank_rational(mat):
    """Row-echelon rank over the rationals, exact."""
    rows = [[Fraction(v) for v in row] for row in mat if any(row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        pivot = next((r for r in range(len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        head = rows[0]
        for r in range(1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / head[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], head)]
        rows = rows[1:]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


def smith_factors(mat):
    """Invariant factors of an integer matrix, textbook dense reduction."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    factors = []
    top = 0
    while top < min(n, m):
        if all(a[r][c] == 0 for r in range(top, n) for c in range(top, m)):
            break
        # smallest nonzero entry to the corner
        br, bc = min(
            ((r, c) for r in range(top, n) for c in range(top, m) if a[r][c] != 0),
            key=lambda rc: (abs(a[rc[0]][rc[1]]), rc),
        )
        a[top], a[br] = a[br], a[top]
        for row in a:
            row[top], row[bc] = row[bc], row[top]
        if a[top][top] < 0:
            a[top] = [-v for v in a[top]]
        dirty = False
        for r in range(top + 1, n):
            q = a[r][top] // a[top][top]
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[top])]
            if a[r][top]:
                dirty = True
        for c in range(top + 1, m):
            q = a[top][c] // a[top][top]
            if q:
                for row in a:
                    row[c] -= q * row[top]
            if a[top][c]:
                dirty = True
        if dirty:
            continue
        d = a[top][top]
        bad = next(
            (
                (r, c)
                for r in range(top + 1, n)
                for c in range(top + 1, m)
                if a[r][c] % d != 0
            ),
            None,
        )
        if bad is not None:
            a[top] = [x + y for x, y in zip(a[top], a[bad[0]])]
            continue
        factors.append(d)
        top += 1
    return factors


def khovanov_groups(letters, strands=None):
    """Unnormalized integral homology: {(i, j): (rank, torsion tuple)}."""
    s = strands if strands is not None else infer_strands(letters)
    graded, mats = _differentials(letters, s)
    ranks = {key: rank_rational(mat) for key, mat in mats.items()}
    groups = {}
    for (i, j), elems in graded.items():
        r_out = ranks.get((i, j), 0)
        r_in = ranks.get((i - 1, j), 0)
        free = len(elems) - r_out - r_in
        torsion = tuple(
            d for d in smith_factors(mats.get((i - 1, j), [])) if d > 1
        )
        if free or torsion:
            groups[(i, j)] = (free, torsion)
    return groups


def normalize_groups(groups, n_plus, n_minus):
    return {
        (i - n_minus, j + n_plus - 2 * n_minus): g for (i, j), g in groups.items()
    }


def khovanov_normalized(letters, strands=None):
    n_plus, n_minus = signs(letters)
    return normalize_groups(khovanov_groups(letters, strands), n_plus, n_minus)


def bracket_poly(letters, strands=None):
    """Kauffman bracket as {q-exponent: coefficient}, by direct state sum."""
    s = strands if strands is not None else infer_strands(letters)
    m = len(crossing_positions(letters))
    total = {}
    for state in _states(m):
        c = circle_count(letters, state, s)
        w = sum(state)
        term = {0: (-1) ** w}
        for _ in range(c):
            nxt = {}
            for e, v in term.items():
                nxt[e + 1] = nxt.get(e + 1, 0) + v
                nxt[e - 1] = nxt.get(e - 1, 0) + v
            term = nxt
        for e, v in term.items():
            total[e + w] = total.get(e + w, 0) + v
    return {e: v for e, v in total.items() if v}


def jones_poly(letters, strands=None):
    n_plus, n_minus = signs(letters)
    sign = (-1) ** n_minus
    shift = n_plus - 2 * n_minus
    return {
        e + shift: sign * v for e, v in bracket_poly(letters, strands).items() if v
    }
