"""Machine checks of thickness, stability and exactness claims at desk scale.

Each check builds the homology tables it needs, compares them against the
asserted pattern, and returns a report carrying a verdict plus enough witness
data to make failures diffable.  Checks declare their largest diagram up
front and return a skipped verdict instead of exceeding the crossing budget.

The exactness check is chain-level: the cube of a diagram splits along any
chosen crossing into the cube of its 1-resolution (shifted) and the cube of
its 0-resolution, and the induced maps on rational homology, together with
the zig-zag connecting map, must form an exact triangle at every bidegree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .cube import DEFAULT_MAX_CROSSINGS, CubeComplex, build_cube, mapping_cone_split
from .diagram import (
    POS_CROSS,
    Word,
    label_crossings,
    resolve_crossing,
    torus_word,
)
from .homology import (
    AbGroup,
    BigradedTable,
    homology,
    homology_group_at,
    homology_unnormalized,
    normalize,
)
from .invariants import LaurentPoly2, diagonal_profile, poincare
from .zalgebra import SparseIntMat, image_basis_q, kernel_basis_q, rank_q

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckReport:
    claim: str
    params: dict
    verdict: str
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witness,
        }


def _group_json(group: AbGroup) -> dict:
    return {"rank": group.rank, "torsion": list(group.torsion)}


def _mismatch_witness(left, right, pairs) -> list[dict]:
    out = []
    for (i, j), (i2, j2) in pairs:
        out.append(
            {
                "i": i,
                "j": j,
                "left": _group_json(left.group(i, j)),
                "right": _group_json(right.group(i2, j2)),
            }
        )
    return out


def _compare_tables(
    left: BigradedTable,
    right: BigradedTable,
    i_below: int,
    j_shift: int = 0,
) -> list[dict]:
    """Mismatches between left(i, j) and right(i, j + shift) for i < bound."""
    keys = {key for key in left.groups if key[0] < i_below}
    keys |= {(i, j - j_shift) for (i, j) in right.groups if i < i_below}
    bad = []
    for i, j in sorted(keys):
        if left.group(i, j) != right.group(i, j + j_shift):
            bad.append(((i, j), (i, j + j_shift)))
    return _mismatch_witness(left, right, bad)


def _skip(claim: str, params: dict, crossings: int, limit: int) -> CheckReport:
    return CheckReport(
        claim,
        params,
        SKIPPED,
        {"reason": f"needs {crossings} crossings, limit is {limit}"},
    )


# -- torus diagram plumbing ---------------------------------------------------


def partial_twist_diagram(p: int, q: int, steps: int, last_bit: int) -> Word:
    """Resolve the first crossing of each type p-1, p-2, ... in turn.

    Performs ``steps`` resolutions on the standard (p, q) torus diagram,
    0-resolving at every step except the last, which uses ``last_bit``.  With
    last_bit = 1 this is the plat-bearing diagram of the twist-reduction
    sequence; with 0 it is the next diagram of the sequence itself.
    """
    if not 1 <= steps <= p - 1:
        raise ValueError("steps must lie in [1, p-1]")
    word = torus_word(p, q)
    for k in range(1, steps + 1):
        wanted = (p - k, 1)
        flat = next(
            lab.flat_index
            for lab in label_crossings(word)
            if (lab.type, lab.ordinal) == wanted
        )
        bit = last_bit if k == steps else 0
        word = resolve_crossing(word, flat, bit)
    return word


def e_diagram(p: int, q: int, i: int) -> Word:
    """The 1-resolution plat diagram produced at step i of twist reduction."""
    return partial_twist_diagram(p, q, i, last_bit=1)


def d_diagram(p: int, q: int, i: int) -> Word:
    """The 0-resolution diagram after i steps of twist reduction."""
    return partial_twist_diagram(p, q, i, last_bit=0)


# -- individual checks --------------------------------------------------------


def check_t1(
    p: int,
    q: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """A fourth-degree generator sits five steps above the top of the zeroth.

    For 3 <= p <= q the normalized group at (4, (p-1)(q-1) + 5) must have
    positive free rank; it is the witness that puts non-alternating torus
    links on a third diagonal.
    """
    params = {"p": p, "q": q}
    if not 3 <= p <= q:
        raise ValueError("need 3 <= p <= q")
    m = (p - 1) * q
    if m > max_crossings:
        return _skip("T1", params, m, max_crossings)
    table = homology(torus_word(p, q), max_i=4, jobs=jobs, max_crossings=max_crossings)
    j = (p - 1) * (q - 1) + 5
    rank = table.group(4, j).rank
    verdict = PASS if rank > 0 else FAIL
    return CheckReport("T1", params, verdict, {"i": 4, "j": j, "rank": rank})


def check_f1(
    p: int,
    q: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """Dropping one full twist preserves raw homology below degree p + q - 3."""
    params = {"p": p, "q": q}
    if not 2 <= p < q:
        raise ValueError("need 2 <= p < q")
    bound = p + q - 3
    m = (p - 1) * q
    if m > max_crossings:
        return _skip("f1", params, m, max_crossings)
    big = homology_unnormalized(
        torus_word(p, q), max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
    )
    small = homology_unnormalized(
        torus_word(p, q - 1), max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
    )
    bad = _compare_tables(big, small, bound)
    verdict = PASS if not bad else FAIL
    return CheckReport(
        "f1", params, verdict, {"i_below": bound, "mismatches": bad}
    )


def check_f2(
    p: int,
    q: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """All twist counts from p+1 up share raw homology below degree 2p - 1."""
    params = {"p": p, "q": q}
    if not 2 <= p < q:
        raise ValueError("need 2 <= p < q")
    bound = 2 * p - 1
    m = (p - 1) * q
    if m > max_crossings:
        return _skip("f2", params, m, max_crossings)
    tables = {
        n: homology_unnormalized(
            torus_word(p, n), max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
        )
        for n in range(p + 1, q + 1)
    }
    bad = []
    for n in range(p + 1, q):
        step = _compare_tables(tables[n + 1], tables[n], bound)
        if step:
            bad.append({"pair": [n + 1, n], "mismatches": step})
    verdict = PASS if not bad else FAIL
    return CheckReport("f2", params, verdict, {"i_below": bound, "mismatches": bad})


def check_rem2(
    p: int,
    q: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """The twist-dropping bound sharpens to q - 1 + floor((q-1)/p) (p-2)."""
    params = {"p": p, "q": q}
    if not 2 <= p < q:
        raise ValueError("need 2 <= p < q")
    bound = q - 1 + ((q - 1) // p) * (p - 2)
    m = (p - 1) * q
    if m > max_crossings:
        return _skip("rem2", params, m, max_crossings)
    big = homology_unnormalized(
        torus_word(p, q), max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
    )
    small = homology_unnormalized(
        torus_word(p, q - 1), max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
    )
    bad = _compare_tables(big, small, bound)
    verdict = PASS if not bad else FAIL
    return CheckReport("rem2", params, verdict, {"i_below": bound, "mismatches": bad})


def check_f3(
    p: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """Square diagrams shed one strand: H(D_{p,p}) matches H(D_{p-1,p}){1}.

    Raw groups agree under a single quantum shift below degree 2p - 3.
    """
    params = {"p": p}
    if p < 2:
        raise ValueError("need p >= 2")
    bound = max(2 * p - 3, 1)
    m = (p - 1) * p
    if m > max_crossings:
        return _skip("f3", params, m, max_crossings)
    square = homology_unnormalized(
        torus_word(p, p), max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
    )
    slim = homology_unnormalized(
        torus_word(p - 1, p), max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
    )
    bad = _compare_tables(square, slim, bound, j_shift=1)
    verdict = PASS if not bad else FAIL
    return CheckReport(
        "f3", params, verdict, {"i_below": bound, "j_shift": 1, "mismatches": bad}
    )


def check_low_degree_table(
    p: int,
    q: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """The normalized groups in degrees 0..4 follow one fixed pattern.

    With w = (p-1)(q-1): free Z at (0, w-1), (0, w+1), (2, w+3), (3, w+7),
    (4, w+5), (4, w+7), a lone Z_2 at (3, w+5), and nothing else up to
    degree four (in particular degree one is empty).  Square three-strand
    diagrams are excluded by hypothesis.
    """
    params = {"p": p, "q": q}
    if not 3 <= p <= q:
        raise ValueError("need 3 <= p <= q")
    if p == 3 and q == 3:
        return CheckReport(
            "low-degree-table", params, SKIPPED, {"reason": "excluded case p = q = 3"}
        )
    m = (p - 1) * q
    if m > max_crossings:
        return _skip("low-degree-table", params, m, max_crossings)
    table = homology(torus_word(p, q), max_i=4, jobs=jobs, max_crossings=max_crossings)
    w = (p - 1) * (q - 1)
    expected = {
        (0, w - 1): AbGroup(1),
        (0, w + 1): AbGroup(1),
        (2, w + 3): AbGroup(1),
        (3, w + 7): AbGroup(1),
        (3, w + 5): AbGroup(0, (2,)),
        (4, w + 5): AbGroup(1),
        (4, w + 7): AbGroup(1),
    }
    actual = {key: g for key, g in table.groups.items() if key[0] <= 4}
    bad = []
    for key in sorted(set(expected) | set(actual)):
        got = actual.get(key, AbGroup())
        want = expected.get(key, AbGroup())
        if got != want:
            bad.append(
                {
                    "i": key[0],
                    "j": key[1],
                    "expected": _group_json(want),
                    "actual": _group_json(got),
                }
            )
    verdict = PASS if not bad else FAIL
    return CheckReport("low-degree-table", params, verdict, {"w": w, "mismatches": bad})


def check_e_vanishing(
    p: int,
    q: int,
    i: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """The plat diagrams of twist reduction have no low raw homology.

    The i-th 1-resolution diagram of the (p, q) twist-reduction sequence must
    have trivial raw homology below p + q - 3 (below 2p - 3 when p = q).
    """
    params = {"p": p, "q": q, "i": i}
    if not (3 <= p <= q and 1 <= i <= p - 1):
        raise ValueError("need 3 <= p <= q and 1 <= i <= p - 1")
    bound = 2 * p - 3 if p == q else p + q - 3
    m = (p - 1) * q - i
    if m > max_crossings:
        return _skip("E-vanishing", params, m, max_crossings)
    word = e_diagram(p, q, i)
    table = homology_unnormalized(
        word, max_i=bound - 1, jobs=jobs, max_crossings=max_crossings
    )
    offenders = [
        {"i": k, "j": j, "group": _group_json(g)}
        for (k, j), g in table.items()
        if k < bound
    ]
    verdict = PASS if not offenders else FAIL
    return CheckReport(
        "E-vanishing", params, verdict, {"i_below": bound, "nonzero": offenders}
    )


# -- rational homology with induced maps (for the exactness check) -----------


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows if any(row)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while mat and col < width:
        pivot = next((k for k, row in enumerate(mat) if row[col]), None)
        if pivot is None:
            col += 1
            continue
        mat[0], mat[pivot] = mat[pivot], mat[0]
        head = mat[0]
        inv = 1 / head[col]
        for row in mat[1:]:
            if row[col]:
                f = row[col] * inv
                for c in range(col, width):
                    row[c] -= f * head[c]
        mat = [row for row in mat[1:] if any(row)]
        rank += 1
        col += 1
    return rank


class _Echelon:
    """Incremental echelon of Fraction vectors that remembers coordinates.

    Each inserted vector is reduced against the stored ones; insertion order
    pivots make a later forward pass express arbitrary vectors of the span in
    terms of the original insertion sequence.
    """

    def __init__(self, size: int):
        self.size = size
        self.entries: list[tuple[int, list[Fraction], list[Fraction]]] = []
        self.count = 0

    def insert(self, vec: Sequence[Fraction]) -> bool:
        """Add a vector; returns False if it was already in the span."""
        residual = list(vec)
        coeffs = [Fraction(0)] * self.count + [Fraction(1)]
        for pivot, base, base_coeffs in self.entries:
            f = residual[pivot]
            if f:
                for r in range(pivot, self.size):
                    if base[r]:
                        residual[r] -= f * base[r]
                for k, v in enumerate(base_coeffs):
                    if v:
                        coeffs[k] -= f * v
        pivot = next((r for r in range(self.size) if residual[r]), None)
        self.count += 1
        if pivot is None:
            self.count -= 1
            return False
        inv = 1 / residual[pivot]
        residual = [v * inv for v in residual]
        coeffs = [v * inv for v in coeffs]
        coeffs += [Fraction(0)] * (self.count - len(coeffs))
        self.entries.append((pivot, residual, coeffs))
        return True

    def coordinates(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Express a vector of the span in the inserted vectors' coordinates."""
        residual = list(vec)
        out = [Fraction(0)] * self.count
        for pivot, base, base_coeffs in self.entries:
            f = residual[pivot]
            if f:
                for r in range(pivot, self.size):
                    if base[r]:
                        residual[r] -= f * base[r]
                for k, v in enumerate(base_coeffs):
                    if v:
                        out[k] += f * v
        if any(residual):
            raise AssertionError("vector is outside the spanned subspace")
        return out


class _RationalHomology:
    """Rational homology of one cube, one bigraded slice at a time.

    Slice dimensions come from cheap integer ranks; representative cycles and
    the projection solver are only materialized for slices that are actually
    nonzero, which is a tiny fraction of the bigraded plane.
    """

    def __init__(self, cube: CubeComplex):
        self.cube = cube
        self._ranks: dict[tuple[int, int], int] = {}
        self._slices: dict[tuple[int, int], dict] = {}

    def dim(self, i: int, j: int) -> int:
        """dim C^{i,j}, read from the whole degree's basis."""
        return len(self.cube.chain_basis(i).get(j, ()))

    def block(self, i: int, j: int) -> SparseIntMat:
        """d^{i,j}, read from the one sweep that assembles all of degree i."""
        self.cube.differential_blocks(i)
        return self.cube.differential_matrix(i, j)

    def _rank(self, i: int, j: int) -> int:
        key = (i, j)
        if key not in self._ranks:
            if self.dim(i, j) == 0 or self.dim(i + 1, j) == 0:
                self._ranks[key] = 0
            else:
                self._ranks[key] = rank_q(self.block(i, j))
        return self._ranks[key]

    def dim_h(self, i: int, j: int) -> int:
        dim = self.dim(i, j)
        if dim == 0:
            return 0
        return dim - self._rank(i, j) - self._rank(i - 1, j)

    def slice(self, i: int, j: int) -> dict:
        key = (i, j)
        if key in self._slices:
            return self._slices[key]
        dim = self.dim(i, j)
        out_mat = self.block(i, j)
        in_mat = self.block(i - 1, j)

        kernel = kernel_basis_q(out_mat) if dim else []
        boundaries = image_basis_q(in_mat) if dim and in_mat.cols else []

        echelon = _Echelon(dim)
        for vec in boundaries:
            if not echelon.insert(vec):
                raise AssertionError("image basis vectors must be independent")
        reps: list[list[Fraction]] = []
        for vec in kernel:
            if echelon.insert(vec):
                reps.append(vec)
        if len(reps) != self.dim_h(i, j):
            raise AssertionError("representative count disagrees with rank count")
        data = {
            "dim_h": len(reps),
            "reps": reps,
            "n_boundaries": len(boundaries),
            "echelon": echelon,
        }
        self._slices[key] = data
        return data

    def project(self, i: int, j: int, chain: list[Fraction]) -> list[Fraction]:
        """Homology coordinates of a cycle, modulo boundaries."""
        if not any(chain):
            return [Fraction(0)] * self.dim_h(i, j)
        data = self.slice(i, j)
        coeffs = data["echelon"].coordinates(chain)
        return coeffs[data["n_boundaries"]:]


def _apply(mat: SparseIntMat, vec: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * mat.rows
    for (r, c), v in mat.entries.items():
        if vec[c]:
            out[r] += v * vec[c]
    return out


def check_les(
    word: Word,
    flat_index: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> CheckReport:
    """Exactness of the resolution triangle at one positive crossing.

    Splitting the cube at the crossing gives maps (over the rationals)

        H^{i-1,j-1}(D_1) -> H^{i,j}(D) -> H^{i,j}(D_0) -> H^{i,j-1}(D_1)

    where the last map lifts a cycle of the quotient, applies the boundary and
    reads off the subcomplex part.  The composite of consecutive maps must
    vanish and the ranks must add up at every station.
    """
    params = {"word": str(word), "strands": word.strands, "crossing": flat_index}
    labels = label_crossings(word)
    if not 0 <= flat_index < len(labels):
        raise IndexError("crossing index out of range")
    letter = word.letters[labels[flat_index].letter_index]
    if letter.kind != POS_CROSS:
        raise ValueError("exactness is checked at positive crossings")
    if word.crossing_count > max_crossings:
        return _skip("les", params, word.crossing_count, max_crossings)

    total_cube = build_cube(word, max_crossings=max_crossings)
    split = mapping_cone_split(total_cube, flat_index)
    h_total = _RationalHomology(total_cube)
    h_sub = _RationalHomology(split.sub)
    h_quot = _RationalHomology(split.quotient)

    js = set()
    for i in range(total_cube.m + 1):
        js.update(total_cube.chain_basis(i).keys())
    degrees = [
        (i, j)
        for i in range(-1, total_cube.m + 2)
        for j in sorted(js | {j + 1 for j in js})
    ]

    # induced maps, indexed by the (i, j) of the total diagram; maps between
    # trivial homology slices are zero and never materialized
    inc: dict[tuple[int, int], list[list[Fraction]]] = {}
    proj: dict[tuple[int, int], list[list[Fraction]]] = {}
    connect: dict[tuple[int, int], list[list[Fraction]]] = {}

    def matrix_of(action, src_reps, project_to, rows):
        cols = [project_to(action(rep)) for rep in src_reps]
        return [[cols[c][r] for c in range(len(cols))] for r in range(rows)]

    failures = []
    for i, j in degrees:
        dim_sub = h_sub.dim_h(i - 1, j - 1)
        dim_tot = h_total.dim_h(i, j)
        dim_quot = h_quot.dim_h(i, j)
        dim_sub_next = h_sub.dim_h(i, j - 1)

        if dim_sub and dim_tot:
            inc_mat = split.inclusion_matrix(i, j)
            inc[(i, j)] = matrix_of(
                lambda v: _apply(inc_mat, v),
                h_sub.slice(i - 1, j - 1)["reps"],
                lambda chain: h_total.project(i, j, chain),
                dim_tot,
            )
        if dim_tot and dim_quot:
            proj_mat = split.projection_matrix(i, j)
            proj[(i, j)] = matrix_of(
                lambda v: _apply(proj_mat, v),
                h_total.slice(i, j)["reps"],
                lambda chain: h_quot.project(i, j, chain),
                dim_quot,
            )
        if dim_quot and dim_sub_next:
            lift = split.lift_matrix(i, j)
            d_total = h_total.block(i, j)
            inc_next = split.inclusion_matrix(i + 1, j)

            def connecting(rep):
                lifted = _apply(lift, rep)
                boundary = _apply(d_total, lifted)
                # the boundary of a lifted quotient cycle lives in the
                # subcomplex; peel the inclusion (disjoint +-1 unit columns)
                out = [Fraction(0)] * h_sub.dim(i, j - 1)
                seen = set()
                for (r, c), v in inc_next.entries.items():
                    out[c] = boundary[r] * v
                    seen.add(r)
                for r, v in enumerate(boundary):
                    if v and r not in seen:
                        raise AssertionError("boundary of a lift escaped the subcomplex")
                return out

            connect[(i, j)] = matrix_of(
                connecting,
                h_quot.slice(i, j)["reps"],
                lambda chain: h_sub.project(i, j - 1, chain),
                dim_sub_next,
            )

    def rank_of(key, table):
        mat = table.get(key)
        return _fraction_rank(mat) if mat and mat[0] else 0

    def compose_zero(outer_key, outer_table, inner_key, inner_table, label, i, j):
        outer = outer_table.get(outer_key)
        inner = inner_table.get(inner_key)
        if not outer or not inner or not inner[0]:
            return
        for col in range(len(inner[0])):
            vec = [row[col] for row in inner]
            image = [
                sum(outer[r][k] * vec[k] for k in range(len(vec)))
                for r in range(len(outer))
            ]
            if any(image):
                failures.append({"i": i, "j": j, "station": label, "defect": "composite"})
                return

    for i, j in degrees:
        # station H^{i,j}(D): image of inclusion = kernel of projection
        dim_mid = h_total.dim_h(i, j)
        if dim_mid:
            r_in = rank_of((i, j), inc)
            r_out = rank_of((i, j), proj)
            if r_in + r_out != dim_mid:
                failures.append(
                    {"i": i, "j": j, "station": "total", "defect": "rank",
                     "in": r_in, "out": r_out, "dim": dim_mid}
                )
            compose_zero((i, j), proj, (i, j), inc, "total", i, j)

        # station H^{i,j}(D_0): image of projection = kernel of connecting
        dim_mid = h_quot.dim_h(i, j)
        if dim_mid:
            r_in = rank_of((i, j), proj)
            r_out = rank_of((i, j), connect)
            if r_in + r_out != dim_mid:
                failures.append(
                    {"i": i, "j": j, "station": "zero-resolution", "defect": "rank",
                     "in": r_in, "out": r_out, "dim": dim_mid}
                )
            compose_zero((i, j), connect, (i, j), proj, "zero-resolution", i, j)

        # station H^{i,j-1}(D_1): image of connecting = kernel of next inclusion
        dim_mid = h_sub.dim_h(i, j - 1)
        if dim_mid:
            r_in = rank_of((i, j), connect)
            r_out = rank_of((i + 1, j), inc)
            if r_in + r_out != dim_mid:
                failures.append(
                    {"i": i, "j": j, "station": "one-resolution", "defect": "rank",
                     "in": r_in, "out": r_out, "dim": dim_mid}
                )
            compose_zero((i + 1, j), inc, (i, j), connect, "one-resolution", i, j)

    verdict = PASS if not failures else FAIL
    return CheckReport("les", params, verdict, {"failures": failures})


def check_conjecture1(
    p: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> CheckReport:
    """The corner group H^{2p-2, p} of the (p, p+1) diagram is nonzero.

    Each of its two groups is computed from its own quantum degree alone
    (see ``homology_group_at``), never from a whole differential, which
    keeps the check feasible right up to the crossing budget.  On success the corner generator and a generator of the zeroth group sit
    2p - 2 diagonals apart, which already forces width at least p.
    """
    params = {"p": p}
    if p < 3:
        raise ValueError("need p >= 3")
    m = (p - 1) * (p + 1)
    if m > max_crossings:
        return _skip("conj1", params, m, max_crossings)
    word = torus_word(p, p + 1)
    corner = homology_group_at(word, 2 * p - 2, p, max_crossings=max_crossings)
    if corner.rank <= 0:
        return CheckReport(
            "conj1", params, FAIL, {"i": 2 * p - 2, "j": p, "rank": corner.rank}
        )
    w = (p - 1) * p
    top_raw_j = w + 1 - word.n_plus
    zeroth = homology_group_at(word, 0, top_raw_j, max_crossings=max_crossings)
    delta_top = w + 1
    delta_low = p + (p - 1) * (p + 1) - 2 * (2 * p - 2)
    width = (delta_top - delta_low) // 2 + 1 if zeroth.rank else 1
    verdict = PASS if width >= p else FAIL
    return CheckReport(
        "conj1",
        params,
        verdict,
        {
            "i": 2 * p - 2,
            "j": p,
            "rank": corner.rank,
            "delta_pair": [delta_low, delta_top],
            "width_at_least": width,
        },
    )


def check_width_lower_bound(
    p: int,
    q: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """Nonzero H^{2p-2, p} forces width >= p.

    The witness generators sit on diagonals (p-1)(q-1) + 1 and
    (p-1)(q-1) + 3 - 2p, which differ by 2p - 2.  When the hypothesis group
    vanishes the implication is vacuous and reported as such.
    """
    params = {"p": p, "q": q}
    if not 2 <= p <= q:
        raise ValueError("need 2 <= p <= q")
    m = (p - 1) * q
    if m > max_crossings:
        return _skip("width", params, m, max_crossings)
    raw = homology_unnormalized(
        torus_word(p, q), max_i=2 * p - 2, jobs=jobs, max_crossings=max_crossings
    )
    rank = raw.group(2 * p - 2, p).rank
    if rank <= 0:
        return CheckReport(
            "width",
            params,
            PASS,
            {"hypothesis_rank": 0, "note": "hypothesis empty; implication vacuous"},
        )
    table = normalize(raw)
    w = (p - 1) * (q - 1)
    delta_top = w + 1
    delta_low = w + 3 - 2 * p
    profile = diagonal_profile(table)
    have = profile.diagonals
    ok = (
        delta_top in have
        and delta_low in have
        and delta_top - delta_low == 2 * p - 2
        and profile.width >= p
    )
    verdict = PASS if ok else FAIL
    return CheckReport(
        "width",
        params,
        verdict,
        {
            "hypothesis_rank": rank,
            "delta_pair": [delta_low, delta_top],
            "width_at_least": profile.width,
        },
    )


# -- stable polynomials -------------------------------------------------------


@dataclass(frozen=True)
class StablePoly:
    """The stabilized part of the twist-normalized Poincaré polynomials.

    ``per_n`` holds q^{-(m-1)n} P(T_{m,n}) for every computed twist count n;
    the coefficients of t^d for d < stable_t_bound agree across all of them
    and form ``truncation``.
    """

    m: int
    n_checked: tuple[int, ...]
    n_skipped: tuple[int, ...]
    per_n: dict[int, LaurentPoly2]
    stable_t_bound: int
    truncation: LaurentPoly2
    mismatches: tuple[dict, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def stable_poly(
    m: int,
    n_max: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> StablePoly:
    """Compare twist-normalized Poincaré polynomials across twist counts.

    For n in m+1 .. n_max computes P_{m,n} = q^{-(m-1)n} P(T_{m,n}) up to the
    homological degree it can defend, then verifies that each pair (n, n')
    agrees on every t-degree below m + min(n, n') - 3.  Twist counts over the
    crossing budget are skipped rather than attempted.
    """
    if m < 2 or n_max <= m:
        raise ValueError("need m >= 2 and n_max > m")
    checked = []
    skipped = []
    per_n: dict[int, LaurentPoly2] = {}
    for n in range(m + 1, n_max + 1):
        crossings = (m - 1) * n
        if crossings > max_crossings:
            skipped.append(n)
            continue
        table = homology(
            torus_word(m, n), max_i=m + n - 3, jobs=jobs, max_crossings=max_crossings
        )
        per_n[n] = poincare(table).q_shifted(-(m - 1) * n)
        checked.append(n)

    mismatches = []
    for a in checked:
        for b in checked:
            if a >= b:
                continue
            bound = m + min(a, b) - 3
            pa = per_n[a].t_truncated(bound)
            pb = per_n[b].t_truncated(bound)
            if pa != pb:
                diff = pa - pb
                mismatches.append(
                    {"pair": [a, b], "t_below": bound, "difference": str(diff)}
                )

    if checked:
        stable_bound = m + min(checked) - 3
        truncation = per_n[max(checked)].t_truncated(stable_bound)
    else:
        stable_bound = 0
        truncation = LaurentPoly2()
    return StablePoly(
        m=m,
        n_checked=tuple(checked),
        n_skipped=tuple(skipped),
        per_n=per_n,
        stable_t_bound=stable_bound,
        truncation=truncation,
        mismatches=tuple(mismatches),
    )


def stable_poly_report(
    m: int,
    n_max: int,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    jobs: int = 1,
) -> CheckReport:
    """Wrap ``stable_poly`` into a pass/fail/skip report."""
    params = {"m": m, "n_max": n_max}
    result = stable_poly(m, n_max, max_crossings=max_crossings, jobs=jobs)
    witness = {
        "n_checked": list(result.n_checked),
        "n_skipped": list(result.n_skipped),
        "stable_t_below": result.stable_t_bound,
        "truncation": str(result.truncation),
        "mismatches": list(result.mismatches),
    }
    if len(result.n_checked) < 2:
        return CheckReport("stable-poly", params, SKIPPED, witness)
    verdict = PASS if result.consistent else FAIL
    return CheckReport("stable-poly", params, verdict, witness)
