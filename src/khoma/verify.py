"""Machine checks of thickness, stability and exactness claims at desk scale.

Each claim is one row of ``CLAIMS``, run by ``check``: the row refuses
parameters outside its hypothesis, counts its largest diagram so that an
over-budget claim is reported skipped before any word is built, and its body
builds the homology tables it needs and returns a verdict plus enough
witness data to make failures diffable.

The exactness check is chain-level: the cube of a diagram splits along any
chosen crossing into the cube of its 1-resolution (shifted) and the cube of
its 0-resolution, and the induced maps on homology with coefficients in a
prime field, together with the zig-zag connecting map, must form an exact
triangle at every bidegree.  It is checked over F_2 and over F_{2^31-1}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from .cube import (
    DEFAULT_MAX_CROSSINGS,
    ConeSplit,
    CubeComplex,
    build_cube,
    mapping_cone_split,
)
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
from .zalgebra import EchelonModP, SparseIntMat, columns_mod_p

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
        return asdict(self)


def _group_json(group: AbGroup) -> dict:
    return {"rank": group.rank, "torsion": list(group.torsion)}


def _differences(
    left: BigradedTable, right: BigradedTable, i_below: int, j_shift: int
) -> list[dict]:
    """Where left(i, j) and right(i, j + j_shift) differ, for i < i_below."""
    keys = {key for key in left.groups if key[0] < i_below}
    keys |= {(i, j - j_shift) for (i, j) in right.groups if i < i_below}
    return [
        {
            "i": i,
            "j": j,
            "left": _group_json(left.group(i, j)),
            "right": _group_json(right.group(i, j + j_shift)),
        }
        for i, j in sorted(keys)
        if left.group(i, j) != right.group(i, j + j_shift)
    ]


def _skip(crossings: int, limit: int) -> tuple[str, dict]:
    return SKIPPED, {"reason": f"needs {crossings} crossings, limit is {limit}"}


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


# -- claim hypotheses and bodies (see ``Claim``) ------------------------------


def _need(holds: bool, message: str) -> None:
    if not holds:
        raise ValueError(message)


def _stability(
    diagrams: Callable[..., dict[int, Word]],
    bound: Callable[..., int],
    j_shift: int = 0,
    by_pair: bool = False,
) -> Callable[..., tuple[str, dict]]:
    """Body of a claim that raw groups of neighbouring diagrams agree below a bound.

    H^{i,j} of each diagram is compared with H^{i,j+j_shift} of the one
    before it; a lone diagram is compared with zero.  A chain of twist
    counts (``by_pair``) reports each pair's mismatches under its labels.
    ``diagrams`` and ``bound`` take the claim's parameters.
    """

    def body(*values, **engine):
        i_below = bound(*values)
        tables = [
            (label, homology_unnormalized(word, max_i=i_below - 1, **engine))
            for label, word in diagrams(*values).items()
        ]
        witness: dict = {"i_below": i_below}
        if j_shift:
            witness["j_shift"] = j_shift
        if len(tables) == 1 and not by_pair:
            bad = witness["nonzero"] = [
                {"i": i, "j": j, "group": _group_json(g)}
                for (i, j), g in tables[0][1].items()
                if i < i_below
            ]
        else:
            steps = [
                ([b, a], _differences(later, earlier, i_below, j_shift))
                for (a, earlier), (b, later) in zip(tables, tables[1:])
            ]
            if by_pair:
                bad = [{"pair": pair, "mismatches": step} for pair, step in steps if step]
            else:
                bad = [entry for _, step in steps for entry in step]
            witness["mismatches"] = bad
        return (FAIL if bad else PASS), witness

    return body


def _last_twist(p: int, q: int) -> dict[int, Word]:
    return {n: torus_word(p, n) for n in (q - 1, q)}


def _t1(p: int, q: int, **engine) -> tuple[str, dict]:
    table = homology(torus_word(p, q), max_i=4, **engine)
    j = (p - 1) * (q - 1) + 5
    rank = table.group(4, j).rank
    return (PASS if rank > 0 else FAIL), {"i": 4, "j": j, "rank": rank}


def _low_degree_table(p: int, q: int, **engine) -> tuple[str, dict]:
    if p == 3 and q == 3:
        return SKIPPED, {"reason": "excluded case p = q = 3"}
    table = homology(torus_word(p, q), max_i=4, **engine)
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
    keys = set(expected) | {key for key in table.groups if key[0] <= 4}
    bad = [
        {
            "i": i,
            "j": j,
            "expected": _group_json(expected.get((i, j), AbGroup())),
            "actual": _group_json(table.group(i, j)),
        }
        for i, j in sorted(keys)
        if table.group(i, j) != expected.get((i, j), AbGroup())
    ]
    return (PASS if not bad else FAIL), {"w": w, "mismatches": bad}


# -- homology over F_p with induced maps (for the exactness check) ------------

# F_2 sees the Z/2 torsion that fills these tables; a large prime sees every
# sign of the maps, as the rationals would.
LES_PRIMES = (2, 2**31 - 1)


class _ChainMapDefect(Exception):
    """A map that should be a chain map took a cycle where no cycle can go."""


class _HomologyModP:
    """Homology over F_p of one cube, one bigraded slice at a time.

    Each block is reduced once, column by column, which gives its rank and
    its kernel; representative cycles and the projection are only built for
    slices that are nonzero, which is a tiny fraction of the bigraded plane.
    """

    def __init__(self, cube: CubeComplex, p: int):
        self.cube = cube
        self.p = p
        self._columns: dict[tuple[int, int], tuple[EchelonModP, list]] = {}
        self._slices: dict[tuple[int, int], tuple[EchelonModP, list]] = {}

    def _reduced(self, i: int, j: int) -> tuple[EchelonModP, list]:
        """Column echelon and kernel basis of d^{i,j}."""
        key = (i, j)
        if key not in self._columns:
            self._columns[key] = columns_mod_p(self.cube.differential_matrix(i, j), self.p)
        return self._columns[key]

    def _rank(self, i: int, j: int) -> int:
        if self.cube.chain_rank(i, j) == 0 or self.cube.chain_rank(i + 1, j) == 0:
            return 0
        return len(self._reduced(i, j)[0])

    def dim_h(self, i: int, j: int) -> int:
        dim = self.cube.chain_rank(i, j)
        if dim == 0:
            return 0
        return dim - self._rank(i, j) - self._rank(i - 1, j)

    def slice(self, i: int, j: int) -> tuple[EchelonModP, list[dict[int, int]]]:
        """The representative cycles of H^{i,j}, and an echelon of C^{i,j}
        holding the boundaries and the representatives whose coordinates are
        homology classes: 0 for a boundary, the k-th unit for the k-th rep."""
        key = (i, j)
        if key not in self._slices:
            echelon = EchelonModP(self.p)
            for vec in self._reduced(i - 1, j)[0].vectors():
                if echelon.add(vec, {}) is not None:
                    raise AssertionError("image basis vectors must be independent")
            reps: list[dict[int, int]] = []
            for vec in self._reduced(i, j)[1]:
                if echelon.add(vec, {len(reps): 1}) is None:
                    reps.append(vec)
            if len(reps) != self.dim_h(i, j):
                raise AssertionError("representative count disagrees with rank count")
            self._slices[key] = (echelon, reps)
        return self._slices[key]

    def project(self, i: int, j: int, chain: dict[int, int]) -> dict[int, int]:
        """Homology class of a cycle, modulo boundaries."""
        if not chain:
            return {}
        residual, cls = self.slice(i, j)[0].reduce(chain)
        if residual:
            raise _ChainMapDefect("not-a-cycle")
        return cls


def _apply(mat: SparseIntMat, vec: dict[int, int], p: int) -> dict[int, int]:
    """``mat`` times ``vec`` over F_p, by one pass over the matrix's entries."""
    out: dict[int, int] = {}
    get = vec.get
    for r, c, v in zip(mat.row_index, mat.col_index, mat.values):
        x = get(c)
        if x:
            out[r] = out.get(r, 0) + v * x
    return {r: total % p for r, total in out.items() if total % p}


def _les_failures(split: ConeSplit, degrees, p: int) -> list[dict]:
    """Every station of the triangle over F_p that is not exact."""
    h_total = _HomologyModP(split.total, p)
    h_sub = _HomologyModP(split.sub, p)
    h_quot = _HomologyModP(split.quotient, p)
    failures = []

    def fail(i, j, station, defect, counts=None):
        failures.append(
            {"i": i, "j": j, "station": station, "defect": defect, **(counts or {}), "p": p}
        )

    # induced maps as lists of image columns, indexed by the (i, j) of the
    # total diagram; maps between trivial homology slices are never built
    inc: dict[tuple[int, int], list[dict[int, int]]] = {}
    proj: dict[tuple[int, int], list[dict[int, int]]] = {}
    connect: dict[tuple[int, int], list[dict[int, int]]] = {}

    def induce(table, station, i, j, reps, image_of):
        try:
            table[(i, j)] = [image_of(rep) for rep in reps]
        except _ChainMapDefect as defect:
            fail(i, j, station, str(defect))

    for i, j in degrees:
        dim_sub = h_sub.dim_h(i - 1, j - 1)
        dim_tot = h_total.dim_h(i, j)
        dim_quot = h_quot.dim_h(i, j)
        dim_sub_next = h_sub.dim_h(i, j - 1)

        if dim_sub and dim_tot:
            inc_mat = split.inclusion_matrix(i, j)
            induce(
                inc, "total", i, j, h_sub.slice(i - 1, j - 1)[1],
                lambda rep: h_total.project(i, j, _apply(inc_mat, rep, p)),
            )
        if dim_tot and dim_quot:
            proj_mat = split.projection_matrix(i, j)
            induce(
                proj, "zero-resolution", i, j, h_total.slice(i, j)[1],
                lambda rep: h_quot.project(i, j, _apply(proj_mat, rep, p)),
            )
        if dim_quot and dim_sub_next:
            lift = split.lift_matrix(i, j)
            d_total = split.total.differential_matrix(i, j)
            # the boundary of a lifted quotient cycle lives in the subcomplex;
            # peel the inclusion (disjoint +-1 unit columns)
            inc_next = split.inclusion_matrix(i + 1, j)
            peel = {
                r: (c, v)
                for r, c, v in zip(inc_next.row_index, inc_next.col_index, inc_next.values)
            }

            def connecting(rep):
                out = {}
                for r, v in _apply(d_total, _apply(lift, rep, p), p).items():
                    if r not in peel:
                        raise _ChainMapDefect("escaped-subcomplex")
                    c, sign = peel[r]
                    out[c] = v * sign % p
                return h_sub.project(i, j - 1, out)

            induce(connect, "one-resolution", i, j, h_quot.slice(i, j)[1], connecting)

    def rank(columns):
        echelon = EchelonModP(p)
        for col in columns:
            echelon.add(col, {})
        return len(echelon)

    def composite_vanishes(outer, inner):
        for col in inner:
            image: dict[int, int] = {}
            for k, x in col.items():
                for r, v in outer[k].items():
                    image[r] = (image.get(r, 0) + x * v) % p
            if any(image.values()):
                return False
        return True

    for i, j in degrees:
        # each station: its homology, the map into it and the map out of it;
        # the image of the one must be the kernel of the other
        stations = (
            ("total", h_total.dim_h(i, j), inc.get((i, j)), proj.get((i, j))),
            ("zero-resolution", h_quot.dim_h(i, j), proj.get((i, j)), connect.get((i, j))),
            ("one-resolution", h_sub.dim_h(i, j - 1), connect.get((i, j)),
             inc.get((i + 1, j))),
        )
        for station, dim_mid, into, out_of in stations:
            if not dim_mid:
                continue
            r_in, r_out = rank(into or []), rank(out_of or [])
            if r_in + r_out != dim_mid:
                fail(i, j, station, "rank", {"in": r_in, "out": r_out, "dim": dim_mid})
            if into and out_of and not composite_vanishes(out_of, into):
                fail(i, j, station, "composite")

    return failures


def _les_hypothesis(word: Word, flat_index: int) -> None:
    labels = label_crossings(word)
    if not 0 <= flat_index < len(labels):
        raise IndexError("crossing index out of range")
    if word.letters[labels[flat_index].letter_index].kind != POS_CROSS:
        raise ValueError("exactness is checked at positive crossings")


def _les(word: Word, flat_index: int, **engine) -> tuple[str, dict]:
    """A failure entry names its field in ``p``; a map that is not a chain
    map is a failure too, with defect ``not-a-cycle`` or
    ``escaped-subcomplex``."""
    total_cube = build_cube(word, **engine)
    split = mapping_cone_split(total_cube, flat_index)
    js = set()
    for i in range(total_cube.m + 1):
        js.update(total_cube.chain_ranks(i))
    degrees = [
        (i, j)
        for i in range(-1, total_cube.m + 2)
        for j in sorted(js | {j + 1 for j in js})
    ]
    failures = [f for p in LES_PRIMES for f in _les_failures(split, degrees, p)]
    return (PASS if not failures else FAIL), {"failures": failures}


def _width_diagonals(p: int, q: int) -> tuple[int, int]:
    """Diagonals of the corner generator H^{2p-2,p} and of the top generator
    of the zeroth group of T(p, q): w + 3 - 2p and w + 1, w = (p-1)(q-1)."""
    w = (p - 1) * (q - 1)
    return w + 3 - 2 * p, w + 1


def _conjecture1(p: int, **engine) -> tuple[str, dict]:
    """Each of the two groups is computed from its own quantum degree alone
    (see ``homology_group_at``), never from a whole differential, which
    keeps the check feasible right up to the crossing budget."""
    word = torus_word(p, p + 1)
    corner = homology_group_at(word, 2 * p - 2, p, **engine)
    if corner.rank <= 0:
        return FAIL, {"i": 2 * p - 2, "j": p, "rank": corner.rank}
    delta_low, delta_top = _width_diagonals(p, p + 1)
    # in degree 0 the diagonal is the normalized quantum degree
    top_raw_j = delta_top - word.n_plus
    zeroth = homology_group_at(word, 0, top_raw_j, **engine)
    width = (delta_top - delta_low) // 2 + 1 if zeroth.rank else 1
    return (PASS if width >= p else FAIL), {
        "i": 2 * p - 2,
        "j": p,
        "rank": corner.rank,
        "delta_pair": [delta_low, delta_top],
        "width_at_least": width,
    }


def _width_lower_bound(p: int, q: int, **engine) -> tuple[str, dict]:
    raw = homology_unnormalized(torus_word(p, q), max_i=2 * p - 2, **engine)
    rank = raw.group(2 * p - 2, p).rank
    if rank <= 0:
        return PASS, {"hypothesis_rank": 0, "note": "hypothesis empty; implication vacuous"}
    table = normalize(raw)
    delta_low, delta_top = _width_diagonals(p, q)
    profile = diagonal_profile(table)
    ok = (
        delta_top in profile.diagonals
        and delta_low in profile.diagonals
        and delta_top - delta_low == 2 * p - 2
        and profile.width >= p
    )
    return (PASS if ok else FAIL), {
        "hypothesis_rank": rank,
        "delta_pair": [delta_low, delta_top],
        "width_at_least": profile.width,
    }


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
    n_skipped: range
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
    agrees on every t-degree below m + min(n, n') - 3.  T_{m,n} has (m-1)n
    crossings, so the twist counts over the crossing budget form a tail,
    skipped rather than attempted, and the cost does not grow with n_max.
    """
    _need(m >= 2 and n_max > m, "need m >= 2 and n_max > m")
    n_fit = min(n_max, max(max_crossings // (m - 1), m))
    checked = range(m + 1, n_fit + 1)
    per_n: dict[int, LaurentPoly2] = {}
    for n in checked:
        table = homology(
            torus_word(m, n), max_i=m + n - 3, jobs=jobs, max_crossings=max_crossings
        )
        per_n[n] = poincare(table).q_shifted(-(m - 1) * n)

    mismatches = []
    for a, b in itertools.combinations(checked, 2):
        bound = m + a - 3
        pa, pb = per_n[a].t_truncated(bound), per_n[b].t_truncated(bound)
        if pa != pb:
            mismatches.append({"pair": [a, b], "t_below": bound, "difference": str(pa - pb)})

    if checked:
        stable_bound = m + min(checked) - 3
        truncation = per_n[max(checked)].t_truncated(stable_bound)
    else:
        stable_bound = 0
        truncation = LaurentPoly2()
    return StablePoly(
        m=m,
        n_checked=tuple(checked),
        n_skipped=range(n_fit + 1, n_max + 1),
        per_n=per_n,
        stable_t_bound=stable_bound,
        truncation=truncation,
        mismatches=tuple(mismatches),
    )


def _stable_poly(m: int, n_max: int, **engine) -> tuple[str, dict]:
    result = stable_poly(m, n_max, **engine)
    witness = {
        "n_checked": list(result.n_checked),
        "n_skipped_from": result.n_skipped[0] if result.n_skipped else None,
        "stable_t_below": result.stable_t_bound,
        "truncation": str(result.truncation),
        "mismatches": list(result.mismatches),
    }
    if len(result.n_checked) < 2:
        return SKIPPED, witness
    return (PASS if result.consistent else FAIL), witness


# -- the claims -----------------------------------------------------------------


class Claim(NamedTuple):
    """One claim of the paper, as ``check`` runs it and ``khoma verify`` offers it.

    ``label`` names it in reports, ``statement`` states it (its first line
    is the short help), ``params`` names its parameters in order (``word``
    for a diagram) and ``takes_jobs`` says whether the body takes ``jobs``.
    The functions take the parameter values: ``hypothesis`` raises outside
    the claim, ``crossings`` counts the largest diagram without building a
    word, and ``body``, given the engine options too, returns the verdict
    and the witness.
    """

    label: str
    statement: str
    params: tuple[str, ...]
    takes_jobs: bool
    hypothesis: Callable[..., None]
    crossings: Callable[..., int]
    body: Callable[..., tuple[str, dict]]


# keyed by the ``khoma verify`` subcommand, in the order the CLI lists them
CLAIMS: dict[str, Claim] = {
    "t1": Claim(
        "T1",
        """A fourth-degree generator sits five steps above the top of the zeroth.

        For 3 <= p <= q the normalized group at (4, (p-1)(q-1) + 5) must have
        positive free rank; it is the witness that puts non-alternating torus
        links on a third diagonal.""",
        ("p", "q"), True,
        lambda p, q: _need(3 <= p <= q, "need 3 <= p <= q"),
        lambda p, q: (p - 1) * q,
        _t1,
    ),
    "f1": Claim(
        "f1",
        "Dropping one full twist preserves raw homology below degree p + q - 3.",
        ("p", "q"), True,
        lambda p, q: _need(2 <= p < q, "need 2 <= p < q"),
        lambda p, q: (p - 1) * q,
        _stability(_last_twist, lambda p, q: p + q - 3),
    ),
    "f2": Claim(
        "f2",
        "All twist counts from p+1 up share raw homology below degree 2p - 1.",
        ("p", "q"), True,
        lambda p, q: _need(2 <= p < q, "need 2 <= p < q"),
        lambda p, q: (p - 1) * q,
        _stability(
            lambda p, q: {n: torus_word(p, n) for n in range(p + 1, q + 1)},
            lambda p, q: 2 * p - 1,
            by_pair=True,
        ),
    ),
    "f3": Claim(
        "f3",
        """Square diagrams shed one strand: H(D_{p,p}) matches H(D_{p-1,p}){1}.

        Raw groups agree under a single quantum shift below degree 2p - 3.""",
        ("p",), True,
        lambda p: _need(p >= 2, "need p >= 2"),
        lambda p: (p - 1) * p,
        _stability(
            lambda p: {s: torus_word(s, p) for s in (p - 1, p)},
            lambda p: max(2 * p - 3, 1),
            j_shift=1,
        ),
    ),
    "rem2": Claim(
        "rem2",
        "The twist-dropping bound sharpens to q - 1 + floor((q-1)/p) (p-2).",
        ("p", "q"), True,
        lambda p, q: _need(2 <= p < q, "need 2 <= p < q"),
        lambda p, q: (p - 1) * q,
        _stability(_last_twist, lambda p, q: q - 1 + ((q - 1) // p) * (p - 2)),
    ),
    "table": Claim(
        "low-degree-table",
        """The normalized groups in degrees 0..4 follow one fixed pattern.

        With w = (p-1)(q-1): free Z at (0, w-1), (0, w+1), (2, w+3), (3, w+7),
        (4, w+5), (4, w+7), a lone Z_2 at (3, w+5), and nothing else up to
        degree four (in particular degree one is empty).  Square three-strand
        diagrams are excluded by hypothesis.""",
        ("p", "q"), True,
        lambda p, q: _need(3 <= p <= q, "need 3 <= p <= q"),
        # the excluded case builds no diagram
        lambda p, q: 0 if p == q == 3 else (p - 1) * q,
        _low_degree_table,
    ),
    "e-vanishing": Claim(
        "E-vanishing",
        """The plat diagrams of twist reduction have no low raw homology.

        The i-th 1-resolution diagram of the (p, q) twist-reduction sequence must
        have trivial raw homology below p + q - 3 (below 2p - 3 when p = q).""",
        ("p", "q", "i"), True,
        lambda p, q, i: _need(
            3 <= p <= q and 1 <= i <= p - 1, "need 3 <= p <= q and 1 <= i <= p - 1"
        ),
        lambda p, q, i: (p - 1) * q - i,
        _stability(
            lambda p, q, i: {i: e_diagram(p, q, i)},
            lambda p, q, i: 2 * p - 3 if p == q else p + q - 3,
        ),
    ),
    "les": Claim(
        "les",
        """Exactness of the resolution triangle at one positive crossing.

        Splitting the cube at the crossing gives maps

            H^{i-1,j-1}(D_1) -> H^{i,j}(D) -> H^{i,j}(D_0) -> H^{i,j-1}(D_1)

        where the last map lifts a cycle of the quotient, applies the boundary and
        reads off the subcomplex part.  The cone sequence splits in each degree,
        so the triangle is exact over every field; it is checked over F_2 and
        F_{2^31-1} (``LES_PRIMES``).  The composite of consecutive maps must
        vanish and the ranks must add up at every station.""",
        ("word", "crossing"), False,
        _les_hypothesis,
        lambda word, flat_index: word.crossing_count,
        _les,
    ),
    "conj1": Claim(
        "conj1",
        """The corner group H^{2p-2, p} of the (p, p+1) diagram is nonzero.

        On success the corner generator and a generator of the zeroth group
        sit 2p - 2 diagonals apart, which already forces width at least p.""",
        ("p",), False,
        lambda p: _need(p >= 3, "need p >= 3"),
        lambda p: (p - 1) * (p + 1),
        _conjecture1,
    ),
    "stable-poly": Claim(
        "stable-poly",
        """Twist-normalized Poincare polynomials of torus links stabilize.

        P_{m,n} = q^{-(m-1)n} P(T_{m,n}) for n = m+1 .. n_max agree pairwise below
        t-degree m + min(n, n') - 3, as Dunfield, Gukov and Rasmussen conjectured.
        The claim is skipped unless two twist counts fit the crossing budget.""",
        ("m", "n_max"), True,
        lambda m, n_max: _need(m >= 2 and n_max > m, "need m >= 2 and n_max > m"),
        # only the twist counts that fit are computed
        lambda m, n_max: 0,
        _stable_poly,
    ),
    "width": Claim(
        "width",
        """Nonzero H^{2p-2, p} forces width >= p.

        The witness generators sit on diagonals (p-1)(q-1) + 1 and
        (p-1)(q-1) + 3 - 2p, which differ by 2p - 2.  When the hypothesis group
        vanishes the implication is vacuous and reported as such.""",
        ("p", "q"), True,
        lambda p, q: _need(2 <= p <= q, "need 2 <= p <= q"),
        lambda p, q: (p - 1) * q,
        _width_lower_bound,
    ),
}


def check(
    name: str, *values, max_crossings: int = DEFAULT_MAX_CROSSINGS, jobs: int = 1
) -> CheckReport:
    """Check claim ``name`` of ``CLAIMS`` at the parameter ``values``.

    Parameters outside the hypothesis raise; a claim whose largest diagram
    has more than ``max_crossings`` crossings is reported skipped without
    building it.  A negative budget raises, and so does ``jobs`` other than
    1 for a claim that does not take it.
    """
    claim = CLAIMS[name]
    if max_crossings < 0:
        raise ValueError(f"max_crossings must be at least 0, got {max_crossings}")
    if jobs != 1 and not claim.takes_jobs:
        raise ValueError(f"claim {name} does not take jobs, got jobs={jobs}")
    claim.hypothesis(*values)
    params: dict = {}
    for param, value in zip(claim.params, values):
        if param == "word":
            params.update(word=str(value), strands=value.strands)
        else:
            params[param] = value
    crossings = claim.crossings(*values)
    if crossings > max_crossings:
        verdict, witness = _skip(crossings, max_crossings)
    else:
        engine = {"max_crossings": max_crossings}
        if claim.takes_jobs:
            engine["jobs"] = jobs
        verdict, witness = claim.body(*values, **engine)
    return CheckReport(claim.label, params, verdict, witness)


def _binding(claim: str, name: str) -> functools.partial:
    bound = functools.partial(check, claim)
    bound.__name__, bound.__doc__ = name, CLAIMS[claim].statement
    return bound


check_t1 = _binding("t1", "check_t1")
check_f1 = _binding("f1", "check_f1")
check_f2 = _binding("f2", "check_f2")
check_f3 = _binding("f3", "check_f3")
check_rem2 = _binding("rem2", "check_rem2")
check_low_degree_table = _binding("table", "check_low_degree_table")
check_e_vanishing = _binding("e-vanishing", "check_e_vanishing")
check_width_lower_bound = _binding("width", "check_width_lower_bound")
check_les = _binding("les", "check_les")
check_conjecture1 = _binding("conj1", "check_conjecture1")
stable_poly_report = _binding("stable-poly", "stable_poly_report")
