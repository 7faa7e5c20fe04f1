"""Polynomial and diagonal invariants of homology tables.

The two-variable Poincaré polynomial collects free ranks as coefficients of
t^i q^j; its specialization t = -1 is the graded Euler characteristic, which
must coincide with the Jones polynomial computed by the Kauffman bracket
state sum.  The bracket here is Kauffman's state model evaluated as a
Temperley-Lieb scan: the word is read top to bottom while a map from planar
matchings of the strand endpoints to polynomials is updated letter by
letter, and the trace closure counts the loops of each matching at the end.
After k crossings at most min(2^k, Catalan(n)) matchings are reachable on n
strands.  The scan reads only the word's letters; it never builds the arc
graph, traces circles or touches the cube's edge maps or signs, so a fault
there cannot move both sides of Euler = bracket Jones, and the bracket
serves as an independent oracle for the homology engine.

A diagonal of a normalized table is a value of j - 2i supported by positive
free rank; the spread of the occupied diagonals measures the homological
width, and width two against three-or-more separates thin links from thick
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cube import DEFAULT_MAX_CROSSINGS
from .diagram import NEG_CROSS, POS_CROSS, SMOOTH, Word, check_crossing_budget
from .homology import BigradedTable

THIN = "thin"
THICK = "thick"


def _format_term(coeff: int, parts: list[str], first: bool) -> str:
    body = "*".join(parts)
    mag = abs(coeff)
    if mag != 1 or not body:
        body = f"{mag}*{body}" if body else f"{mag}"
    if first:
        return body if coeff > 0 else f"-{body}"
    return f" + {body}" if coeff > 0 else f" - {body}"


def _power(symbol: str, exponent: int) -> list[str]:
    if exponent == 0:
        return []
    if exponent == 1:
        return [symbol]
    return [f"{symbol}^{exponent}"]


class _LaurentPoly:
    """Integer Laurent polynomial as ``{exponent: coefficient}``; zero
    coefficients are never stored.  A subclass writes an exponent as the
    factors ``_parts`` returns."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping = ()):
        self.coeffs = {e: int(v) for e, v in dict(coeffs).items() if v}

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = out.get(e, 0) + v
        return type(self)(out)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, factor: int):
        return type(self)({e: factor * v for e, v in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        return "".join(
            _format_term(self.coeffs[e], self._parts(e), n == 0)
            for n, e in enumerate(sorted(self.coeffs))
        )

    __repr__ = __str__


class LaurentPoly1(_LaurentPoly):
    """Integer Laurent polynomial in q, keyed by the exponent of q."""

    __slots__ = ()

    @staticmethod
    def _parts(exponent: int) -> list[str]:
        return _power("q", exponent)

    def __mul__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        out: dict[int, int] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        return LaurentPoly1(out)

    def __pow__(self, n: int) -> "LaurentPoly1":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = LaurentPoly1({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, exponent: int) -> "LaurentPoly1":
        return LaurentPoly1({e + exponent: v for e, v in self.coeffs.items()})

    def inverted(self) -> "LaurentPoly1":
        """Substitute q -> 1/q."""
        return LaurentPoly1({-e: v for e, v in self.coeffs.items()})


class LaurentPoly2(_LaurentPoly):
    """Integer Laurent polynomial in (t, q), keyed by (t exponent, q exponent)."""

    __slots__ = ()

    @staticmethod
    def _parts(exponent: tuple[int, int]) -> list[str]:
        te, qe = exponent
        return _power("t", te) + _power("q", qe)

    def q_shifted(self, exponent: int) -> "LaurentPoly2":
        return LaurentPoly2(
            {(te, qe + exponent): v for (te, qe), v in self.coeffs.items()}
        )

    def t_coefficient(self, t_exp: int) -> LaurentPoly1:
        return LaurentPoly1(
            {qe: v for (te, qe), v in self.coeffs.items() if te == t_exp}
        )

    def t_truncated(self, t_below: int) -> "LaurentPoly2":
        """Keep only terms with t-exponent strictly below the bound."""
        return LaurentPoly2(
            {(te, qe): v for (te, qe), v in self.coeffs.items() if te < t_below}
        )

    def t_degrees(self) -> list[int]:
        return sorted({te for te, _ in self.coeffs})

    def at_t_minus_one(self) -> LaurentPoly1:
        out: dict[int, int] = {}
        for (te, qe), v in self.coeffs.items():
            out[qe] = out.get(qe, 0) + ((-1) ** (te & 1)) * v
        return LaurentPoly1(out)


@dataclass(frozen=True)
class DiagonalProfile:
    """The set of diagonals j - 2i carrying positive free rank."""

    diagonals: frozenset[int]
    a_min: int
    a_max: int

    @property
    def width(self) -> int:
        return (self.a_max - self.a_min) // 2 + 1


def poincare(table: BigradedTable) -> LaurentPoly2:
    """Two-variable generating polynomial of the free ranks; torsion ignored."""
    return LaurentPoly2(
        {(i, j): g.rank for (i, j), g in table.items() if g.rank}
    )


def graded_euler(table: BigradedTable) -> LaurentPoly1:
    """Alternating sum of free ranks: sum (-1)^i q^j rank."""
    return poincare(table).at_t_minus_one()


_LOOP = LaurentPoly1({1: 1, -1: 1})  # q + 1/q, the value of a closed loop
# per letter kind, its terms: (through the cap-cup?, power of -q)
_TERMS = {
    POS_CROSS: ((False, 0), (True, 1)),
    NEG_CROSS: ((True, 0), (False, 1)),
    SMOOTH: ((True, 0),),
}


def _capped(match: tuple[int, ...], a: int, b: int) -> tuple[tuple[int, ...], bool]:
    """The matching after a cap-cup on bottoms a and b, and whether a loop closed.

    The cap joins the partners of a and b, or closes a loop when they are
    partners already; the cup pairs the new bottoms a and b.
    """
    if match[a] == b:
        return match, True
    out = list(match)
    pa, pb = out[a], out[b]
    out[pa], out[pb], out[a], out[b] = pb, pa, b, a
    return tuple(out), False


def _add_term(out: dict[int, int], poly: dict[int, int], weight: int, loop: bool):
    """out += (-q)^weight (q + 1/q)^loop poly, for weight 0 or 1."""
    sign = -1 if weight else 1
    for e, v in poly.items():
        e += weight
        v *= sign
        if loop:
            out[e - 1] = out.get(e - 1, 0) + v
            out[e + 1] = out.get(e + 1, 0) + v
        else:
            out[e] = out.get(e, 0) + v


def _closure_loops(match: tuple[int, ...]) -> int:
    """Loops of the trace closure, which joins top i to bottom i."""
    n = len(match) // 2
    seen = [False] * (2 * n)
    loops = 0
    for start in range(n):  # every loop passes a top
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            y = match[x]
            seen[x] = seen[y] = True
            x = y + n if y < n else y - n
    return loops


def kauffman_bracket(
    word: Word, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> LaurentPoly1:
    """State-sum bracket: sum over resolutions of (-q)^weight (q + 1/q)^circles.

    Evaluated as a Temperley-Lieb scan, top to bottom.  The state maps
    planar matchings of the 2n endpoints (tops 0..n-1, bottoms n..2n-1, each
    entry the partner's index) to polynomials.  A positive crossing at k is
    identity + (-q) cap-cup on bottoms n+k-1 and n+k, a negative one cap-cup
    + (-q) identity, a smoothing letter the cap-cup alone; a cap on two
    partners closes a loop.  The trace closure then multiplies each matching
    by (q + 1/q) per loop.  After k crossings at most min(2^k, Catalan(n))
    matchings are reachable, so the scan never does more work than the 2^m
    state enumeration.  It reads only ``word.letters``, not the arc graph
    that ``circles`` and the cube trace, so it shares no fault with them.
    """
    check_crossing_budget(word.crossing_count, max_crossings)
    n = word.strands
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): {0: 1}}
    for kind, k in word.letters:
        a = n + k - 1
        scan: dict[tuple[int, ...], dict[int, int]] = {}
        for match, poly in states.items():
            capped, loop = _capped(match, a, a + 1)
            for through_cap, weight in _TERMS[kind]:
                key = capped if through_cap else match
                _add_term(scan.setdefault(key, {}), poly, weight, through_cap and loop)
        states = scan
    by_loops: dict[int, dict[int, int]] = {}
    for match, poly in states.items():
        _add_term(by_loops.setdefault(_closure_loops(match), {}), poly, 0, False)
    total = LaurentPoly1()
    for loops in range(max(by_loops), -1, -1):  # Horner's rule in q + 1/q
        total = total * _LOOP + LaurentPoly1(by_loops.get(loops, {}))
    return total


def jones_from_bracket(
    word: Word, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> LaurentPoly1:
    """Jones polynomial: the bracket rescaled by the writhe normalization."""
    sign = -1 if word.n_minus & 1 else 1
    shift = word.n_plus - 2 * word.n_minus
    return kauffman_bracket(word, max_crossings).shifted(shift).scaled(sign)


def diagonal_profile(table: BigradedTable) -> DiagonalProfile:
    """Occupied diagonals of a normalized table; torsion does not count."""
    if not table.normalized:
        raise ValueError("diagonal profile is defined for normalized tables")
    deltas = {j - 2 * i for (i, j), g in table.items() if g.rank}
    if not deltas:
        raise ValueError("table carries no free rank")
    return DiagonalProfile(
        diagonals=frozenset(deltas), a_min=min(deltas), a_max=max(deltas)
    )


def thickness_class(table: BigradedTable) -> str:
    """"thin" when exactly two diagonals are occupied, "thick" from three on."""
    width = diagonal_profile(table).width
    if width < 2:
        raise ValueError(f"width {width} is impossible for a link table")
    return THIN if width == 2 else THICK
