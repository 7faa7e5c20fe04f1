"""Polynomial and diagonal invariants of homology tables.

The two-variable Poincaré polynomial collects free ranks as coefficients of
t^i q^j; its specialization t = -1 is the graded Euler characteristic, which
must coincide with the Jones polynomial computed by the Kauffman bracket
state sum.  The bracket here is evaluated by direct enumeration of all total
resolutions, so it shares nothing with the cube's edge maps or signs and can
serve as an independent oracle for the homology engine.

A diagonal of a normalized table is a value of j - 2i supported by positive
free rank; the spread of the occupied diagonals measures the homological
width, and width two against three-or-more separates thin links from thick
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cube import DEFAULT_MAX_CROSSINGS
from .diagram import CrossingLimitError, Word, circle_count
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


class LaurentPoly1:
    """Integer Laurent polynomial in q; zero coefficients are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] = ()):
        self.coeffs = {e: int(v) for e, v in dict(coeffs).items() if v}

    @classmethod
    def zero(cls) -> "LaurentPoly1":
        return cls()

    def __eq__(self, other):
        return isinstance(other, LaurentPoly1) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = out.get(e, 0) + v
        return LaurentPoly1(out)

    def __neg__(self) -> "LaurentPoly1":
        return LaurentPoly1({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        return self + (-other)

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

    def scaled(self, factor: int) -> "LaurentPoly1":
        return LaurentPoly1({e: factor * v for e, v in self.coeffs.items()})

    def shifted(self, exponent: int) -> "LaurentPoly1":
        return LaurentPoly1({e + exponent: v for e, v in self.coeffs.items()})

    def inverted(self) -> "LaurentPoly1":
        """Substitute q -> 1/q."""
        return LaurentPoly1({-e: v for e, v in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        out = []
        for n, e in enumerate(sorted(self.coeffs)):
            out.append(_format_term(self.coeffs[e], _power("q", e), n == 0))
        return "".join(out)

    __repr__ = __str__


class LaurentPoly2:
    """Integer Laurent polynomial in (t, q)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] = ()):
        self.coeffs = {te_qe: int(v) for te_qe, v in dict(coeffs).items() if v}

    def __eq__(self, other):
        return isinstance(other, LaurentPoly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, 0) + v
        return LaurentPoly2(out)

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, 0) - v
        return LaurentPoly2(out)

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

    def __str__(self):
        if not self.coeffs:
            return "0"
        out = []
        for n, (te, qe) in enumerate(sorted(self.coeffs)):
            parts = _power("t", te) + _power("q", qe)
            out.append(_format_term(self.coeffs[(te, qe)], parts, n == 0))
        return "".join(out)

    __repr__ = __str__


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


def kauffman_bracket(
    word: Word, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> LaurentPoly1:
    """State-sum bracket: sum over resolutions of (-q)^weight (q + 1/q)^circles.

    Evaluated by direct enumeration, independent of the cube machinery.
    """
    m = word.crossing_count
    if m > max_crossings:
        raise CrossingLimitError(f"word has {m} crossings, limit is {max_crossings}")
    loop = LaurentPoly1({1: 1, -1: 1})
    loop_powers = [LaurentPoly1({0: 1})]
    for _ in range(word.strands + len(word.letters) + 1):
        loop_powers.append(loop_powers[-1] * loop)
    total: dict[int, int] = {}
    for mask in range(1 << m):
        bits = tuple((mask >> b) & 1 for b in range(m))
        weight = mask.bit_count()
        c = circle_count(word, bits)
        sign = -1 if weight & 1 else 1
        for e, v in loop_powers[c].coeffs.items():
            key = e + weight
            total[key] = total.get(key, 0) + sign * v
    return LaurentPoly1(total)


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
