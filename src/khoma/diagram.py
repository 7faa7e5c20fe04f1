"""Braid-like words, their trace closures, and crossing resolutions.

A link diagram is presented as a word on numbered strands, read top to
bottom.  Each letter acts on two adjacent strands: a positive crossing
(strand k over strand k+1), a negative crossing, or a cap-cup smoothing left
behind by resolving a crossing.  Identity letters are never stored.  The word
is closed by joining top endpoint k to bottom endpoint k on every strand, so
every word presents a link; the closure of ``(sigma_1 ... sigma_{p-1})^q`` is
the (p, q) torus link.

Resolving every crossing leaves a crossingless pattern whose closure is a
disjoint union of circles.  Points of the pattern live on a fixed
(row, strand) grid, with rows counted modulo the word length, which realizes
the closure.  Each circle gets a canonical key: the lexicographically
smallest (row, strand) point it crosses.  Because resolutions of the same
word share one grid, a circle that stays away from a changed crossing keeps
its exact point set, hence its key; the cube construction relies on this to
match circles across adjacent resolutions.

``circles`` traces a resolution on the word's arc graph, which each word
computes once: an arc is a maximal vertical run of grid points in one column
that no letter interrupts, and arcs are numbered by their first point in
row-major order, so arc order is key order.  The arc graph records which
letter end each arc's top and bottom meet, and a letter only ever joins its
four end arcs, two by two, so ``_ArcGraph.trace`` walks one circle of a
resolution from letter to letter without touching the rest.  ``circles``
walks every circle, from its first arc in ascending order; the cube traces
its all-zero vertex that way and each split's new circle alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

POS_CROSS = "+"
NEG_CROSS = "-"
SMOOTH = "o"

_KINDS = frozenset((POS_CROSS, NEG_CROSS, SMOOTH))


class CrossingLimitError(RuntimeError):
    """Raised when a computation would exceed the configured crossing budget."""


def check_crossing_budget(crossings: int, max_crossings: int) -> None:
    """Refuse a negative budget as an argument error, and a word over it."""
    if max_crossings < 0:
        raise ValueError(f"max_crossings must be at least 0, got {max_crossings}")
    if crossings > max_crossings:
        raise CrossingLimitError(f"word has {crossings} crossings, limit is {max_crossings}")


class Letter(NamedTuple):
    kind: str
    position: int  # 1-based strand index; the letter occupies strands position, position+1


def pos_cross(k: int) -> Letter:
    return Letter(POS_CROSS, k)


def neg_cross(k: int) -> Letter:
    return Letter(NEG_CROSS, k)


def smooth(k: int) -> Letter:
    return Letter(SMOOTH, k)


@dataclass(frozen=True)
class Word:
    """A word on ``strands`` strands, closed by the trace."""

    strands: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be positive")
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter.kind not in _KINDS:
                raise ValueError(f"unknown letter kind {letter.kind!r}")
            if not 1 <= letter.position <= self.strands - 1:
                raise ValueError(
                    f"letter position {letter.position} out of range for "
                    f"{self.strands} strands"
                )

    @property
    def crossing_count(self) -> int:
        return sum(1 for x in self.letters if x.kind != SMOOTH)

    @property
    def n_plus(self) -> int:
        return sum(1 for x in self.letters if x.kind == POS_CROSS)

    @property
    def n_minus(self) -> int:
        return sum(1 for x in self.letters if x.kind == NEG_CROSS)

    @property
    def smooth_count(self) -> int:
        return sum(1 for x in self.letters if x.kind == SMOOTH)

    @cached_property
    def _arcs(self) -> _ArcGraph:
        """The arc graph shared by every resolution of this word."""
        return _ArcGraph(self)

    def signed_letters(self) -> tuple[int, ...]:
        """The word as signed generator indices; defined for crossings-only words."""
        if self.smooth_count:
            raise ValueError("word contains smoothing letters")
        return tuple(
            x.position if x.kind == POS_CROSS else -x.position for x in self.letters
        )

    def __str__(self):
        if not self.letters:
            return f"<empty word on {self.strands} strands>"
        bits = []
        for x in self.letters:
            if x.kind == POS_CROSS:
                bits.append(str(x.position))
            elif x.kind == NEG_CROSS:
                bits.append(str(-x.position))
            else:
                bits.append(f"o{x.position}")
        return " ".join(bits)


class CrossingLabel(NamedTuple):
    type: int  # strand position of the crossing
    ordinal: int  # 1-based rank among crossings of the same type, top to bottom
    flat_index: int  # rank in the global (type, ordinal) order
    letter_index: int  # index of the carrying letter in the word


@dataclass(frozen=True)
class ResolvedState:
    """One total resolution of a word: its circles, canonically labelled.

    ``membership`` maps every grid point (encoded row * strands + column - 1)
    to the index of its circle; circles are indexed in ascending order of
    their canonical keys.
    """

    assignment: tuple[int, ...]
    count: int
    keys: tuple[tuple[int, int], ...]
    membership: tuple[int, ...]
    rows: int
    strands: int

    @property
    def weight(self) -> int:
        return sum(self.assignment)

    def circle_points(self, index: int) -> frozenset[tuple[int, int]]:
        s = self.strands
        return frozenset(
            (p // s, p % s + 1)
            for p, c in enumerate(self.membership)
            if c == index
        )


def parse_word(text: str, strands: Optional[int] = None) -> Word:
    """Parse a whitespace-separated list of nonzero generator indices.

    Positive k gives a positive crossing at strand k, negative k its inverse.
    Without an explicit strand count the word uses the fewest strands that fit.
    """
    tokens = text.split()
    values = []
    for token in tokens:
        try:
            k = int(token)
        except ValueError:
            raise ValueError(f"not an integer token: {token!r}") from None
        if k == 0:
            raise ValueError("generator index 0 is not allowed")
        values.append(k)
    if strands is None:
        if not values:
            raise ValueError("cannot infer strand count of an empty word")
        strands = max(abs(k) for k in values) + 1
    letters = tuple(
        pos_cross(k) if k > 0 else neg_cross(-k) for k in values
    )
    return Word(strands, letters)


def torus_word(p: int, q: int) -> Word:
    """The standard diagram of the (p, q) torus link: (sigma_1...sigma_{p-1})^q."""
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    block = [pos_cross(k) for k in range(1, p)]
    return Word(p, tuple(block * q))


def mirror(w: Word) -> Word:
    """Swap positive and negative crossings; smoothings are self-mirror."""
    flipped = {POS_CROSS: NEG_CROSS, NEG_CROSS: POS_CROSS, SMOOTH: SMOOTH}
    return Word(w.strands, tuple(Letter(flipped[x.kind], x.position) for x in w.letters))


def label_crossings(w: Word) -> tuple[CrossingLabel, ...]:
    """Crossing labels (type, ordinal), sorted by type and then top to bottom.

    The flat index is the rank in that order; it is the bit position used by
    every resolution assignment.
    """
    per_type: dict[int, list[int]] = {}
    for t, letter in enumerate(w.letters):
        if letter.kind != SMOOTH:
            per_type.setdefault(letter.position, []).append(t)
    labels = []
    flat = 0
    for position in sorted(per_type):
        for ordinal, letter_index in enumerate(per_type[position], start=1):
            labels.append(CrossingLabel(position, ordinal, flat, letter_index))
            flat += 1
    return tuple(labels)


def resolve_crossing(w: Word, flat_index: int, r: int) -> Word:
    """Replace one crossing by its r-resolution.

    A positive crossing resolves to the identity (letter deleted) at r = 0 and
    to a cap-cup smoothing at r = 1; a negative crossing uses the mirror rule.
    """
    if r not in (0, 1):
        raise ValueError("resolution bit must be 0 or 1")
    labels = label_crossings(w)
    if not 0 <= flat_index < len(labels):
        raise IndexError(f"crossing index {flat_index} out of range")
    label = labels[flat_index]
    letter = w.letters[label.letter_index]
    keep_smooth = (letter.kind == POS_CROSS) == (r == 1)
    new_letters = list(w.letters)
    if keep_smooth:
        new_letters[label.letter_index] = smooth(letter.position)
    else:
        del new_letters[label.letter_index]
    return Word(w.strands, tuple(new_letters))


class _ArcGraph:
    """The arcs of a word's grid, and the four end arcs of every letter.

    ``arc_of_point[p]`` is the arc through grid point p; ``arc_keys[a]`` is
    the (row, strand) of arc a's first point, and arcs are numbered so that
    these keys ascend.  ``letters`` holds per letter its crossing's flat index
    (None for a smoothing), the bit that smooths it, and its end arcs paired
    as a smoothing joins them (above-left with above-right, below-left with
    below-right) and as an identity slot joins them (above with below).

    A letter end is a slot 4t + s of letter t, s = 0, 1, 2, 3 for above-left,
    above-right, below-left, below-right, so a smoothing pairs s with s ^ 1
    and an identity slot pairs s with s ^ 2.  ``slot_arcs`` holds the arc at
    each slot, and ``ends[2a]`` / ``ends[2a + 1]`` the slot that arc a's top /
    bottom meets (-1 on a column no letter touches, whose one arc closes up
    on itself).
    """

    __slots__ = ("arc_of_point", "arc_keys", "letters", "crossings", "slot_arcs", "ends")

    def __init__(self, w: Word):
        s = w.strands
        rows = max(len(w.letters), 1)
        cut = [[] for _ in range(s)]  # per column, rows t whose link t -> t+1 is cut
        for t, letter in enumerate(w.letters):
            cut[letter.position - 1].append(t)
            cut[letter.position].append(t)
        arc_of_point = []
        arc_keys = []
        for r in range(rows):
            for c in range(s):
                if r and r - 1 not in cut[c]:
                    arc = arc_of_point[-s]  # the run continues from the row above
                elif r and r - 1 == cut[c][-1]:
                    arc = arc_of_point[c]  # the last run wraps round to row 0
                else:
                    arc = len(arc_keys)
                    arc_keys.append((r, c + 1))
                arc_of_point.append(arc)
        flat = {lab.letter_index: lab.flat_index for lab in label_crossings(w)}
        letters = []
        slot_arcs = []
        ends = [-1] * (2 * len(arc_keys))
        for t, letter in enumerate(w.letters):
            top = t * s + letter.position - 1
            bot = ((t + 1) % rows) * s + letter.position - 1
            above_l, above_r = arc_of_point[top], arc_of_point[top + 1]
            below_l, below_r = arc_of_point[bot], arc_of_point[bot + 1]
            # the arcs above end at their bottoms, the arcs below at their tops
            for slot, end in enumerate((
                2 * above_l + 1, 2 * above_r + 1, 2 * below_l, 2 * below_r
            ), start=4 * t):
                ends[end] = slot
            slot_arcs += (above_l, above_r, below_l, below_r)
            letters.append((
                flat.get(t),
                1 if letter.kind == POS_CROSS else 0,
                ((above_l, above_r), (below_l, below_r)),
                ((above_l, below_l), (above_r, below_r)),
            ))
        self.arc_of_point = tuple(arc_of_point)
        self.arc_keys = tuple(arc_keys)
        self.letters = tuple(letters)
        self.crossings = len(flat)
        self.slot_arcs = tuple(slot_arcs)
        self.ends = tuple(ends)

    def trace(self, eps: int, start: int) -> list[int]:
        """Arcs of one circle of the resolution ``eps``, from arc ``start``.

        ``eps`` holds the resolution bit of crossing k in bit k; a smoothing
        letter is always smoothed.  The walk leaves ``start`` by its bottom
        and goes from end to end through the letters until it comes back.
        """
        letters, slot_arcs, ends = self.letters, self.slot_arcs, self.ends
        piece = [start]
        slot = ends[2 * start + 1]
        if slot < 0:
            return piece  # a column no letter touches closes up on itself
        while True:
            flat, smooth_bit = letters[slot >> 2][:2]
            smoothed = flat is None or (eps >> flat) & 1 == smooth_bit
            slot ^= 1 if smoothed else 2
            arc = slot_arcs[slot]
            if arc == start:
                return piece
            piece.append(arc)
            # entered by an above slot at the arc's bottom: leave by its top
            slot = ends[2 * arc + (slot >> 1 & 1)]


def _circle_of_arc(w: Word, assignment: Sequence[int]) -> tuple[list[int], list[int]]:
    """The circle of every arc under one total resolution, and each circle's
    first arc; circles are numbered by their first arcs, ascending."""
    graph = w._arcs
    if len(assignment) != graph.crossings:
        raise ValueError(
            f"assignment has {len(assignment)} bits for {graph.crossings} crossings"
        )
    eps = 0
    for flat, bit in enumerate(assignment):
        if bit not in (0, 1):
            raise ValueError("assignment bits must be 0 or 1")
        eps |= bit << flat
    circle_of_arc = [-1] * len(graph.arc_keys)
    firsts = []
    for arc in range(len(circle_of_arc)):
        if circle_of_arc[arc] < 0:
            for on in graph.trace(eps, arc):
                circle_of_arc[on] = len(firsts)
            firsts.append(arc)
    return circle_of_arc, firsts


def circles(w: Word, assignment: Sequence[int]) -> ResolvedState:
    """Trace the total resolution of ``w`` selected by ``assignment``.

    The assignment carries one bit per crossing, indexed by flat crossing
    order.  Closed loops created inside the word (a cap directly above a cup)
    count as ordinary circles.  Crossings are resolved in place (a 0-resolved
    positive crossing leaves an identity slot, not a deleted letter), so all
    resolutions of one word share one grid; each circle is walked over the
    arcs of that grid from its first arc, whose first point is its key.
    """
    circle_of_arc, firsts = _circle_of_arc(w, assignment)
    graph = w._arcs
    return ResolvedState(
        assignment=tuple(assignment),
        count=len(firsts),
        keys=tuple(map(graph.arc_keys.__getitem__, firsts)),
        membership=tuple(map(circle_of_arc.__getitem__, graph.arc_of_point)),
        rows=max(len(w.letters), 1),
        strands=w.strands,
    )


def circle_count(w: Word, assignment: Sequence[int]) -> int:
    """Circle count only: the same walk as ``circles``, with no labels."""
    return len(_circle_of_arc(w, assignment)[1])
