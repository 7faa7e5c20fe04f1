"""Braid-like words, their trace closures, and crossing resolutions.

A link diagram is presented as a word on numbered strands, read top to
bottom.  Each letter acts on two adjacent strands: a positive crossing
(strand k over strand k+1), a negative crossing, or a cap-cup smoothing left
behind by resolving a crossing.  Identity letters are never stored.  The word
is closed by joining top endpoint k to bottom endpoint k on every strand, so
every word presents a link; the closure of ``(sigma_1 ... sigma_{p-1})^q`` is
the (p, q) torus link.

Resolving every crossing leaves a crossingless pattern whose closure is a
disjoint union of circles.  ``circles`` traces that pattern on a fixed
(row, strand) grid using union-find over the grid points.  Rows are counted
modulo the word length, which realizes the closure, and each circle gets a
canonical key: the lexicographically smallest (row, strand) point it crosses.
Because resolutions of the same word share one grid, a circle that stays away
from a changed crossing keeps its exact point set, hence its key; the cube
construction relies on this to match circles across adjacent resolutions.
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
    def _letter_bits(self) -> tuple[Optional[int], ...]:
        """Per letter, the flat index of its crossing (None for a smoothing).

        Computed once per word: every resolution of the word reads it.
        """
        flat = {lab.letter_index: lab.flat_index for lab in label_crossings(self)}
        return tuple(flat.get(t) for t in range(len(self.letters)))

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


def _resolved_slots(w: Word, assignment: Sequence[int]) -> list[tuple[bool, int]]:
    """Per-letter (is_smooth, position) slots for one total resolution.

    Crossings are resolved in place (a 0-resolved positive crossing becomes an
    identity slot, not a deleted letter) so that all resolutions of one word
    share the same grid.
    """
    bits = w._letter_bits
    if len(assignment) != w.crossing_count:
        raise ValueError(
            f"assignment has {len(assignment)} bits for {w.crossing_count} crossings"
        )
    slots = []
    for letter, flat in zip(w.letters, bits):
        if flat is None:
            slots.append((True, letter.position))
        else:
            bit = assignment[flat]
            if bit not in (0, 1):
                raise ValueError("assignment bits must be 0 or 1")
            is_smooth = (letter.kind == POS_CROSS) == (bit == 1)
            slots.append((is_smooth, letter.position))
    return slots


def _trace(strands: int, slots: Sequence[tuple[bool, int]]):
    """Union-find trace of a closed crossingless pattern.

    Returns (count, keys, membership, rows).  Rows are counted modulo the slot
    count; with no slots there is a single row of isolated closure strands.
    """
    rows = max(len(slots), 1)
    n = rows * strands
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for t, (is_smooth, k) in enumerate(slots):
        top = t * strands
        bot = ((t + 1) % rows) * strands
        if is_smooth:
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
    keys = tuple(
        (roots[root] // strands, roots[root] % strands + 1) for root in order
    )
    return len(order), keys, membership, rows


def circles(w: Word, assignment: Sequence[int]) -> ResolvedState:
    """Trace the total resolution of ``w`` selected by ``assignment``.

    The assignment carries one bit per crossing, indexed by flat crossing
    order.  Closed loops created inside the word (a cap directly above a cup)
    count as ordinary circles.
    """
    slots = _resolved_slots(w, assignment)
    count, keys, membership, rows = _trace(w.strands, slots)
    return ResolvedState(
        assignment=tuple(assignment),
        count=count,
        keys=keys,
        membership=membership,
        rows=rows,
        strands=w.strands,
    )


def circle_count(w: Word, assignment: Sequence[int]) -> int:
    """Circle count only; cheaper than ``circles`` when labels are not needed."""
    slots = _resolved_slots(w, assignment)
    count, _, _, _ = _trace(w.strands, slots)
    return count
