"""Finitely supported permutations of the naturals, held as one trimmed line.

A permutation is held as its *line*: the tuple whose entry ``x`` is the
image of ``x``, with its trailing fixed points trimmed, so the identity
is the empty tuple and two equal permutations hold the same tuple.  The
module owns the two operations on lines that the package needs, the
swap loop ``_swapped`` and the inverse ``_inverted``; V's strand lines
in ``bv_lmr`` run the same two on plain lists.

The permutation attached to a word of adjacent transpositions follows
function-composition order: in ``from_sigma_word(w)`` the *rightmost*
letter acts on a point first, so the image map is multiplicative,

    image(w1 + w2) == compose(image(w1), image(w2)),

with ``compose(p, q)`` meaning "apply q, then p".  This is the unique
convention under which the index moved by commuting a splitting letter
across a permutation word equals the word's image of that index (the
cross-checks live in the split-group test suite).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .limits import MAX_INDEX
from .words import Family, Word, check_alphabet

_SIGMA = frozenset({Family.SIGMA})


def _swapped(line: list[int], codes: Iterable[int], shift: int) -> list[int]:
    """Multiply ``line`` on the right by ``t_i``, ``i = code >> shift``,
    for each code in turn, in place: each swaps the entries at positions
    i and i + 1, and every i must lie below ``len(line) - 1``.  Indices
    come with shift 0, and V's letter codes ``index << 3 | kind`` with 3,
    so neither caller copies its letters to shift them."""
    for x in codes:
        i = x >> shift
        line[i], line[i + 1] = line[i + 1], line[i]
    return line


def _inverted(line: Sequence[int]) -> list[int]:
    """The inverse of a line: ``inv[line[y]] == y``."""
    inv = [0] * len(line)
    for y, z in enumerate(line):
        inv[z] = y
    return inv


class Permutation:
    """An invertible map on the naturals fixing all but finitely many points."""

    __slots__ = ("_line",)

    def __init__(self, mapping: dict[int, int] | None = None):
        cleaned = {k: v for k, v in (mapping or {}).items() if k != v}
        if set(cleaned.keys()) != set(cleaned.values()):
            raise ValueError(f"mapping is not a finitely supported bijection: {mapping}")
        if any(k < 0 for k in cleaned):
            raise ValueError("permutations act on nonnegative integers only")
        # the line grows to the largest moved point: bound it before allocating
        if any(k > MAX_INDEX + 1 for k in cleaned):
            raise ValueError(f"permutations move no point above {MAX_INDEX + 1}")
        self._line = tuple(cleaned.get(x, x) for x in range(max(cleaned, default=-1) + 1))

    @classmethod
    def _of_line(cls, line: list[int]) -> "Permutation":
        """The permutation of a line, trimming its trailing fixed points."""
        while line and line[-1] == len(line) - 1:
            line.pop()
        p = cls.__new__(cls)
        p._line = tuple(line)
        return p

    @classmethod
    def identity(cls) -> "Permutation":
        return cls({})

    @classmethod
    def transposition(cls, i: int, j: int) -> "Permutation":
        if i == j:
            raise ValueError("transposition needs two distinct points")
        return cls({i: j, j: i})

    def apply(self, point: int) -> int:
        line = self._line
        return line[point] if 0 <= point < len(line) else point

    __call__ = apply

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, y in enumerate(self._line) if x != y)

    def is_identity(self) -> bool:
        return not self._line

    def inverse(self) -> "Permutation":
        return Permutation._of_line(_inverted(self._line))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._line == other._line

    def __hash__(self) -> int:
        return hash(self._line)

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        line = self._line
        for start in self.support():
            if start in seen:
                continue
            cyc = [start]
            while line[cyc[-1]] != start:
                cyc.append(line[cyc[-1]])
            seen.update(cyc)
            out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        if self.is_identity():
            return "Permutation()"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())
        return f"Permutation{body}"

    def adjacent_word(self) -> tuple[int, ...]:
        """Indices ``i1..ik`` with self == t_i1 o t_i2 o ... o t_ik.

        Bubble-sorts the line; each recorded swap multiplies on the right,
        so the recorded list is reversed at the end.
        """
        line = list(self._line)
        swaps: list[int] = []
        done = False
        while not done:
            done = True
            for j in range(len(line) - 1):
                if line[j] > line[j + 1]:
                    line[j], line[j + 1] = line[j + 1], line[j]
                    swaps.append(j)
                    done = False
        return tuple(reversed(swaps))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The composite "q first, then p"."""
    return Permutation._of_line([p.apply(q.apply(x)) for x in range(max(len(p._line), len(q._line)))])


def from_adjacent_transpositions(indices: Iterable[int]) -> Permutation:
    """The product ``t_i1 o t_i2 o ... o t_ik`` of adjacent transpositions.

    Runs the swap loop on the line ``range(max(i) + 2)``: multiplying on
    the right by ``t_i`` swaps the entries at positions ``i`` and
    ``i + 1``, so each letter costs one swap.
    """
    indices = list(indices)
    if min(indices, default=0) < 0:
        raise ValueError("permutations act on nonnegative integers only")
    return Permutation._of_line(_swapped(list(range(max(indices, default=-2) + 2)), indices, 0))


def from_sigma_word(w: Word) -> Permutation:
    """Image of a word of ``s`` letters; exponents are irrelevant."""
    check_alphabet(w, _SIGMA, "from_sigma_word")
    return from_adjacent_transpositions(g.index for g in w)
