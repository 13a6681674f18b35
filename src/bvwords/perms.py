"""Finitely supported permutations of the naturals.

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

from typing import Iterable

from .words import Family, Word, check_alphabet

_SIGMA = frozenset({Family.SIGMA})


class Permutation:
    """An invertible map on the naturals fixing all but finitely many points."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[int, int] | None = None):
        mapping = mapping or {}
        cleaned = {k: v for k, v in mapping.items() if k != v}
        if set(cleaned.keys()) != set(cleaned.values()):
            raise ValueError(f"mapping is not a finitely supported bijection: {mapping}")
        if any(k < 0 for k in cleaned):
            raise ValueError("permutations act on nonnegative integers only")
        self._map = cleaned

    @classmethod
    def identity(cls) -> "Permutation":
        return cls({})

    @classmethod
    def transposition(cls, i: int, j: int) -> "Permutation":
        if i == j:
            raise ValueError("transposition needs two distinct points")
        return cls({i: j, j: i})

    def apply(self, point: int) -> int:
        return self._map.get(point, point)

    __call__ = apply

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._map))

    def is_identity(self) -> bool:
        return not self._map

    def inverse(self) -> "Permutation":
        return Permutation({v: k for k, v in self._map.items()})

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.apply(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
            out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        if self.is_identity():
            return "Permutation()"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())
        return f"Permutation{body}"

    def adjacent_word(self) -> tuple[int, ...]:
        """Indices ``i1..ik`` with self == t_i1 o t_i2 o ... o t_ik.

        Bubble-sorts the one-line form; each recorded swap multiplies on
        the right, so the recorded list is reversed at the end.
        """
        if self.is_identity():
            return ()
        n = max(self._map) + 1
        line = [self.apply(j) for j in range(n)]
        swaps: list[int] = []
        done = False
        while not done:
            done = True
            for j in range(n - 1):
                if line[j] > line[j + 1]:
                    line[j], line[j + 1] = line[j + 1], line[j]
                    swaps.append(j)
                    done = False
        return tuple(reversed(swaps))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The composite "q first, then p"."""
    points = set(p.support()) | set(q.support())
    return Permutation({x: p.apply(q.apply(x)) for x in points})


def from_adjacent_transpositions(indices: Iterable[int]) -> Permutation:
    """The product ``t_i1 o t_i2 o ... o t_ik`` of adjacent transpositions.

    Works on the one-line form ``line[x] = image(x)``: multiplying on the
    right by ``t_i`` swaps the entries at positions ``i`` and ``i + 1``, so
    each letter costs one swap, and the list grows to ``max(i) + 2``.
    """
    line: list[int] = []
    for i in indices:
        if i < 0:
            raise ValueError("permutations act on nonnegative integers only")
        if i + 2 > len(line):
            line.extend(range(len(line), i + 2))
        line[i], line[i + 1] = line[i + 1], line[i]
    return Permutation({x: y for x, y in enumerate(line) if x != y})


def from_sigma_word(w: Word) -> Permutation:
    """Image of a word of ``s`` letters; exponents are irrelevant."""
    check_alphabet(w, _SIGMA, "from_sigma_word")
    return from_adjacent_transpositions(g.index for g in w)
