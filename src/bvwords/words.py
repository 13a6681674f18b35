"""Letters and words for the split-merge group family.

Five letter families appear in this package:

====== ============================================================
token  meaning
====== ============================================================
``l``  positive generators of the tree-splitting monoid; Thompson's
       group F and the hat groups are written over these
``s``  strand permutation / braid generators of the hat groups
``v``  splitting generators of V and BV
``p``  permutation-style generators of V and BV ("pi")
``pb`` the low-strand variants of ``p`` ("pi-bar")
====== ============================================================

A word is a plain tuple of ``Gen`` letters, so concatenation is ``+``
and the empty word is ``()``.  All functions here are pure.

Indices are ordinary Python ints and may grow without bound during
rewriting; nothing in this package assumes a fixed alphabet width.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, NamedTuple, Sequence


class Family(Enum):
    LAMBDA = "l"
    SIGMA = "s"
    V = "v"
    PI = "p"
    PIBAR = "pb"

    # Members are singletons compared by identity; the C-level identity
    # hash keeps set and dict lookups (``check_alphabet``) off the
    # Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Family.{self.name}"


class Gen(NamedTuple):
    """One letter: a family, a nonnegative index, and an exponent of +-1."""

    family: Family
    index: int
    exponent: int = 1

    def inverse(self) -> "Gen":
        return Gen(self.family, self.index, -self.exponent)

    def token(self) -> str:
        mark = "'" if self.exponent < 0 else ""
        return f"{self.family.value}{self.index}{mark}"

    def __repr__(self) -> str:
        return self.token()


Word = tuple[Gen, ...]

EMPTY: Word = ()


class AlphabetError(ValueError):
    """A word contains letters outside the alphabet an operation accepts."""


def _make(family: Family, index: int, exponent: int) -> Gen:
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ValueError(f"letter index must be a nonnegative int, got {index!r}")
    if exponent not in (1, -1):
        raise ValueError(f"letter exponent must be +1 or -1, got {exponent!r}")
    return Gen(family, index, exponent)


def lam(index: int, exponent: int = 1) -> Gen:
    return _make(Family.LAMBDA, index, exponent)


def sig(index: int, exponent: int = 1) -> Gen:
    return _make(Family.SIGMA, index, exponent)


def vgen(index: int, exponent: int = 1) -> Gen:
    return _make(Family.V, index, exponent)


def pi(index: int, exponent: int = 1) -> Gen:
    return _make(Family.PI, index, exponent)


def pibar(index: int, exponent: int = 1) -> Gen:
    return _make(Family.PIBAR, index, exponent)


def word(*gens: Gen) -> Word:
    return tuple(gens)


def check_alphabet(w: Iterable[Gen], families: frozenset[Family] | set[Family], what: str) -> None:
    for g in w:
        if g.family not in families:
            allowed = "/".join(sorted(f.value for f in families))
            raise AlphabetError(f"{what}: letter {g!r} not in alphabet {allowed}")


def free_reduce(w: Iterable[Gen]) -> Word:
    """Cancel adjacent mutually inverse letters until none remain.

    >>> free_reduce((lam(0), lam(3), lam(3, -1), lam(0, -1)))
    ()
    """
    out: list[Gen] = []
    for g in w:
        if out and out[-1].family is g.family and out[-1].index == g.index \
                and out[-1].exponent == -g.exponent:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def invert(w: Sequence[Gen]) -> Word:
    """The group inverse: reverse the word and flip every exponent."""
    return tuple(g.inverse() for g in reversed(w))


def _expansion(g: Gen) -> list[Gen]:
    # Positive-exponent expansions of the v/p/pb letters into l/s letters.
    n = g.index
    if g.family is Family.V:
        return [lam(0)] * (n + 1) + [lam(1)] + [lam(0, -1)] * (n + 2)
    if g.family is Family.PI:
        return [lam(0)] * (n + 2) + [sig(1)] + [lam(0, -1)] * (n + 2)
    if g.family is Family.PIBAR:
        return [lam(0)] * (n + 1) + [sig(0)] + [lam(0, -1)] * (n + 1)
    raise AlphabetError(f"expand_bv_generators: cannot expand {g!r}")


def expand_bv_generators(w: Iterable[Gen]) -> Word:
    """Rewrite a v/p/pb word as the l/s word it abbreviates.

    Each splitting or permuting generator is a conjugate of ``l1``, ``s0``
    or ``s1`` by a power of ``l0``; the result is freely reduced.

    >>> expand_bv_generators((vgen(0),))
    (l0, l1, l0', l0')
    >>> expand_bv_generators((pibar(0),))
    (l0, s0, l0')
    """
    out: list[Gen] = []
    for g in w:
        base = _expansion(g)
        out.extend(base if g.exponent > 0 else invert(base))
    return free_reduce(out)


def random_word(
    rng: random.Random,
    families: Sequence[Family],
    max_index: int,
    max_len: int,
    signed: bool = True,
) -> Word:
    """A uniformly random word, used by the self-test and property suites."""
    length = rng.randint(0, max_len)
    out = []
    for _ in range(length):
        fam = rng.choice(families)
        exp = rng.choice((1, -1)) if signed else 1
        out.append(Gen(fam, rng.randint(0, max_index), exp))
    return tuple(out)
