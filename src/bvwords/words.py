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

``GroupId`` names the seven groups; ``FamilySpec`` is the record of the
one relation table, whose v/p/pb rows ``bv_lmr`` writes.

Indices are ordinary Python ints and may grow without bound during
rewriting; nothing in this package assumes a fixed alphabet width.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence


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


# The l/s code of a letter is ``index << 2 | kind``, with the kind
# ``_KIND[family] - exponent`` (0 ``l``, 2 ``l'``, 1 ``s``, 3 ``s'``) and the
# family ``_FAMILY[kind & 1]``: ``x ^ 2`` inverts, ``x + 4`` raises the index
# and ``x >> 2`` reads it.  The hat folds and handle reduction run on it.
_KIND = {Family.LAMBDA: 1, Family.SIGMA: 2}
_FAMILY = (Family.LAMBDA, Family.SIGMA)


# the size of the letter memo ``_letter`` and of each code memo of
# ``_reduced_codes``
_MEMO_CAP = 1 << 12


@functools.lru_cache(maxsize=_MEMO_CAP)
def _letter(x: int) -> Gen:
    """The l/s letter of one code.  The memo is bounded and holds letters
    only, so a process that decides many words builds each letter once."""
    return Gen(_FAMILY[x & 1], x >> 2, 1 - (x & 2))


EMPTY: Word = ()


class AlphabetError(ValueError):
    """A word contains letters outside the alphabet an operation accepts."""


class GroupId(Enum):
    F = "F"
    VHAT = "Vhat"
    BVHAT = "BVhat"
    V = "V"
    BV = "BV"
    SINF = "Sinf"
    BINF = "Binf"

    def __repr__(self) -> str:
        return f"GroupId.{self.name}"


@dataclass(frozen=True)
class FamilySpec:
    """One defining relation family and the groups it holds in."""

    fam_id: str
    groups: tuple[GroupId, ...]
    nparams: int
    condition: Callable[..., bool]           # (*indices) -> bool
    build: Callable[..., tuple[Word, Word]]  # (*indices, exponent) -> (lhs, rhs)
    signed: tuple[GroupId, ...] = ()  # groups where the exponent runs over +-1

    @property
    def v_only(self) -> bool:
        return self.groups == (GroupId.V,)

    @property
    def takes_exponent(self) -> bool:
        return bool(self.signed)

    def exponents(self, group: GroupId) -> tuple[int, ...]:
        return (1, -1) if group in self.signed else (1,)

    def sides(self, indices: tuple[int, ...], exponent: int = 1) -> tuple[Word, Word]:
        """The two sides of one instance, its indices and exponent checked."""
        if len(indices) != self.nparams:
            raise ValueError(f"{self.fam_id} takes {self.nparams} indices, got {indices}")
        if not self.condition(*indices):
            raise ValueError(f"{self.fam_id}{indices}: side condition violated")
        if exponent not in (1, -1) or (exponent == -1 and not self.takes_exponent):
            raise ValueError(f"{self.fam_id}: bad exponent {exponent}")
        return self.build(*indices, exponent)


_TRUE = lambda *indices: True  # the side condition of a family with none


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
    """Reject a letter outside ``families``, or with an exponent other than
    +-1 or a negative index, before any rewriting sees it."""
    for g in w:
        if g.family not in families:
            allowed = "/".join(sorted(f.value for f in families))
            raise AlphabetError(f"{what}: letter {g!r} not in alphabet {allowed}")
        if g.exponent not in (1, -1) or g.index < 0:
            raise AlphabetError(f"{what}: malformed letter {tuple(g)!r}")


# alphabet -> {letter: l/s code}, for the letters ``_reduced_codes`` has
# read and checked against that alphabet; each memo is emptied when it
# reaches ``_MEMO_CAP``, so it holds at most that many letters
_CODE_MEMOS: dict[frozenset[Family], dict[Gen, int]] = {}


def _reduced_codes(w: Word, families: frozenset[Family], what: str) -> list[int]:
    """The l/s codes of ``free_reduce(w)``, with the alphabet of ``w``
    checked as ``check_alphabet(w, families, what)`` checks it, in one
    pass.  The one reader of l/s words: the F fraction, the hat folds and
    the braid deciders all start here.

    A letter is checked and coded once per alphabet, then read from that
    alphabet's bounded memo; a letter the check rejects is never stored,
    so it raises the same error on every read."""
    memo = _CODE_MEMOS.get(families)
    if memo is None:
        memo = _CODE_MEMOS[families] = {}
    codes: list[int] = []
    for g in w:
        x = memo.get(g)
        if x is None:
            family, i, e = g
            if family not in families or e not in (1, -1) or i < 0:
                check_alphabet((g,), families, what)
            x = i << 2 | (_KIND[family] - e)
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[g] = x
        if codes and codes[-1] == x ^ 2:
            codes.pop()
        else:
            codes.append(x)
    return codes


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


_BV_ALPHABET = frozenset({Family.V, Family.PI, Family.PIBAR})


_L0, _L0_INV = Gen(Family.LAMBDA, 0, 1), Gen(Family.LAMBDA, 0, -1)
# the core letters of the expansion; core ``c ^ 1`` is the inverse of ``c``
_CORES = (
    Gen(Family.LAMBDA, 1, 1), Gen(Family.LAMBDA, 1, -1),
    Gen(Family.SIGMA, 1, 1), Gen(Family.SIGMA, 1, -1),
    Gen(Family.SIGMA, 0, 1), Gen(Family.SIGMA, 0, -1),
)
# family -> (a, b, c) for the expansion l0^(n+a) c l0'^(n+b) of the
# letter of index n; its inverse expands to l0^(n+b) c' l0'^(n+a)
_EXPANSION = {Family.V: (1, 2, 0), Family.PI: (2, 2, 2), Family.PIBAR: (1, 1, 4)}


def expand_bv_generators(w: Word) -> Word:
    """Rewrite a v/p/pb word as the l/s word it abbreviates.

    Each splitting or permuting generator is a conjugate of ``l1``, ``s0``
    or ``s1`` by a power of ``l0``; the result is freely reduced.

    >>> expand_bv_generators((vgen(0),))
    (l0, l1, l0', l0')
    >>> expand_bv_generators((pibar(0),))
    (l0, s0, l0')

    The expansion is reduced as it is built, in run-length form: a stack
    of (net power of ``l0`` before it, core) pairs and the net power of
    ``l0`` after the last core.  In the full expansion a core is never
    ``l0`` or ``l0'``, so the only cancellations are of ``l0`` against
    ``l0'``, which merging a power into the running one makes, and of a
    core against its inverse, which meet exactly when the net power
    between them is 0.  The stack is therefore always a freely reduced
    word, and since free reduction ends in the same word whatever order
    it cancels in, the result is ``free_reduce`` of the full expansion.
    Popping a cancelled core restores the power before it as the running
    one, so cancellations cascade back through earlier cores.
    """
    check_alphabet(w, _BV_ALPHABET, "expand_bv_generators")
    stack: list[tuple[int, int]] = []
    power = 0
    for family, n, e in w:
        a, b, core = _EXPANSION[family]
        if e < 0:
            a, b, core = b, a, core ^ 1
        power += n + a
        if not power and stack and stack[-1][1] == core ^ 1:
            power = stack.pop()[0]
        else:
            stack.append((power, core))
            power = 0
        power -= n + b
    out: list[Gen] = []
    for before, core in stack:
        out += [_L0] * before
        out += [_L0_INV] * -before
        out.append(_CORES[core])
    out += [_L0] * power
    out += [_L0_INV] * -power
    return tuple(out)


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
