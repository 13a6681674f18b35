"""Canonical fractions for the hat groups over the l/s alphabet.

The hat groups are the groups of right fractions of a two-sided product
of the tree-splitting monoid with an infinite permutation group (Vhat)
or the infinite braid group (BVhat).  Every word over l/s letters can be
carried to the shape

    (positive l word) (s word) (inverse l word)

by pushing inverse ``l`` letters right and ``s`` letters right past
positive ``l`` letters, using only the defining relations:

    l_m' l_q    ->  l_(q+1) l_m'            (m < q)
    l_m' l_q    ->  l_q l_(m+1)'            (q < m)
    l_m' l_m    ->  (cancel)
    l_m' s_q^e  ->  s_(q+1)^e l_m'          (m < q)
    l_(m+1)' s_m^e -> s_m^e s_(m+1)^e l_m'
    l_m' s_m^e  ->  s_(m+1)^e s_m^e l_(m+1)'
    l_m' s_q^e  ->  s_q^e l_m'              (m > q + 1)

    s_q^e l_m   ->  l_m s_(q+1)^e           (m < q)
    s_m^e l_m   ->  l_(m+1) s_m^e s_(m+1)^e
    s_m^e l_(m+1) -> l_m s_(m+1)^e s_m^e
    s_q^e l_m   ->  l_m s_q^e               (m > q + 1)

The three collected parts are unique for the element: the two l-parts as
monoid normal forms and the middle as an element of the braid group
(BVhat) or of the finite-support permutation group (Vhat, where the sign
of an ``s`` letter is immaterial).  A word is trivial exactly when the
two l-parts agree and the middle is trivial, which reduces the hat-group
word problems to the braid and permutation ones.

Termination of the first phase: the rightmost eligible inverse always has
a positive right neighbour, and every push strictly decreases the number
of positive letters to its right while letters it creates stay on its
left.  For the second phase, each push replaces one ``s`` letter by one
or two whose positive-l-to-the-right counts are strictly smaller, a
well-founded multiset descent.

Both phases are one right-to-left fold, ``thompson_f._fold``, run twice,
that makes the same rewrites, in the same order, as rewriting the
rightmost (first phase) or leftmost (second phase) site each time.  In
the first run the letters right of the one being read are already
(positive letters)(inverse block), so a newly read inverse has its only
site on its right and is carried to the block, or until it cancels,
before anything left of it moves.  The second run reads the first run's
stack, the positive part right to left: the mirror image, where the
letters read are (positive l letters)(s block) and a newly read ``l`` is
carried leftwards through the whole block before any site on its right
is reached.  Read outward from the reader, an ``l`` meets an ``s`` letter
as an inverse does (``s_m^e l_m`` and ``l_m' s_m^e`` both leave ``s_(m+1)^e
s_m^e`` and go on at m + 1), so it makes the same pushes.  One step is
spent per single-letter push, as the rules above count them; each
carried letter's pushes are charged together.

``canonicalize_hat`` builds no letter that it does not return.  One
pass over the input, ``words._reduced_codes``, checks its alphabet and
reads it, freely reduced, into the l/s codes of ``words``; the fold
runs on those codes.  The two l-parts become ``FNormal`` index tuples
and a Vhat middle becomes its ``Permutation`` straight from the codes.  Only a BVhat middle is decoded
back into ``s`` letters, through ``words._letter``, the bounded memo
that handle reduction and ``bv_lmr.m_to_sigma`` share, so a process that
decides many words builds each letter once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .braid import is_trivial_braid
from .limits import Budget
from .perms import Permutation, from_adjacent_transpositions
from .thompson_f import FNormal, _collect_codes, _normal_indices
from .words import (
    _letter,
    _reduced_codes,
    Family,
    Word,
    invert,
    lam,  # for the canonicalize_hat doctest
    sig,
)

_HAT_ALPHABET = frozenset({Family.LAMBDA, Family.SIGMA})


class GroupMode(Enum):
    VHAT = "Vhat"
    BVHAT = "BVhat"


@dataclass(frozen=True)
class HatFraction:
    """The collected shape ``f * beta * g**-1`` of a hat-group element.

    ``beta`` is the middle: a word of ``s`` letters in BVhat, and its
    strand permutation in Vhat.  The constructor checks that the middle's
    type fits the mode, so the methods read ``beta`` as it is.
    """

    f_part: FNormal
    beta: Word | Permutation
    g_part: FNormal
    mode: GroupMode

    def __post_init__(self) -> None:
        _check_mode(self.mode, "HatFraction")
        if self.mode is GroupMode.VHAT:
            if not isinstance(self.beta, Permutation):
                raise TypeError(f"HatFraction: a {self.mode.value} middle must be a Permutation, got {self.beta!r}")
        elif not isinstance(self.beta, tuple):
            raise TypeError(f"HatFraction: a {self.mode.value} middle must be a braid word, got {self.beta!r}")

    def is_trivial(self, budget: Budget | None = None) -> bool:
        if self.f_part != self.g_part:
            return False
        if self.mode is GroupMode.VHAT:
            return self.beta.is_identity()
        return is_trivial_braid(self.beta, budget)

    def to_word(self) -> Word:
        """Reassemble an l/s word representing the same element."""
        if self.mode is GroupMode.VHAT:
            middle: Word = tuple(sig(i) for i in self.beta.adjacent_word())
        else:
            middle = self.beta
        return self.f_part.word() + middle + invert(self.g_part.word())


def _check_mode(mode: object, what: str) -> None:
    if not isinstance(mode, GroupMode):
        raise ValueError(f"{what}: mode must be GroupMode.VHAT or GroupMode.BVHAT, got {mode!r}")


def canonicalize_hat(w: Word, mode: GroupMode, budget: Budget | None = None) -> HatFraction:
    """Collect a word over l/s letters into its canonical fraction.

    >>> canonicalize_hat((sig(0), lam(0)), GroupMode.BVHAT).to_word()
    (l1, s0, s1)
    """
    _check_mode(mode, "canonicalize_hat")
    codes = _reduced_codes(w, _HAT_ALPHABET, "canonicalize_hat")
    budget = budget if budget is not None else Budget()
    positive, middle, negative = _collect_codes(codes, budget, "canonicalize_hat")
    if mode is GroupMode.VHAT:
        beta: Word | Permutation = from_adjacent_transpositions([y >> 2 for y in middle])
    else:
        beta = tuple(map(_letter, middle))
    return HatFraction(
        f_part=FNormal(_normal_indices(positive)),
        beta=beta,
        g_part=FNormal(_normal_indices(negative)),
        mode=mode,
    )


def is_trivial_hat(w: Word, mode: GroupMode, budget: Budget | None = None) -> bool:
    budget = budget if budget is not None else Budget()
    return canonicalize_hat(w, mode, budget).is_trivial(budget)


def equal_hat(w1: Word, w2: Word, mode: GroupMode, budget: Budget | None = None) -> bool:
    return is_trivial_hat(w1 + invert(w2), mode, budget)
