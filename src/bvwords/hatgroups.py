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

Both phases are single passes (``thompson_f.collect_fraction``) that
make the same rewrites, in the same order, as rewriting the rightmost
(first phase) or leftmost (second phase) site of the whole word each
time.  The first phase is rightmost-first, so it is a right-to-left
fold: the letters right of the one being read are already (positive
letters)(inverse block), so a newly read inverse has its only site on
its right and is carried to the block, or until it cancels, before
anything left of it moves.  The second phase is a left-to-right fold
over the positive letters: the letters read so far are (positive l
letters)(s block), and a newly read positive ``l`` is carried leftwards
through the whole ``s`` block before any site on its right is reached.
Each ``s`` letter's push is a function of its own index and the ``l``
index it meets, so the new block is the concatenation of the per-letter
results.  One step is spent per single-letter push, as the rules above
count them; each carried letter's pushes are charged together.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .braid import BraidWord, braid_to_word, is_trivial_braid
from .limits import Budget
from .perms import Permutation, from_adjacent_transpositions
from .thompson_f import FNormal, collect_fraction, normalize_monoid
from .words import (
    Family,
    Gen,
    Word,
    check_alphabet,
    free_reduce,
    invert,
    lam,
    sig,
)

_HAT_ALPHABET = frozenset({Family.LAMBDA, Family.SIGMA})


class GroupMode(Enum):
    VHAT = "Vhat"
    BVHAT = "BVhat"


def push_sigma_past_lambda(s: Gen, l: Gen) -> Word:
    """Rewrite the two-letter word ``s l`` with the ``l`` letter first."""
    if s.family is not Family.SIGMA or l.family is not Family.LAMBDA or l.exponent < 0:
        raise ValueError(f"push_sigma_past_lambda: want (s letter, positive l letter), got ({s!r}, {l!r})")
    q, e, m = s.index, s.exponent, l.index
    if m < q:
        return (lam(m), sig(q + 1, e))
    if m == q:
        return (lam(m + 1), sig(m, e), sig(m + 1, e))
    if m == q + 1:
        return (lam(q), sig(q + 1, e), sig(q, e))
    return (lam(m), sig(q, e))


def push_lambda_inverse_right(linv: Gen, x: Gen) -> Word:
    """Rewrite the two-letter word ``linv x`` with the inverse letter last."""
    if linv.family is not Family.LAMBDA or linv.exponent > 0:
        raise ValueError(f"push_lambda_inverse_right: first letter must be an inverse l, got {linv!r}")
    m = linv.index
    if x.family is Family.LAMBDA and x.exponent > 0:
        q = x.index
        if m == q:
            return ()
        if m < q:
            return (lam(q + 1), lam(m, -1))
        return (lam(q), lam(m + 1, -1))
    if x.family is Family.SIGMA:
        q, e = x.index, x.exponent
        if m < q:
            return (sig(q + 1, e), lam(m, -1))
        if m == q + 1:
            return (sig(q, e), sig(q + 1, e), lam(q, -1))
        if m == q:
            return (sig(m + 1, e), sig(m, e), lam(m + 1, -1))
        return (sig(q, e), lam(m, -1))
    raise ValueError(f"push_lambda_inverse_right: cannot push past {x!r}")


@dataclass(frozen=True)
class HatFraction:
    """The collected shape ``f * beta * g**-1`` of a hat-group element."""

    f_part: FNormal
    beta: BraidWord | Permutation
    g_part: FNormal
    mode: GroupMode

    def is_trivial(self, budget: Budget | None = None) -> bool:
        if self.f_part != self.g_part:
            return False
        if self.mode is GroupMode.VHAT:
            return self._permutation().is_identity()
        return is_trivial_braid(self._braid(), budget)

    def to_word(self) -> Word:
        """Reassemble an l/s word representing the same element."""
        if self.mode is GroupMode.VHAT:
            middle: Word = tuple(sig(i) for i in self._permutation().adjacent_word())
        else:
            middle = braid_to_word(self._braid())
        return self.f_part.word() + middle + invert(self.g_part.word())

    def _permutation(self) -> Permutation:
        if not isinstance(self.beta, Permutation):
            raise TypeError(f"HatFraction: a {self.mode.value} middle must be a Permutation, got {self.beta!r}")
        return self.beta

    def _braid(self) -> BraidWord:
        if not isinstance(self.beta, tuple):
            raise TypeError(f"HatFraction: a {self.mode.value} middle must be a braid word, got {self.beta!r}")
        return self.beta


def _is_positive(g: Gen) -> bool:
    return g.family is Family.SIGMA or g.exponent > 0


def canonicalize_hat(w: Word, mode: GroupMode, budget: Budget | None = None) -> HatFraction:
    """Collect a word over l/s letters into its canonical fraction.

    >>> canonicalize_hat((sig(0), lam(0)), GroupMode.BVHAT).to_word()
    (l1, s0, s1)
    """
    check_alphabet(w, _HAT_ALPHABET, "canonicalize_hat")
    budget = budget if budget is not None else Budget()
    positive, middle, negative = collect_fraction(free_reduce(w), budget, "canonicalize_hat")
    beta: BraidWord | Permutation
    if mode is GroupMode.VHAT:
        beta = from_adjacent_transpositions([i for i, _ in middle])
    else:
        beta = middle
    return HatFraction(
        f_part=normalize_monoid(positive),
        beta=beta,
        g_part=normalize_monoid(negative),
        mode=mode,
    )


def is_trivial_hat(w: Word, mode: GroupMode, budget: Budget | None = None) -> bool:
    budget = budget if budget is not None else Budget()
    return canonicalize_hat(w, mode, budget).is_trivial(budget)


def equal_hat(w1: Word, w2: Word, mode: GroupMode, budget: Budget | None = None) -> bool:
    return is_trivial_hat(w1 + invert(w2), mode, budget)
