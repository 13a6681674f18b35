"""Thompson's group F via the tree-splitting monoid.

The positive letters ``l0, l1, l2, ...`` generate a monoid subject only to

    l_q l_m  =  l_m l_(q+1)      whenever m < q,

and every positive word has a unique equivalent word whose indices are
nondecreasing left to right.  ``FNormal`` stores that index sequence.
Rewriting is length preserving, and each application of the rule above
strictly decreases the index sequence in the lexicographic well-order on
fixed-length tuples of naturals, so any application order terminates.

F itself is the group of right fractions of the monoid: every group word
equals ``P * N**-1`` with ``P``, ``N`` positive, so two normal forms decide
the word problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    AlphabetError,
    Family,
    Gen,
    Word,
    check_alphabet,
    free_reduce,
    invert,
    lam,
)

_LAMBDA_ONLY = frozenset({Family.LAMBDA})


@dataclass(frozen=True)
class FNormal:
    """A monoid normal form: a nondecreasing tuple of letter indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a > b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"normal form indices must be nondecreasing: {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)

    def word(self) -> Word:
        return tuple(lam(i) for i in self.indices)


def normalize_monoid(w: Word) -> FNormal:
    """Normal form of a positive word.

    Works like an insertion sort: each letter bubbles left past larger
    indices, incrementing every index it passes.

    >>> normalize_monoid((lam(3), lam(1)))
    FNormal(indices=(1, 4))
    """
    check_alphabet(w, _LAMBDA_ONLY, "normalize_monoid")
    if any(g.exponent < 0 for g in w):
        raise AlphabetError("normalize_monoid: word must be positive")
    out: list[int] = []
    for g in w:
        i = g.index
        pos = len(out)
        while pos > 0 and out[pos - 1] > i:
            pos -= 1
        out[pos:] = [i] + [x + 1 for x in out[pos:]]
    return FNormal(tuple(out))


def f_fraction(w: Word) -> tuple[FNormal, FNormal]:
    """Split an arbitrary word over ``l`` letters into a fraction (P, N).

    The element of F represented by ``w`` equals ``P * N**-1``.  Inverse
    letters are pushed to the right end, rightmost first:

        l_m' l_q  ->  l_(q+1) l_m'   (m < q)
        l_m' l_q  ->  l_q l_(m+1)'   (q < m)
        l_m' l_m  ->  (cancel)

    Each push moves one inverse past one positive letter, so the total
    number of (inverse, positive-to-its-right) pairs strictly decreases.

    After a push the search resumes at the pushed inverse's new position,
    or just before the site after a cancellation, and finds the same site
    a full rescan would: no site lay right of the old one, and the letters
    right of the rewritten pair are unchanged.

    >>> p, n = f_fraction((lam(2, -1), lam(0)))
    >>> (p.indices, n.indices)
    ((0,), (3,))
    """
    check_alphabet(w, _LAMBDA_ONLY, "f_fraction")
    letters = list(free_reduce(w))
    resume = len(letters) - 2
    while True:
        site = None
        for p in range(min(resume, len(letters) - 2), -1, -1):
            if letters[p].exponent < 0 and letters[p + 1].exponent > 0:
                site = p
                break
        if site is None:
            break
        m = letters[site].index
        q = letters[site + 1].index
        if m == q:
            del letters[site:site + 2]
        elif m < q:
            letters[site:site + 2] = [lam(q + 1), lam(m, -1)]
        else:
            letters[site:site + 2] = [lam(q), lam(m + 1, -1)]
        resume = site - 1 if m == q else site + 1
    cut = next((i for i, g in enumerate(letters) if g.exponent < 0), len(letters))
    positive = tuple(letters[:cut])
    negative = tuple(letters[cut:])
    return normalize_monoid(positive), normalize_monoid(invert(negative))


def is_trivial_f(w: Word) -> bool:
    """Decide the word problem of F: trivial iff both fraction parts match."""
    p, n = f_fraction(w)
    return p == n


def equal_f(w1: Word, w2: Word) -> bool:
    return is_trivial_f(w1 + invert(w2))
