"""The word problem for the infinite braid group, by handle reduction.

A braid word is a tuple of ``(index, exponent)`` pairs over the standard
generators, where generator ``i`` crosses strands ``i`` and ``i+1``.

A *handle* is a subword  ``s_k^e  u  s_k^-e``  whose interior ``u``
contains no occurrence of generator ``k`` or ``k-1`` (letters with index
``k+1`` or higher, and ``k-2`` or lower, may appear).  Reducing a handle
deletes the two bounding letters and conjugates each interior letter of
index ``k+1``:

    s_(k+1)^d   ->   s_(k+1)^-e  s_k^d  s_(k+1)^e

which is an equality of braids by the braid relation; all other interior
letters commute with the bounding pair and are left alone.

A freely reduced word with no handle is either empty or has all its
lowest-index letters with a common sign, and such a word is never trivial.
So iterated reduction of the leftmost-closing handle decides triviality.
Every reduction sequence terminates, but the step count is capped anyway
and overruns raise rather than guess.

After a handle at ``(open, close)`` is reduced, the search for the next
one resumes at ``open`` instead of at the start of the word.  It finds the
same handle as a full rescan: whether a handle closes at position ``c``
depends only on the letters up to ``c``, the letters before ``open`` did
not change, and none of them closed a handle before the reduction (the
reduced handle closed leftmost).

Two shortcuts run first: a word whose exponents do not sum to zero, or
whose strand permutation is not the identity, is certainly nontrivial.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .limits import DEFAULT_BRAID_STEPS, Budget
from .perms import Permutation, from_adjacent_transpositions
from .words import AlphabetError, Family, Gen, Word, sig

BraidLetter = tuple[int, int]
BraidWord = tuple[BraidLetter, ...]


def braid_word(letters: Iterable[Sequence[int]]) -> BraidWord:
    out = []
    for index, exponent in letters:
        if index < 0:
            raise ValueError(f"braid generator index must be nonnegative: {index}")
        if exponent not in (1, -1):
            raise ValueError(f"braid letter exponent must be +1 or -1: {exponent}")
        out.append((index, exponent))
    return tuple(out)


def word_to_braid(w: Word) -> BraidWord:
    """Reinterpret a word over ``s`` letters as a braid word."""
    for g in w:
        if g.family is not Family.SIGMA:
            raise AlphabetError(f"word_to_braid: non-braid letter {g!r}")
    return tuple((g.index, g.exponent) for g in w)


def braid_to_word(b: BraidWord) -> Word:
    return tuple(sig(i, e) for i, e in b)


def invert_braid(b: BraidWord) -> BraidWord:
    return tuple((i, -e) for i, e in reversed(b))


def free_reduce_braid(b: BraidWord) -> BraidWord:
    out: list[BraidLetter] = []
    for let in b:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def exponent_sum(b: BraidWord) -> int:
    return sum(e for _, e in b)


def permutation_image(b: BraidWord) -> Permutation:
    return from_adjacent_transpositions(i for i, _ in b)


def _leftmost_handle(w: list[BraidLetter], start: int) -> tuple[int, int] | None:
    """The handle with the leftmost closing letter, as (open, close) positions.

    Only closing letters at ``start`` or later are tried; the caller
    knows that no handle closes earlier.  For each closing candidate only
    the nearest earlier letter of the same index matters: a farther opener
    would contain it in its interior.
    """
    for close in range(max(start, 1), len(w)):
        k, f = w[close]
        for open_ in range(close - 1, -1, -1):
            k2, e2 = w[open_]
            if k2 == k:
                if e2 == -f:
                    return open_, close
                break
            if k2 == k - 1:
                break
    return None


def _reduce_handle(w: list[BraidLetter], open_: int, close: int) -> None:
    k, e = w[open_]
    replacement: list[BraidLetter] = []
    for idx, d in w[open_ + 1:close]:
        if idx == k + 1:
            replacement += [(k + 1, -e), (k, d), (k + 1, e)]
        else:
            replacement.append((idx, d))
    w[open_:close + 1] = replacement


def handle_reduce(b: BraidWord, budget: Budget | None = None) -> BraidWord:
    """Fully handle-reduce a braid word; the result is handle free."""
    budget = budget if budget is not None else Budget(DEFAULT_BRAID_STEPS)
    w = list(free_reduce_braid(b))
    start = 0
    while True:
        found = _leftmost_handle(w, start)
        if found is None:
            return tuple(w)
        budget.spend("handle_reduce")
        _reduce_handle(w, *found)
        start = found[0]


def is_trivial_braid(b: BraidWord, budget: Budget | None = None) -> bool:
    """Decide whether a braid word represents the trivial braid."""
    b = free_reduce_braid(b)
    if not b:
        return True
    if exponent_sum(b) != 0:
        return False
    if not permutation_image(b).is_identity():
        return False
    return len(handle_reduce(b, budget)) == 0


def equal_braid(b1: BraidWord, b2: BraidWord, budget: Budget | None = None) -> bool:
    return is_trivial_braid(b1 + invert_braid(b2), budget)
