"""The word problem for the infinite braid group, by handle reduction.

A braid word is a word of ``s`` letters, where ``s_i`` crosses strands
``i`` and ``i+1``.

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

from .limits import DEFAULT_BRAID_STEPS, Budget
from .perms import from_adjacent_transpositions
from .words import Family, Gen, Word, check_alphabet, free_reduce, invert

_BRAID_ALPHABET = frozenset({Family.SIGMA})


def exponent_sum(w: Word) -> int:
    return sum(g.exponent for g in w)


def _leftmost_handle(w: list[tuple[int, int]], start: int) -> tuple[int, int] | None:
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


def _reduce_handle(w: list[tuple[int, int]], open_: int, close: int) -> None:
    k, e = w[open_]
    replacement: list[tuple[int, int]] = []
    for idx, d in w[open_ + 1:close]:
        if idx == k + 1:
            replacement += [(k + 1, -e), (k, d), (k + 1, e)]
        else:
            replacement.append((idx, d))
    w[open_:close + 1] = replacement


def handle_reduce(w: Word, budget: Budget | None = None) -> Word:
    """Fully handle-reduce a braid word; the result is handle free.

    The search runs on a list of ``(index, exponent)`` pairs, built once
    from the freely reduced word and read back into letters at the end.
    """
    check_alphabet(w, _BRAID_ALPHABET, "handle_reduce")
    budget = budget if budget is not None else Budget(DEFAULT_BRAID_STEPS)
    pairs = [(g.index, g.exponent) for g in free_reduce(w)]
    start = 0
    while True:
        found = _leftmost_handle(pairs, start)
        if found is None:
            return tuple(Gen(Family.SIGMA, i, e) for i, e in pairs)
        budget.spend("handle_reduce")
        _reduce_handle(pairs, *found)
        start = found[0]


def is_trivial_braid(w: Word, budget: Budget | None = None) -> bool:
    """Decide whether a braid word represents the trivial braid."""
    check_alphabet(w, _BRAID_ALPHABET, "is_trivial_braid")
    w = free_reduce(w)
    if not w:
        return True
    if exponent_sum(w) != 0:
        return False
    if not from_adjacent_transpositions(g.index for g in w).is_identity():
        return False
    return len(handle_reduce(w, budget)) == 0


def equal_braid(w1: Word, w2: Word, budget: Budget | None = None) -> bool:
    return is_trivial_braid(w1 + invert(w2), budget)
