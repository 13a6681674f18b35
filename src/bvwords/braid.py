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

The search scans the word once from the left and keeps, for every index
``k``, ``last[k]``: the latest scanned position holding index ``k``.  A
letter at index ``k`` closes a handle exactly when ``last[k]`` is later
than ``last[k-1]`` and holds the opposite exponent, the test the walk
back to the nearest letter of index ``k`` or ``k-1`` would make; a
farther opener would contain that letter in its interior.  Scanning a
position ``p`` records in ``prev[p]`` the value ``last`` had for its index
before, so the scan can be rolled back.

When a handle at ``(open, close)`` is found it is the leftmost-closing
one, since every earlier position was a failed candidate.  ``last`` is
rolled back over positions ``close-1`` down to ``open`` through ``prev``,
which leaves it as it stood before ``open`` was scanned; the handle is
reduced and the scan resumes at ``open``.  This finds the same handle as a
full rescan: whether a handle closes at position ``c`` depends only on the
letters up to ``c``, the letters before ``open`` did not change, and none
of them closed a handle before the reduction.

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


def _reduce_handle(w: list[int], open_: int, close: int) -> None:
    # on codes, adding 2 raises a letter's index by one and ^ 1 inverts it
    raised = w[open_] + 2
    replacement: list[int] = []
    for y in w[open_ + 1:close]:
        if y >> 1 == raised >> 1:
            replacement += [raised ^ 1, y - 2, raised]
        else:
            replacement.append(y)
    w[open_:close + 1] = replacement


def handle_reduce(w: Word, budget: Budget | None = None) -> Word:
    """Fully handle-reduce a braid word; the result is handle free.

    The search runs on int-coded letters ``index << 1 | (exponent < 0)``,
    built once from the freely reduced word and read back into letters at
    the end; a letter's inverse is its code ``^ 1``.
    """
    check_alphabet(w, _BRAID_ALPHABET, "handle_reduce")
    budget = budget if budget is not None else Budget(DEFAULT_BRAID_STEPS)
    codes = [g.index << 1 | (g.exponent < 0) for g in free_reduce(w)]
    # ``check_alphabet`` admits indices >= 0 only, and reductions never
    # raise one; ``last[-1]`` is never written, so it stands for index -1.
    last = [-1] * (max(codes, default=0) // 2 + 2)
    prev: list[int] = []
    pos = 0
    while pos < len(codes):
        x = codes[pos]
        k = x >> 1
        at = last[k]
        if at > last[k - 1] and codes[at] == x ^ 1:
            budget.spend("handle_reduce")
            for p in range(pos - 1, at - 1, -1):
                last[codes[p] >> 1] = prev[p]
            del prev[at:]
            _reduce_handle(codes, at, pos)
            pos = at
        else:
            prev.append(at)
            last[k] = pos
            pos += 1
    return tuple([Gen(Family.SIGMA, x >> 1, 1 - 2 * (x & 1)) for x in codes])


def is_trivial_braid(w: Word, budget: Budget | None = None) -> bool:
    """Decide whether a braid word represents the trivial braid."""
    check_alphabet(w, _BRAID_ALPHABET, "is_trivial_braid")
    if not w:
        return True
    # free reduction keeps the exponent sum and the permutation, and
    # ``handle_reduce`` reduces the word itself
    if exponent_sum(w) != 0:
        return False
    if not from_adjacent_transpositions(g.index for g in w).is_identity():
        return False
    return len(handle_reduce(w, budget)) == 0


def equal_braid(w1: Word, w2: Word, budget: Budget | None = None) -> bool:
    return is_trivial_braid(w1 + invert(w2), budget)
