"""The word problem for the infinite braid group, by handle reduction and
by Dynnikov coordinates.

A braid word is a word of ``s`` letters, where ``s_i`` crosses strands
``i`` and ``i+1``.  Two deciders share one reader and two shortcuts:
``is_trivial_braid`` ends in handle reduction, which also gives the
normal form ``handle_reduce``, and ``is_trivial_braid_by_coordinates``
ends in the Dynnikov action, a fixed number of integer operations per
letter.  The hat route and ``Binf`` use the first, the left-middle-right
route of ``bv_lmr`` the second, so the two V/BV routes also check two
independent braid algorithms against each other.

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
one, since every earlier position was a failed candidate.  Its opener is
marked deleted in place and ``last[k]`` takes the value ``prev[open]`` it
held before ``open`` was scanned.  Let ``first`` be the first interior
letter of index ``k+1``.  ``last`` is rolled back over positions
``close-1`` down to ``first`` through ``prev``, which leaves it as it
stood before ``first`` was scanned, with the opener gone; the interior
from ``first`` on is reduced, the closer dropped, and the scan resumes at
``first``.  This finds the same handles as a full rescan from ``open``:
whether a handle closes at position ``c`` depends only on the letters up
to ``c``, the letters before ``open`` did not change, and none of them
closed a handle before the reduction.  The interior letters before
``first`` did not change either, and they have indices outside
``k-1..k+1``: whether a letter of index ``j`` closes a handle depends on
the earlier letters of index ``j`` and ``j-1`` only, and the deleted
opener is neither, so they fail as they did before.

Most handles *commute*: their interior holds no letter of index ``k+1``
either, which ``last[k+1] < open`` tells at once, and reducing one only
deletes its two bounding letters.  Those are cancelled in place: the
closer is marked deleted as well, and the scan goes on at ``close + 1``
with no rollback, since by the argument above no interior letter closes
a handle now that failed before.  ``last`` then stands as a scan of the
word without the pair would leave it, so the sequence of leftmost-closing
handles is the full rescan's.  A deleted letter keeps its place in the
list until a later splice over it or the final readout drops it; a
rollback over it writes only a spare slot of ``last``.

The braid group acts faithfully by piecewise-linear maps on the integer
coordinates ``(a_i, b_i)`` of laminations of the punctured disc, and a
braid is trivial exactly when it fixes the coordinates ``(0, 1)^n`` (I.
Dynnikov, "On a Yang-Baxter map and the Dehornoy ordering", Russian Math.
Surveys 57, 2002; the rules as in P. Dehornoy, "Efficient solutions to
the braid isotopy problem", Discrete Appl. Math. 156, 2008).  Every
``s_j`` is shifted up one coordinate pair, so that it moves pairs ``j``
and ``j + 1`` by the rule of an interior generator; the shift embeds the
braid group, so no boundary rule is needed.

Two shortcuts run first: a word whose exponents do not sum to zero, or
whose freely reduced strand permutation is not the identity, is certainly
nontrivial.  Both read the codes of ``words._reduced_codes``, which
checks the alphabet and freely reduces in one pass.  An index above
``limits.MAX_INDEX`` is rejected there too, before the permutation,
``last`` or the coordinates allocate in proportion to it.
"""

from __future__ import annotations

from .limits import DEFAULT_BRAID_STEPS, MAX_INDEX, Budget
from .perms import from_adjacent_transpositions
from .words import _letter, _reduced_codes, AlphabetError, Family, Word, invert

_BRAID_ALPHABET = frozenset({Family.SIGMA})
# the largest code of an index at most ``limits.MAX_INDEX``
_MAX_CODE = MAX_INDEX << 2 | 3


# A deleted letter's code.  Its index, ``-8 >> 2 == -2``, names the spare
# slot ``last[-2]``, so a rollback over it writes nothing that is read.
_DELETED = -8


def _braid_codes(w: Word, what: str) -> list[int]:
    """The freely reduced codes of a braid word, its alphabet checked and
    every index at most ``limits.MAX_INDEX``."""
    codes = _reduced_codes(w, _BRAID_ALPHABET, what)
    if codes and max(codes) > _MAX_CODE:
        raise AlphabetError(f"{what}: letter index {max(codes) >> 2} above {MAX_INDEX}")
    return codes


def _shortcut(w: Word, what: str) -> tuple[bool | None, list[int]]:
    """Read a braid word into its freely reduced codes and try the cheap
    verdicts: an empty reduction is trivial, and a word whose exponents do
    not sum to zero, or whose strand permutation moves a strand, is not.
    Free reduction cancels letters in pairs of opposite exponent, so the
    sum is read off the codes.  The verdict is None if neither decides."""
    codes = _braid_codes(w, what)
    if not codes:
        return True, codes
    if sum([1 - (x & 2) for x in codes]):
        return False, codes
    if not from_adjacent_transpositions([x >> 2 for x in codes]).is_identity():
        return False, codes
    return None, codes


def _decode(codes: list[int]) -> Word:
    """The ``s`` letters of the live codes, from the ``words._letter``
    memo; deleted ones are dropped."""
    return tuple(map(_letter, [x for x in codes if x >= 0]))


def _reduce_handle(w: list[int], opener: int, first: int, close: int) -> None:
    # the interior from ``first`` on, conjugated by the opener's code, and
    # the closer: on codes, adding 4 raises a letter's index by one and ^ 2
    # inverts it; deleted letters there are dropped with the closer
    raised = opener + 4
    replacement: list[int] = []
    for y in w[first:close]:
        if y >> 2 == raised >> 2:
            replacement += [raised ^ 2, y - 4, raised]
        elif y >= 0:
            replacement.append(y)
    w[first:close + 1] = replacement


def handle_reduce(w: Word, budget: Budget | None = None) -> Word:
    """Fully handle-reduce a braid word; the result is handle free.

    The word is read once, freely reduced, into its l/s codes (``s_i`` is
    ``i << 2 | 1``, ``s_i'`` is ``i << 2 | 3``, an inverse is ``^ 2``),
    and scanned from the left.  A handle's opener is marked deleted in
    place.  A commuting handle's closer is too, and the scan goes on past
    it.  Any other handle is spliced by ``_reduce_handle`` from its first
    interior letter of index k+1, which also drops the deleted letters
    from there on, and the scan resumes at that letter.  The readout drops
    the deleted letters left over.
    """
    codes = _braid_codes(w, "handle_reduce")
    budget = budget if budget is not None else Budget(DEFAULT_BRAID_STEPS)
    # the reader admits indices >= 0 only, and reductions never raise
    # one.  ``last`` has a slot per index up to the largest plus one,
    # which stays -1 for the commuting test at the top index; then the
    # spare slot ``last[-2]`` of deleted letters, and ``last[-1]``, never
    # written, which stands for index -1.
    last = [-1] * (max(codes, default=0) // 4 + 4)
    prev: list[int] = []
    pos, end = 0, len(codes)
    while pos < end:
        x = codes[pos]
        k = x >> 2
        at = last[k]
        if at > last[k - 1] and codes[at] == x ^ 2:
            budget.spend("handle_reduce")
            codes[at] = _DELETED
            last[k] = prev[at]
            first = last[k + 1]
            if first < at:          # commuting: cancel the pair in place
                codes[pos] = _DELETED
                prev.append(-1)     # keeps prev[p] at position p
                pos += 1
                continue
            # the interior letters of index k+1 are chained through prev
            while prev[first] > at:
                first = prev[first]
            for p in range(pos - 1, first - 1, -1):
                last[codes[p] >> 2] = prev[p]
            del prev[first:]
            _reduce_handle(codes, x ^ 2, first, pos)
            pos, end = first, len(codes)
        else:
            prev.append(at)
            last[k] = pos
            pos += 1
    return _decode(codes)


def is_trivial_braid(w: Word, budget: Budget | None = None) -> bool:
    """Decide whether a braid word represents the trivial braid, by the
    shortcuts and then handle reduction.

    ``handle_reduce`` gets the freely reduced word, in which its own free
    reduction cancels nothing.
    """
    verdict, codes = _shortcut(w, "is_trivial_braid")
    if verdict is not None:
        return verdict
    return len(handle_reduce(_decode(codes), budget)) == 0


def is_trivial_braid_by_coordinates(w: Word, budget: Budget | None = None) -> bool:
    """Decide whether a braid word represents the trivial braid, by the
    shortcuts and then the Dynnikov action on ``(0, 1)^n``.

    The coordinates are two flat lists, ``a`` and ``b``, with one pair per
    index up to the largest plus one; ``s_j`` moves pairs ``j`` and
    ``j + 1``.  ``s_j'`` acts as ``s_j`` conjugated by the map that negates
    every ``a``, so one rule serves both exponents ``e``: it reads and
    writes ``e * a``.  The action is charged as one block of a step per
    letter before it starts.
    """
    verdict, codes = _shortcut(w, "is_trivial_braid_by_coordinates")
    if verdict is not None:
        return verdict
    budget = budget if budget is not None else Budget(DEFAULT_BRAID_STEPS)
    budget.spend("braid_coordinates", len(codes))
    pairs = max(codes) // 4 + 2
    a, b = [0] * pairs, [1] * pairs
    for x in codes:
        j = x >> 2
        k = j + 1
        e = 1 - (x & 2)
        a0, b0, a1, b1 = a[j] * e, b[j], a[k] * e, b[k]
        # the rule of s_j, with t = a0 - min(b0, 0) - a1 + max(b1, 0):
        #   a0' = a0 + max(b0, 0) + max(max(b1, 0) - t, 0),  b0' = b1 - max(t, 0)
        #   a1' = a1 + min(b1, 0) + min(min(b0, 0) + t, 0),  b1' = b0 + max(t, 0)
        t = a0 - a1
        if b0 < 0:
            t -= b0
        if b1 > 0:
            t += b1
            u = b1 - t
        else:
            u = -t
        v = (b0 if b0 < 0 else 0) + t
        a[j] = (a0 + (b0 if b0 > 0 else 0) + (u if u > 0 else 0)) * e
        a[k] = (a1 + (b1 if b1 < 0 else 0) + (v if v < 0 else 0)) * e
        if t > 0:
            b[j], b[k] = b1 - t, b0 + t
        else:
            b[j], b[k] = b1, b0
    return a == [0] * pairs and b == [1] * pairs


def equal_braid(w1: Word, w2: Word, budget: Budget | None = None) -> bool:
    return is_trivial_braid(w1 + invert(w2), budget)
