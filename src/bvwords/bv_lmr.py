"""The left-middle-right calculus for V and BV over v/p/pb letters.

V and BV are presented on splitting letters ``v_n`` and permuting letters
``p_n`` (``pi``), ``pb_n`` (``pi-bar``) by the families below, the v/p/pb
rows of the one relation table; V adds the involution families.

    vv-shift     v_q v_m        = v_m v_(q+1)          (m < q)
    pv-shift     p_q v_m        = v_m p_(q+1)          (m < q)
    pv-split     p_m^e v_m      = v_(m+1) p_m^e p_(m+1)^e
    pv-far       p_q v_m        = v_m p_q              (m > q + 1)
    pbv-shift    pb_q v_m       = v_m pb_(q+1)         (m < q)
    pbv-absorb   pb_m^e v_m     = p_m^e pb_(m+1)^e
    pp-far       p_q p_m        = p_m p_q              (|m - q| >= 2)
    pp-braid     p_m p_(m+1) p_m = p_(m+1) p_m p_(m+1)
    pbp-far      pb_q p_m       = p_m pb_q             (q >= m + 2)
    pb-braid     p_m pb_(m+1) p_m = pb_(m+1) p_m pb_(m+1)
    p-invol      p_m p_m        = 1                    (V only)
    pb-invol     pb_m pb_m      = 1                    (V only)
    pv-split-up  p_m^e v_(m+1)  = v_m p_(m+1)^e p_m^e  (derived)

Every word is equivalent to one in left-middle-right shape ``L M R``: a
positive v word, then a p/pb word, then an inverse v word.  The *height
set* of a p/pb word is the intersection of the letter height sets

    height(pb_n) = {n + 1},     height(p_n) = {j : j >= n + 2},

so it is empty, a singleton, or an upward-closed tail.  Raising moves
push the middle's height up while spilling single v letters into L or R,
until some common height ``k`` bounds L, the middle, and R at once.  At
that height the middle translates letter for letter into a braid word

    pb_(k-1)^e -> s_0^e,        p_i^e -> s_(k-1-i)^e,

and the original word is trivial exactly when that braid word is trivial
(in BV; its permutation image suffices for V) and the v letters of L and
R, read as l letters, are trivial in Thompson's group F.

In the strand-splitting picture ``v_n`` splits a strand and the p/pb
letters cross strands, so raising a monosyllable from height h to h + 1
doubles one strand of its braid: the cabling map, which
``tests/test_bv_lmr.py`` checks letter for letter.  ``pi_action`` carries
the v letter through the p/pb letters, crossing each core as a p letter
would, and its loop is that map in p coordinates.  Raising by t at once
cables the strand into t + 1 parallel strands, the result of t raises
that each enter at the upper strand of the pair the last one made.

From the first form on, the route works on int-coded letters
``index << 3 | kind`` (see ``_flush_v_letters``): the sweeps, height
repair and every raise.  A sweep carries each stray v letter across its
left neighbours in one loop and one step charge, and height repair
levels each pb letter by one block of splits, flushed once; both make
the single moves of the rules above, in the same order and steps.
``_invert_codes`` (reverse, invert every code) is the route's one
mirror: R is the mirror of a positive v word, so each rightward move is
the leftward one run on the mirror.  The third form
grows L and that word R' by appends and mirrors R back once.  The
repaired middle is split into syllables once: a raise cables one strand,
so it does not depend on where the cuts fall.

The syllables have two holdings, each a height h and the data.  BV and
``to_third_form`` (so ``bvwords lmr``) hold a ``Monosyllable``, the
codes of a p/pb word of height {h}, and decode the letters once, when
``to_third_form`` returns.  V needs only the strand permutation of the
middle, so ``is_trivial_bv`` holds each of V's syllables as one
permutation of the positions 0..h (``_PermSyllable``), cut from the
codes without a ``Monosyllable``, and a raise cables one strand of that
list instead of a word.  The list is a line as ``perms`` holds one:
``perms._swapped``, the swap loop of ``from_adjacent_transpositions``,
builds it, and ``perms._inverted`` inverts it.  Each holding is a height
``h`` and three methods: ``inverse``, ``raised`` (cable one strand), and
``joined``, which concatenates codes or multiplies lines.  Cabling
respects composition, so two neighbours of one height raise as their
product does: equalization joins each pair of neighbours that reach one
height, so every raise cables one word or line per run of equal heights,
and ``_equalize_heights`` returns the one held syllable the chain ends
on.  ``raise_m`` raises that syllable, ``to_third_form`` reads M off it
and ``is_trivial_bv`` compares it with the identity.  Each equalizing
lift of a suffix by t levels is one cabling pass, one
``raise_word_heights`` call and one block charge of t steps.  The
holding is chosen only by the split into syllables; ``_cut`` checks once
that each piece has a single height ``h``, and a raise, an inversion or
a join keeps that, so no later step re-checks it.

BV's flanks are freely reduced once, where ``split_monosyllables`` cuts
the repaired middle.  Height repair leaves inverse p pairs behind
(``p3' pb3`` repairs to ``p3' p3 pb4 v3'``), and every raise would copy
and grow them.  Cabling never unreduces a p run: ``pi_action`` maps a
freely reduced p word to a freely reduced one, and where two cores meet
it cancels the p letters of their two crossings.  A join cancels the
pairs that meet at its seam.  Free reduction keeps a run's permutation,
so the spills, heights and steps stay those of the unreduced flanks, and
M is the unreduced chain's middle with every maximal p run freely
reduced, the same braid.  A piece holds one pb letter, and a pb code
never cancels a p code, so the split reduces each piece whole.

Codes turn back into letters only at the public boundaries, through two
bounded memos: ``_letter`` here for v/p/pb codes, and ``words._letter``
for the l/s codes of the outer ``l`` letters of the F check and of the
``s`` letters of ``m_to_sigma``, which the hat route and the braid
deciders share.  The memos hold letters only, never forms or verdicts,
so a process that decides many words builds each letter once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

from .braid import is_trivial_braid_by_coordinates
from .limits import Budget
from .perms import _inverted, _swapped, from_adjacent_transpositions
from .thompson_f import is_trivial_f
from .words import (
    _BV_ALPHABET,
    _TRUE,
    _letter as _ls_letter,
    AlphabetError,
    Family,
    FamilySpec,
    Gen,
    GroupId,
    Word,
    check_alphabet,
    free_reduce,
    invert,
    pi,
    pibar,
    vgen,
)

class BVMode(Enum):
    V = "V"
    BV = "BV"


# ---------------------------------------------------------------------------
# Height sets


@dataclass(frozen=True)
class HeightSet:
    """Empty, a singleton {value}, or the tail {j : j >= value}."""

    kind: Literal["empty", "single", "tail"]
    value: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "single", "tail") or self.value < 0:
            raise ValueError(f"HeightSet needs kind empty, single or tail, value >= 0: {self.kind!r}, {self.value!r}")

    @classmethod
    def empty(cls) -> "HeightSet":
        return cls("empty")

    @classmethod
    def singleton(cls, h: int) -> "HeightSet":
        return cls("single", h)

    @classmethod
    def tail(cls, t: int) -> "HeightSet":
        return cls("tail", t)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def contains(self, j: int) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "single":
            return j == self.value
        return j >= self.value

    def intersect(self, other: "HeightSet") -> "HeightSet":
        if self.kind == "empty" or other.kind == "empty":
            return HeightSet.empty()
        if self.kind == "tail" and other.kind == "tail":
            return HeightSet.tail(max(self.value, other.value))
        if self.kind == "single" and other.kind == "single":
            return self if self.value == other.value else HeightSet.empty()
        single = self if self.kind == "single" else other
        tail = other if self.kind == "single" else self
        return single if single.value >= tail.value else HeightSet.empty()

    def __repr__(self) -> str:
        if self.kind == "empty":
            return "HeightSet{}"
        if self.kind == "single":
            return f"HeightSet{{{self.value}}}"
        return f"HeightSet{{j>={self.value}}}"


def word_height(w: Word) -> HeightSet:
    """The intersection of the letter height sets of ``w``.

    Folds plain ints rather than height sets: the p letters bound a tail
    from below by their largest index plus 2, and the pb letters all give
    singletons, which must agree.
    """
    tail = 0
    single: int | None = None
    clash = False
    for g in w:
        if g.family is Family.PI:
            if g.index + 2 > tail:
                tail = g.index + 2
        elif g.family is Family.PIBAR:
            if single is None:
                single = g.index + 1
            elif single != g.index + 1:
                clash = True
        else:
            raise AlphabetError(f"word_height: {g!r} has no height")
    if clash or (single is not None and single < tail):
        return HeightSet.empty()
    return HeightSet.tail(tail) if single is None else HeightSet.singleton(single)


# ---------------------------------------------------------------------------
# Relation instances


_VBV = (GroupId.V, GroupId.BV)

# ``presentations.FAMILIES`` lists these same records with the other rows.
RELATION_FAMILIES: dict[str, FamilySpec] = {
    f.fam_id: f
    for f in [
        FamilySpec("vv-shift", _VBV, 2, lambda q, m: m < q,
                   lambda q, m, e: ((vgen(q), vgen(m)), (vgen(m), vgen(q + 1)))),
        FamilySpec("pv-shift", _VBV, 2, lambda q, m: m < q,
                   lambda q, m, e: ((pi(q), vgen(m)), (vgen(m), pi(q + 1)))),
        FamilySpec("pv-split", _VBV, 1, _TRUE,
                   lambda m, e: ((pi(m, e), vgen(m)), (vgen(m + 1), pi(m, e), pi(m + 1, e))),
                   signed=_VBV),
        FamilySpec("pv-far", _VBV, 2, lambda q, m: m > q + 1,
                   lambda q, m, e: ((pi(q), vgen(m)), (vgen(m), pi(q)))),
        FamilySpec("pbv-shift", _VBV, 2, lambda q, m: m < q,
                   lambda q, m, e: ((pibar(q), vgen(m)), (vgen(m), pibar(q + 1)))),
        FamilySpec("pbv-absorb", _VBV, 1, _TRUE,
                   lambda m, e: ((pibar(m, e), vgen(m)), (pi(m, e), pibar(m + 1, e))),
                   signed=_VBV),
        FamilySpec("pp-far", _VBV, 2, lambda q, m: q >= m + 2,
                   lambda q, m, e: ((pi(q), pi(m)), (pi(m), pi(q)))),
        FamilySpec("pp-braid", _VBV, 1, _TRUE,
                   lambda m, e: ((pi(m), pi(m + 1), pi(m)), (pi(m + 1), pi(m), pi(m + 1)))),
        FamilySpec("pbp-far", _VBV, 2, lambda q, m: q >= m + 2,
                   lambda q, m, e: ((pibar(q), pi(m)), (pi(m), pibar(q)))),
        FamilySpec("pb-braid", _VBV, 1, _TRUE,
                   lambda m, e: ((pi(m), pibar(m + 1), pi(m)), (pibar(m + 1), pi(m), pibar(m + 1)))),
        FamilySpec("p-invol", (GroupId.V,), 1, _TRUE, lambda m, e: ((pi(m), pi(m)), ())),
        FamilySpec("pb-invol", (GroupId.V,), 1, _TRUE, lambda m, e: ((pibar(m), pibar(m)), ())),
        FamilySpec("pv-split-up", _VBV, 1, _TRUE,
                   lambda m, e: ((pi(m, e), vgen(m + 1)), (vgen(m), pi(m + 1, e), pi(m, e))),
                   signed=_VBV),
    ]
}


def _family(rel_id: str) -> FamilySpec:
    fam = RELATION_FAMILIES.get(rel_id)
    if fam is None:
        raise ValueError(f"unknown relation family {rel_id!r}")
    return fam


def relation_sides(rel_id: str, indices: tuple[int, ...], exponent: int = 1) -> tuple[Word, Word]:
    """The two sides of one relation instance."""
    return _family(rel_id).sides(indices, exponent)


def apply_relation(
    w: Word,
    rel_id: str,
    indices: tuple[int, ...],
    position: int,
    direction: Literal["forward", "backward"] = "forward",
    exponent: int = 1,
    mode: BVMode = BVMode.V,
) -> Word:
    """Replace one occurrence of a relation side at a given position,
    ``0 <= position <= len(w)``."""
    fam = _family(rel_id)
    if not isinstance(mode, BVMode):
        raise ValueError(f"apply_relation: mode must be BVMode.V or BVMode.BV, got {mode!r}")
    if fam.v_only and mode is BVMode.BV:
        raise ValueError(f"{rel_id} is not a relation of BV")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if not 0 <= position <= len(w):
        raise ValueError(f"{rel_id}{indices}: position {position} is outside 0..{len(w)}")
    lhs, rhs = fam.sides(indices, exponent)
    if direction == "backward":
        lhs, rhs = rhs, lhs
    if w[position:position + len(lhs)] != lhs:
        raise ValueError(f"{rel_id}{indices}: no match at position {position}")
    return w[:position] + rhs + w[position + len(lhs):]


# ---------------------------------------------------------------------------
# First form: sorting a word into L M R


@dataclass(frozen=True)
class LMRForm:
    """A word split as positive v part, p/pb middle, inverse v part."""

    L: Word
    M: Word
    R: Word
    height_m: HeightSet | None = None
    k: int | None = None

    def word(self) -> Word:
        return self.L + self.M + self.R


# The sweeps work on int-coded letters ``index << 3 | kind``, kind 0 ``v``,
# 1 ``v'``, 2 ``p``, 3 ``p'``, 4 ``pb``, 5 ``pb'``: adding 8 raises the index,
# and a ``pb`` letter less 2 is the ``p`` letter of its index and exponent.
# The code stays apart from the l/s code of ``words`` on purpose: one 4-bit
# code ``index << 4 | kind`` for all five families would push most codes
# out of CPython's cache of small ints (those up to 256).  The third-form
# middles of the 52 finite BV relators held 47,844 letters before their
# flanks were freely reduced; 3,648 of their codes exceeded 256 here, and
# 22,690 would with 4 bits, and free-reduction and raise loops over those
# codes ran 25-29% slower.
_KIND = {Family.V: 0, Family.PI: 2, Family.PIBAR: 4}
_FAMILY = (Family.V, Family.V, Family.PI, Family.PI, Family.PIBAR, Family.PIBAR)


def _encode(w: Word) -> list[int]:
    return [g.index << 3 | _KIND[g.family] | (g.exponent < 0) for g in w]


@functools.lru_cache(maxsize=1 << 12)
def _letter(x: int) -> Gen:
    """The letter of one code.  The memo is bounded and holds letters only,
    so a process that decides many words builds each letter once."""
    return Gen(_FAMILY[x & 7], x >> 3, 1 - 2 * (x & 1))


def _decode(codes: Sequence[int]) -> Word:
    """The letters of a code list, each one from the ``_letter`` memo."""
    return tuple(map(_letter, codes))


def _free_codes(codes: Sequence[int]) -> tuple[int, ...]:
    """A code list freely reduced: ``x ^ 1`` is the inverse of ``x``."""
    out: list[int] = []
    for x in codes:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _invert_codes(codes: Sequence[int]) -> list[int]:
    """The mirror of a code list: reversed, every letter inverted."""
    return [x ^ 1 for x in reversed(codes)]


def _flush_v_letters(codes: list[int], start: int, budget: Budget, op: str) -> list[int]:
    """Sweep every ``v`` letter to the left end of the coded list and strip
    those letters off.

    The sweep carries the leftmost stray, a ``v`` after the leading run of
    them, leftward past one neighbour at a time by the rules of the module
    docstring; past ``pb_a^e`` with ``a < c``, ``v_c`` is replayed as
    ``v_a ... v_(c-2) v_(c-1)^2 pb_(c+1)^e p_c^e ... p_a^e``.  Both pb
    moves shrink a multiset measure, so the sweep ends.  Each move is one
    step of ``op``.  A carry ends when the stray reaches the leading run,
    cancels against a ``v_c'``, is absorbed by a ``pb_c^e``, or is
    replayed, which leaves ``v_a`` as the next stray.  Every move writes
    only letters right of the stray, which it never reads again, so the
    carry keeps them in a list, writes them back with one slice
    assignment and charges its n moves with one ``spend(op, n)``: a block
    charge leaves ``used`` where n single ones would, also on overflow
    (``Budget.spend``), and reports the same operation.  The search starts
    at ``start``, at or before the first stray, and resumes at the carry's
    left end: no letter before it is a stray, so this finds the stray a
    full rescan would, and the moves are those of a sweep that makes one
    move per rescan, in its order.

    The sweep of ``v'`` letters to the right end is this sweep run on the
    mirror (``_invert_codes``) and mirrored back: every rule keeps the
    exponents of the p/pb letters it touches, so the mirror of a rule that
    moves ``v_c`` leftward is the rule that moves ``v_c'`` rightward, and
    the mirrored sweep makes the same moves in the same order, rightmost
    stray first, with the same steps.
    """
    head = 0
    while True:
        n = len(codes)
        while head < n and not codes[head] & 7:
            head += 1
        p = max(start, head)
        while p < n and codes[p] & 7:
            p += 1
        if p == n:
            break
        c = codes[p] >> 3
        rest: list[int] = []    # the letters the carry rewrote, nearest it last
        i = p
        while i > head:
            i -= 1
            y = codes[i]
            a, kind = y >> 3, y & 7
            if kind < 2:
                # a v': no v lies between the leading run and the stray
                if a == c:
                    lead = ()
                    break
                if a < c:
                    c += 1
                    rest.append(y)
                else:
                    rest.append(y + 8)
            elif kind < 4:
                if a == c:
                    c += 1
                    rest += (y + 8, y)
                elif a == c - 1:
                    c = a
                    rest += (y, y + 8)
                else:
                    rest.append(y + 8 if a > c else y)
            elif a > c:
                rest.append(y + 8)
            elif a == c:
                lead = (y - 2, y + 8)
                break
            else:
                x, k = c << 3, c - a
                lead = [*range(x - (k << 3), x - 8, 8), x - 8, x - 8,
                        y + ((k + 1) << 3), *range(y - 2 + (k << 3), y - 10, -8)]
                break
        else:
            lead = (c << 3,)
        budget.spend(op, p - i)
        codes[i:p + 1] = [*lead, *rest[::-1]]
        start = i
    spill = codes[:head]
    del codes[:head]
    return spill


def to_first_form(w: Word, budget: Budget | None = None) -> LMRForm:
    """Sort a v/p/pb word into left-middle-right shape (heights unset).

    The inverse movers are flushed on the mirror, from its left end: they
    start right of the flushed positive letters and move away, so only
    p/pb letters are left.  The middle is freely reduced on its codes,
    where ``x ^ 1`` is the inverse letter, and each part is decoded once."""
    check_alphabet(w, _BV_ALPHABET, "to_first_form")
    budget = budget if budget is not None else Budget()
    codes = _encode(free_reduce(w))
    left = _flush_v_letters(codes, 0, budget, "to_first_form")
    mirror = _invert_codes(codes)
    right = _invert_codes(_flush_v_letters(mirror, 0, budget, "to_first_form"))
    return LMRForm(L=_decode(left), M=_decode(_free_codes(_invert_codes(mirror))), R=_decode(right))


# ---------------------------------------------------------------------------
# Monosyllables and raising
#
# Raising runs on the int coding as well: a flank is a tuple of p codes, a
# core a pb code, raising an index adds 8 and inverting a letter flips bit 0.


def pi_action(codes: Sequence[int], m: int, t: int = 1) -> tuple[tuple[int, ...], int]:
    """Carry a splitting letter across a coded p/pb word, left to right,
    cabling its strand into t + 1 strands.

        v_m' * w  ~  w' * v_k'   with k the preimage of m under w    (t = 1)

    ``codes`` and the returned ``w'`` are p/pb codes.  A composition of
    single-letter moves (pv-shift, pv-split, pv-split-up, pv-far and their
    rearrangements), each of which tracks the moving index through one
    adjacent transposition.  Letter indices grow by at most t.
    Inverting this move for ``invert(w)`` gives the mirror move
    ``w * v_m ~ v_k * invert(l)``, where ``(l, k) = pi_action(invert(w), m)``
    and k is the image of m under w.

    Read through ``p_i -> s_(h-1-i)`` at a height h above every index, this
    is the cabling of one strand: the strand at position ``h - m`` on the
    left becomes a bundle of t + 1 parallel strands, and it leaves on the
    right at position ``h - k``.  With c the strand's index, a letter clear
    of it is kept (index below c - 1) or lifted by t (index above c), and a
    crossing becomes t + 1 crossings: ``p_(c+t) ... p_c`` when the strand
    moves up to c + 1, ``p_(c-1) ... p_(c-1+t)`` when it moves down to
    c - 1.  These are the letters of t single raises, each entering at the
    upper strand of the pair the one before made.

    A core ``pb_(h-1)`` crosses the strand as ``p_(h-1)`` would, and the
    crossing letter at the top index stays pb: the two rearrangements of
    pbv-absorb in ``mono_raise``.  Only a core sends the strand up to the
    top, h, and only from there does it come down through a core; when it
    comes down right after the core before sent it up, the t p letters of
    the two crossings meet, and a stack check cancels them when the two
    cores have opposite exponents.  So a word whose p runs are freely
    reduced is mapped to one.
    """
    if m < 0:
        raise ValueError("pi_action: index must be nonnegative")
    if t < 1:
        raise ValueError(f"pi_action: a lift needs t >= 1, got {t}")
    # lo and hi bound the codes of the letters of index c - 1 and c
    c, lo, hi, step = m, (m - 1) << 3, (m + 1) << 3, t << 3
    out: list[int] = []
    for x in codes:
        if not x & 6:
            raise AlphabetError(f"pi_action: {x} is not a p or pb code")
        if x < lo:
            out.append(x)
        elif x >= hi:
            out.append(x + step)
        elif x >= lo + 8:    # index c: the strand moves up
            if x & 4:        # pb_(c+t) p_(c+t-1) ... p_c
                out.append(x + step)
                out += range(x + step - 10, x - 10, -8)
            elif t == 1:     # a tuple extends faster than a range
                out += (x + 8, x)
            else:
                out += range(x + step, x - 8, -8)
            c, lo, hi = c + 1, lo + 8, hi + 8
        else:                # index c - 1: the strand moves down
            if x & 4:        # p_(c-1) ... p_(c-2+t) pb_(c-1+t)
                if out and out[-1] == (x - 2) ^ 1:
                    del out[-t:]
                else:
                    out += range(x - 2, x - 2 + step, 8)
                out.append(x + step)
            elif t == 1:
                out += (x, x + 8)
            else:
                out += range(x, x + step + 8, 8)
            c, lo, hi = c - 1, lo - 8, hi - 8
    return tuple(out), c


class _Held(NamedTuple):
    h: int
    codes: tuple[int, ...]


class Monosyllable(_Held):
    """A p/pb word of one height h, held as ``(h, codes)``: every pb
    letter is a core ``pb_(h-1)^e`` and every p index lies below h - 1.

    ``Monosyllable(pre, core, post)`` builds the word of one core, split
    around it: ``pre`` and ``post`` are tuples of p codes and ``core`` is
    the pb code.  This constructor checks the kind of every code, and
    ``_cut`` the height.  A raise, an inversion or a join builds its
    result through ``_syllable``, which skips both checks: inverting keeps
    every index, a raise lifts each core by t and keeps every p index
    below the new cores' (``pi_action``, which checks every code it
    reads), and a join concatenates two words of one height.  Equalization
    joins neighbours of one height (``joined``), as V joins its lines, so
    a held word may have several cores; ``pre``, ``core`` and ``post`` cut
    it at its first one.
    """

    __slots__ = ()

    def __new__(cls, pre: Sequence[int], core: int, post: Sequence[int]) -> "Monosyllable":
        if core & 6 != 4:
            raise ValueError(f"monosyllable core must be a pb code, got {core!r}")
        for x in (*pre, *post):
            if x & 6 != 2:
                raise AlphabetError(f"monosyllable flanks must be p codes, got {(pre, core, post)!r}")
        [held] = _cut((*pre, core, *post), "monosyllable")
        return tuple.__new__(cls, held)

    @property
    def _first_core(self) -> int:
        return next(i for i, x in enumerate(self.codes) if x & 4)

    @property
    def pre(self) -> tuple[int, ...]:
        return self.codes[:self._first_core]

    @property
    def core(self) -> int:
        return self.codes[self._first_core]

    @property
    def post(self) -> tuple[int, ...]:
        return self.codes[self._first_core + 1:]

    def word(self) -> Word:
        return _decode(self.codes)

    def inverse(self) -> "Monosyllable":
        return _syllable(self.h, tuple(_invert_codes(self.codes)))

    def raised(self, m: int | None, t: int = 1) -> tuple["Monosyllable", int | None]:
        """``mono_raise``: a lift by t, the strand entering at the top when
        m is None."""
        return mono_raise(self, m, t)

    def joined(self, other: "Monosyllable") -> "Monosyllable":
        """This word then ``other``, of one height, with the inverse p pairs
        that meet at the seam cancelled.

        Cabling respects composition, as for ``_PermSyllable.joined``: the
        join raises as the pair does, with the same spill.  A pb letter is
        never cancelled, so two cores may meet (``pb1 v2' pb1'`` gives
        ``pb3 pb3'``): M is the chain's middle with only its p runs reduced.
        """
        x, y = self.codes, other.codes
        i, n = 0, min(len(x), len(y))
        while i < n and x[-1 - i] == y[i] ^ 1 and not y[i] & 4:
            i += 1
        return _syllable(self.h, x[:len(x) - i] + y[i:])

    def __reduce__(self):
        # copy and pickle rebuild through ``_syllable``: ``__new__`` takes
        # (pre, core, post), not the held (h, codes)
        return _syllable, (self.h, self.codes)


def _syllable(h: int, codes: tuple[int, ...]) -> Monosyllable:
    """A ``Monosyllable`` of height h without the kind and height checks,
    for codes derived from a checked syllable."""
    return tuple.__new__(Monosyllable, (h, codes))


def _cut(codes: Sequence[int], what: str) -> Iterator[tuple[int, Sequence[int]]]:
    """Cut a coded p/pb word just after each pb letter, a trailing p run
    going to the last piece, and yield each piece with its height h, the
    core's index + 1, once every p index in it is checked to lie below the
    core's."""
    cores = [i for i, x in enumerate(codes) if x & 4]
    if not cores:
        raise ValueError(f"{what}: word has no pb letter")
    ends = [pos + 1 for pos in cores[:-1]] + [len(codes)]
    for start, pos, end in zip([0] + ends, cores, ends):
        piece, top = codes[start:end], codes[pos] & ~7
        # the core is the piece's one code of at least top, unless a p index
        # reaches the core's
        if sum(map(top.__le__, piece)) > 1:
            raise ValueError(f"{what}: piece {_decode(piece)!r} has no single height")
        yield (top >> 3) + 1, piece


def split_monosyllables(codes: Sequence[int]) -> list[Monosyllable]:
    """Cut a coded p/pb word just after each pb letter (trailing p goes
    last), freely reducing each piece; each piece must have a single
    height.

    A piece holds one pb letter, and a pb code never cancels a p code, so
    reducing the piece reduces each flank.  One reduction here is enough:
    ``pi_action`` maps freely reduced p runs to freely reduced ones, a
    join cancels the pairs at its seam, and free reduction keeps a flank's
    permutation, so every spill, height and step stays as it was.
    """
    return [_syllable(h, _free_codes(piece)) for h, piece in _cut(codes, "split_monosyllables")]


def mono_raise(syl: Monosyllable, m: int | None = None, t: int = 1) -> tuple[Monosyllable, int | None]:
    """Lift a held word of single height h by t in one ``pi_action`` pass:

        M       ~  M' v_j' ... v_(j+t-1)'      (m None: enter at the top)
        v_m' M  ~  M'  or  M' v_j' ... v_(j+t-1)'      (0 <= m < h)

    for t = 1 one height-raising move.  Returns M', of height {h + t}, and
    the code of ``v_j'``, the first of the t spills, or None; j < h.  The
    core moves are the two rearrangements of pbv-absorb,

        pb_(h-1)^e  =  p_(h-1)^e pb_h^e v_(h-1)'
        pb_(h-1)^e  =  v_(h-1) pb_h^e p_(h-1)^e

    with the freed v letter carried out through the p letters: a strand at
    h - 1 crosses a core upward and is absorbed, one at the top, h, crosses
    it downward.  So the strand enters ``pi_action`` at m, or at h when m
    is None, and nothing spills when it leaves at h.  In the braid picture
    the strand at ``h - m`` (0 if m is None) on the left of
    ``m_to_sigma(M, h)`` becomes t + 1 strands; it leaves on the right at
    ``h - j``, or 0 if nothing spills.  The t raises it replaces spill
    ``v_j'``, ``v_(j+1)'``, ..., in that order: each enters at the upper
    strand of the pair the one before made, one higher on both sides.

    The leftward moves are these on the inverse word, inverted back:

        M      ~  v_j M'            from  mono_raise(syl.inverse())
        M v_m  ~  M'  or  v_j M'    from  mono_raise(syl.inverse(), m)
    """
    h = syl.h
    if m is None:
        m = h
    elif not 0 <= m < h:
        raise ValueError(f"mono_raise needs an index 0 <= m < {h} or None, got {m}")
    codes, c = pi_action(syl.codes, m, t)
    return _syllable(h + t, codes), None if c == h else c << 3 | 1


def raise_word_heights(syllables: Sequence, t: int = 1) -> tuple[list, int | None]:
    """Lift every height by t along a nondecreasing syllable sequence, of
    either holding, by each syllable's own ``raised``.

    The first syllable spills trailing inverse v letters (m None); each
    later syllable absorbs the first spill (as m), possibly re-emitting
    one.  The nondecreasing precondition guarantees each spilled index
    stays below the next height.  Returns the raised syllables and the
    code of ``v_j'``, the first of the final spills ``v_j' ... v_(j+t-1)'``,
    or None.  In the braid picture the whole word's braid has one strand
    cabled into t + 1, entering on the left at position 0: t calls with
    t = 1 give the same syllables and spill ``v_j'``, ``v_(j+1)'``, ...
    """
    if t < 1:
        raise ValueError(f"raise_word_heights: a lift needs t >= 1, got {t}")
    heights = [s.h for s in syllables]
    if heights != sorted(heights):
        raise ValueError(f"raise_word_heights: heights must be nondecreasing, got {heights}")
    out = []
    carry: int | None = None
    for syl in syllables:
        new, carry = syl.raised(None if carry is None else carry >> 3, t)
        out.append(new)
    return out, carry


def raise_m(held: Monosyllable | _PermSyllable,
            side: Literal["left", "right"]) -> tuple[Monosyllable | _PermSyllable, int | None]:
    """Raise a middle of one height, held as one word or line, by one.

    side="right":  M ~ M' v_j'   or  M'
    side="left":   M ~ v_j M'    or  M'

    Returns the raised word or line and the spilled v code, or None.  The
    right side is ``raised`` with the strand entering at the top; the left
    side is that on the inverse, inverted back, with the spill ``v_j'``
    inverted to ``v_j``.
    """
    if side == "right":
        return held.raised(None)
    if side != "left":
        raise ValueError(f"raise_m: side must be 'left' or 'right', got {side!r}")
    raised, spill = held.inverse().raised(None)
    return raised.inverse(), None if spill is None else spill ^ 1


# ---------------------------------------------------------------------------
# Strand permutations: the syllables of the V route
#
# A syllable of height h is held as its ``line``: the permutation of the
# positions 0..h made by its letters applied left to right, with
# ``line[y]`` where position y ends up.  ``p_i`` swaps positions i and
# i + 1, and the core ``pb_(h-1)`` swaps h - 1 and h.  The line is
# ``perms``' format on a plain list: ``perms._swapped`` runs the letter
# codes right to left (each acts after those left of it), shifting out
# their kind bits, and ``perms._inverted`` inverts it.


def _cable(f: list[int], m: int, t: int = 1) -> tuple[list[int], int]:
    """Cable the strand that enters a permutation at position m into a
    bundle of t + 1 strands.

    With ``c = f[m]``, where the strand leaves, every entry at least c
    moves up by t and position m becomes c, c + 1, ..., c + t.  Returns
    the cabled permutation, t positions longer, and c: ``pi_action`` makes
    this map on a p word's letters and returns the same c.  It is t single
    cablings, each of the upper strand of the pair the one before made.
    """
    c = f[m]
    g = [y + t if y >= c else y for y in f]
    g[m:m + 1] = range(c, c + t + 1)
    return g, c


class _PermSyllable(NamedTuple):
    """A monosyllable of height h held as its line, a permutation of 0..h.

    It has the field ``h`` and the three methods of a ``Monosyllable``,
    ``inverse``, ``raised`` and ``joined``, that equalization and raising
    read.
    """

    h: int
    line: list[int]

    def inverse(self) -> "_PermSyllable":
        return _PermSyllable(self.h, _inverted(self.line))

    def raised(self, m: int | None, t: int = 1) -> tuple["_PermSyllable", int | None]:
        """``Monosyllable.raised`` on the line, in O(h + t): cable the
        strand that enters at m, or at h (braid position 0) when m is None,
        into t + 1.  Where it leaves, c, is the first spill ``v_c'``, unless
        c is h: then it leaves at braid position 0 and nothing spills."""
        h = self.h
        line, c = _cable(self.line, h if m is None else m, t)
        return _PermSyllable(h + t, line), None if c == h else c << 3 | 1

    def joined(self, other: "_PermSyllable") -> "_PermSyllable":
        """The product of two lines of one height, this one's letters then
        ``other``'s.

        Cabling respects composition: raising the product at m cables this
        line at m and ``other`` where the strand leaves this one, and the
        strand leaves the product where it leaves ``other``, so the product
        raises as the pair does, with the same spill.
        """
        f = other.line
        return _PermSyllable(self.h, [f[y] for y in self.line])


def _perm_syllables(codes: Sequence[int]) -> list[_PermSyllable]:
    """Cut a coded p/pb word as ``split_monosyllables`` does and hold each
    piece as its line; each piece must have a single height."""
    return [_PermSyllable(h, _swapped(list(range(h + 1)), reversed(piece), 3))
            for h, piece in _cut(codes, "_perm_syllables")]


# ---------------------------------------------------------------------------
# Third form and the word problem


def l_height_bound(l_word: Word) -> int:
    """A height bound for a positive v word, by the fold

        k -> k + 1    if m <= k - 1
        k -> m + 2    otherwise

    starting from 0 (the two branches agree at m = k - 1).
    """
    check_alphabet(l_word, frozenset({Family.V}), "l_height_bound")
    if any(g.exponent < 0 for g in l_word):
        raise AlphabetError("l_height_bound: word must be positive")
    return _height_bound(g.index for g in l_word)


def _height_bound(indices: Iterable[int]) -> int:
    k = 0
    for m in indices:
        k = k + 1 if m <= k - 1 else m + 2
    return k


def _repair_syllable_heights(codes: list[int], parts: tuple[list[int], list[int]], budget: Budget) -> list[int]:
    """Split pb letters until every monosyllable has a single height.

    A monosyllable's height set is empty exactly when some p index in it
    reaches the pb index.  The two rearrangements of pbv-absorb,

        pb_c^e  =  v_c pb_(c+1)^e p_c^e       (the v leaves leftward)
        pb_c^e  =  p_c^e pb_(c+1)^e v_c'      (the v leaves rightward)

    raise the pb index by one per use while the offending p run, lying on
    the far side of the flush, keeps its indices, so the pb index
    overtakes the run.  One loop levels the p run after a pb letter by the
    first rearrangement: it reads the run once, with ``m`` its largest p
    index, and makes all ``t = m - c + 1`` splits as one block
    ``v_c ... v_(c+t-1) pb_(c+t)^e p_(c+t-1)^e ... p_c^e``, charged as t
    steps, then one ``_flush_v_letters`` from the split sweeps the v
    letters left.  This is splitting one letter at a time, flushing after
    each, while the run holds a p index at least the pb index: a leftward
    flush never touches the pb letter, its run or anything right of them;
    every inserted p index lies below the raised core, so m and c alone
    fix t; and the leftmost stray goes first, so ``v_c`` and all it
    replays are flushed before ``v_(c+1)`` moves, the order of the single
    splits, with the same steps.  The block's one ``spend`` leaves
    ``used`` where t single charges would, also on overflow
    (``Budget.spend``), and splits and flushes both charge
    ``repair_heights``, so neither ``used`` nor the capped operation
    tells the block from single splits.  The second
    rearrangement is the first read in the mirror (``_invert_codes``).
    The loop runs on the middle for the trailing run only, which is
    leveled first, since its flushes travel left and may disturb anything
    earlier; then on the middle's mirror for every pb letter, right to
    left, which is each pb letter's preceding run in left-to-right order.
    A right flush keeps every leveled run to its right level: crossing
    bumps a p index by at most one per passing v against exactly one for
    the run's pb index, and the p letter deposited by an absorption sits
    just below the absorbing pb letter's raised index.  Appends the spills
    of the middle to L and of its mirror to R', the codes ``parts``, and
    returns the middle.

    A flush of both signs would make the split's moves: the letters are
    pure p/pb before the split, and every rule emits ``v`` letters only.
    A leftward flush never moves the list's right end, so ``done`` counts
    the letters from the last leveled pb letter to that end.
    """
    for mirrored in (0, 1):
        done = 0
        while True:
            pos = len(codes) - 1 - done
            while pos >= 0 and not codes[pos] & 4:
                pos -= 1
            if pos < 0:
                break
            x = codes[pos]
            # t splits lift pb_c^e over the run's largest p index m
            t = (max(codes[pos + 1:len(codes) - done], default=-1) >> 3) - (x >> 3) + 1
            done = len(codes) - pos
            if t > 0:
                done += t
                budget.spend("repair_heights", t)
                # v_c ... v_(c+t-1) pb_(c+t)^e p_(c+t-1)^e ... p_c^e
                top = x + (t << 3)
                codes[pos:pos + 1] = [*range(x & ~7, top & ~7, 8), top, *range(top - 10, x - 10, -8)]
                parts[mirrored].extend(_flush_v_letters(codes, pos, budget, "repair_heights"))
            if not mirrored:
                break
        codes = _invert_codes(codes)
    return codes


def _raise_suffixes(syllables: list, targets: list[int], part: list[int], budget: Budget) -> None:
    """Raise ``syllables[j:]`` to height ``targets[j - 1]``, for j from the
    right end down to 1, in place; append each spill's inverse to ``part``.

    Raising ``syllables[j:]`` leaves ``syllables[:j]`` alone, so syllable
    j is first raised at step j, by a lift of ``t = targets[j - 1] -
    syllables[j].h``: t steps of ``equalize_heights``, charged as one
    block, and one call of ``raise_word_heights``.  The t raises it
    replaces each cable the upper strand of the pair the one before made,
    so the lift cables one strand into t + 1 and spills ``v_j' ...
    v_(j+t-1)'`` for a first spill ``v_j'``, appended in that order as
    their inverses; the block charge leaves ``used`` and the capped
    operation where t single charges would (``Budget.spend``).  Syllable
    j is then joined into syllable j - 1 when the two have one height
    (``joined``): the raised suffix is a list of runs of strictly
    increasing height, and a raise makes one move per run where it made
    one per syllable, with the same spill.
    """
    for j in range(len(syllables) - 1, 0, -1):
        t = targets[j - 1] - syllables[j].h
        if t > 0:
            budget.spend("equalize_heights", t)
            syllables[j:], spill = raise_word_heights(syllables[j:], t)
            if spill is not None:
                part.extend(range(spill ^ 1, (spill ^ 1) + (t << 3), 8))
        if syllables[j - 1].h == syllables[j].h:
            syllables[j - 1:j + 1] = [syllables[j - 1].joined(syllables[j])]


def _equalize_heights(syllables: list, parts: tuple[list[int], list[int]],
                      budget: Budget) -> Monosyllable | _PermSyllable:
    """Bring all syllable heights to a common value, ``_raise_suffixes``
    run twice, and return the one syllable they are joined into:
    ``Monosyllable`` words or ``_PermSyllable`` lines, whose ``inverse``
    is one permutation inverse.

    The first sweep, with the prefix maxima as targets, makes the heights
    nondecreasing (suffix blocks stay so, by induction from the right),
    spilling inverse v letters past the word's right end, so onto R',
    ``parts[1]``, and joins every pair of neighbours of one height, so the
    heights it leaves strictly increase.  The second levels each prefix
    up to the next height, joining as it goes: it runs on the inverted
    list, which is again nondecreasing, so the right-spilling raise
    applies, with that list's own heights as targets, and its spills are
    the positive v letters past the word's left end, onto L,
    ``parts[0]``.  A syllable and its inverse have the same height ``h``,
    checked once where the middle was cut.  So one height is one
    syllable, and more than one syllable after the first sweep is more
    than one height.
    """
    _raise_suffixes(syllables, list(accumulate((s.h for s in syllables), max)), parts[1], budget)
    if len(syllables) > 1:
        inv = [s.inverse() for s in reversed(syllables)]
        _raise_suffixes(inv, [s.h for s in inv], parts[0], budget)
        syllables = [s.inverse() for s in reversed(inv)]
    if len(syllables) != 1:
        raise AssertionError(f"equalization ended on {len(syllables)} syllables, not one")
    return syllables[0]


def to_third_form(w: Word, budget: Budget | None = None) -> LMRForm:
    """The decision form: L M R with a height k that bounds all three parts.

    The middle's height set contains k, and both L and the inverse of R
    have height bound at most k, so the middle translates into a braid
    word on the strands below k while L and R read as monoid letters.
    Height repair, equalization and raising run on the int coding.  The
    repaired middle is split into syllables once, each flank freely
    reduced, and equalization joins them into one word as they reach one
    height; the three parts are decoded on return.

    Raising keeps every p run freely reduced and each join cancels the
    inverse p pairs at its seam, so M is the unreduced flanks' middle with
    every maximal p run freely reduced, the same braid, and L, R, k and
    the steps are those of that chain.

    M's height is read off its codes: it is {k} when every core, which no
    join or raise cancels, sits at index k - 1 and every p index lies
    below it.  ``word_height`` reads only a middle with no pb letter, or
    words a failed check.
    """
    budget = budget if budget is not None else Budget()
    first = to_first_form(w, budget)

    if all(g.family is Family.PI for g in first.M):
        height = word_height(first.M)
        k = max(_height_bound(g.index for g in first.L),
                _height_bound(g.index for g in reversed(first.R)), height.value)
        return LMRForm(first.L, first.M, first.R, height, k)

    left, (h, codes), right = _raise_to_third_form(first, budget, split_monosyllables)
    top = (h - 1) << 3
    if any(x & ~1 != top | 4 if x & 4 else x >= top for x in codes):
        height = word_height(_decode(codes))
        raise AssertionError(f"to_third_form: the middle's height set {height!r} misses {h}")
    return LMRForm(_decode(left), _decode(codes), _decode(right), HeightSet.singleton(h), h)


def _raise_to_third_form(
    first: LMRForm, budget: Budget, split: Callable[[list[int]], list],
) -> tuple[list[int], Monosyllable | _PermSyllable, list[int]]:
    """The part of ``to_third_form`` after the first form, for a middle
    with a pb letter, in either holding of the syllables.

    ``split`` cuts the repaired middle's codes into syllables
    (``split_monosyllables`` or ``_perm_syllables``); each syllable
    raises, inverts and joins itself, so equalization and ``raise_m`` are
    the same for both.  Every phase appends its spills to the codes of L
    or R', the positive mirror of R, and R is mirrored back once: returns
    L's and R's codes and the held syllable, whose height ``h`` is k.
    """
    parts = left, rmirror = _encode(first.L), _invert_codes(_encode(first.R))
    middle = _repair_syllable_heights(_encode(first.M), parts, budget)
    held = _equalize_heights(split(middle), parts, budget)

    while True:
        h = held.h
        k1, k2 = (_height_bound(x >> 3 for x in part) for part in parts)
        if k1 <= h and k2 <= h:
            break
        budget.spend("to_third_form")
        # spill away from a part whose bound still exceeds h, R' first
        held, spill = raise_m(held, "left" if k2 > h else "right")
        if spill is not None:
            if k2 > h:
                left.append(spill)
            else:
                rmirror.append(spill ^ 1)
    return left, held, _invert_codes(rmirror)


def m_to_sigma(m_word: Word, h: int) -> Word:
    """Translate a middle word of height h into a braid word of ``s`` letters.

    pb letters sit at index h - 1 and map to ``s_0``; p letters at index
    i map to ``s_(h-1-i)``.  Exponents are kept.  The translation depends
    on h, so each distinct letter is looked up once per call, in a
    ``{letter: s letter}`` map whose values come from ``words._letter``.
    """
    if not word_height(m_word).contains(h):
        raise ValueError(f"m_to_sigma: {h} is not a height of the word")
    table = {g: _ls_letter((0 if g.family is Family.PIBAR else h - 1 - g.index) << 2 | 2 - g.exponent)
             for g in set(m_word)}
    return tuple(map(table.__getitem__, m_word))


def is_trivial_bv(w: Word, mode: BVMode, budget: Budget | None = None) -> bool:
    """Decide the word problem of V or BV.

    Trivial iff the middle of the third form is trivial and the outer v
    letters, read as monoid letters, are trivial in F; all phases, the F
    check too, spend from one budget.  BV translates the middle of
    ``to_third_form`` into a braid word and decides it by Dynnikov
    coordinates (``braid.is_trivial_braid_by_coordinates``), not by the
    handle reduction of the hat route.  V needs only the
    middle's strand permutation: it makes the same raises, with the same
    steps and spills, on one permutation per run of syllables of one
    height, which equalization joins into one line, and checks that this
    line fixes every strand.
    """
    budget = budget if budget is not None else Budget()
    if mode is BVMode.BV:
        form = to_third_form(w, budget)
        if not is_trivial_braid_by_coordinates(m_to_sigma(form.M, form.k), budget):
            return False
        outer = _encode(form.L + form.R)
    elif mode is BVMode.V:
        first = to_first_form(w, budget)
        if all(g.family is Family.PI for g in first.M):
            if not from_adjacent_transpositions(g.index for g in first.M).is_identity():
                return False
            outer = _encode(first.L + first.R)
        else:
            left, (k, line), right = _raise_to_third_form(first, budget, _perm_syllables)
            if line != list(range(k + 1)):
                return False
            outer = left + right
    else:
        raise ValueError(f"is_trivial_bv: mode must be BVMode.V or BVMode.BV, got {mode!r}")
    # the v code ``n << 3 | (e < 0)`` reads as the l code ``n << 2 | (e < 0) << 1``
    return is_trivial_f(tuple([_ls_letter(x >> 3 << 2 | (x & 1) << 1) for x in outer]), budget)


def equal_bv(w1: Word, w2: Word, mode: BVMode, budget: Budget | None = None) -> bool:
    return is_trivial_bv(w1 + invert(w2), mode, budget)
