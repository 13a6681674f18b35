"""The left-middle-right calculus for V and BV over v/p/pb letters.

V and BV are presented on splitting letters ``v_n`` and permuting letters
``p_n`` (``pi``), ``pb_n`` (``pi-bar``) by the families below; V adds the
involution families at the end.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Literal, Sequence

from .braid import is_trivial_braid
from .limits import Budget
from .perms import from_sigma_word
from .thompson_f import is_trivial_f
from .words import (
    AlphabetError,
    Family,
    Gen,
    Word,
    check_alphabet,
    free_reduce,
    invert,
    pi,
    pibar,
    vgen,
)

_BV_ALPHABET = frozenset({Family.V, Family.PI, Family.PIBAR})
_MIDDLE_ALPHABET = frozenset({Family.PI, Family.PIBAR})


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


def letter_height(g: Gen) -> HeightSet:
    if g.family is Family.PIBAR:
        return HeightSet.singleton(g.index + 1)
    if g.family is Family.PI:
        return HeightSet.tail(g.index + 2)
    raise AlphabetError(f"letter_height: {g!r} has no height")


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


@dataclass(frozen=True)
class _RelationFamily:
    rel_id: str
    nparams: int
    takes_exponent: bool
    v_only: bool
    condition: Callable[..., bool]               # (indices) -> bool
    build: Callable[..., tuple[Word, Word]]      # (indices, exponent) -> (lhs, rhs)


RELATION_FAMILIES: dict[str, _RelationFamily] = {
    f.rel_id: f
    for f in [
        _RelationFamily("vv-shift", 2, False, False, lambda q, m: m < q,
                        lambda q, m, e: ((vgen(q), vgen(m)), (vgen(m), vgen(q + 1)))),
        _RelationFamily("pv-shift", 2, False, False, lambda q, m: m < q,
                        lambda q, m, e: ((pi(q), vgen(m)), (vgen(m), pi(q + 1)))),
        _RelationFamily("pv-split", 1, True, False, lambda m: True,
                        lambda m, e: ((pi(m, e), vgen(m)), (vgen(m + 1), pi(m, e), pi(m + 1, e)))),
        _RelationFamily("pv-far", 2, False, False, lambda q, m: m > q + 1,
                        lambda q, m, e: ((pi(q), vgen(m)), (vgen(m), pi(q)))),
        _RelationFamily("pbv-shift", 2, False, False, lambda q, m: m < q,
                        lambda q, m, e: ((pibar(q), vgen(m)), (vgen(m), pibar(q + 1)))),
        _RelationFamily("pbv-absorb", 1, True, False, lambda m: True,
                        lambda m, e: ((pibar(m, e), vgen(m)), (pi(m, e), pibar(m + 1, e)))),
        _RelationFamily("pp-far", 2, False, False, lambda q, m: q >= m + 2,
                        lambda q, m, e: ((pi(q), pi(m)), (pi(m), pi(q)))),
        _RelationFamily("pp-braid", 1, False, False, lambda m: True,
                        lambda m, e: ((pi(m), pi(m + 1), pi(m)), (pi(m + 1), pi(m), pi(m + 1)))),
        _RelationFamily("pbp-far", 2, False, False, lambda q, m: q >= m + 2,
                        lambda q, m, e: ((pibar(q), pi(m)), (pi(m), pibar(q)))),
        _RelationFamily("pb-braid", 1, False, False, lambda m: True,
                        lambda m, e: ((pi(m), pibar(m + 1), pi(m)), (pibar(m + 1), pi(m), pibar(m + 1)))),
        _RelationFamily("p-invol", 1, False, True, lambda m: True,
                        lambda m, e: ((pi(m), pi(m)), ())),
        _RelationFamily("pb-invol", 1, False, True, lambda m: True,
                        lambda m, e: ((pibar(m), pibar(m)), ())),
        _RelationFamily("pv-split-up", 1, True, False, lambda m: True,
                        lambda m, e: ((pi(m, e), vgen(m + 1)), (vgen(m), pi(m + 1, e), pi(m, e)))),
    ]
}


def relation_sides(rel_id: str, indices: tuple[int, ...], exponent: int = 1) -> tuple[Word, Word]:
    """The two sides of one relation instance."""
    fam = RELATION_FAMILIES.get(rel_id)
    if fam is None:
        raise ValueError(f"unknown relation family {rel_id!r}")
    if len(indices) != fam.nparams:
        raise ValueError(f"{rel_id} takes {fam.nparams} indices, got {indices}")
    if not fam.condition(*indices):
        raise ValueError(f"{rel_id}{indices}: side condition violated")
    if exponent not in (1, -1) or (exponent == -1 and not fam.takes_exponent):
        raise ValueError(f"{rel_id}: bad exponent {exponent}")
    return fam.build(*indices, exponent)


def apply_relation(
    w: Word,
    rel_id: str,
    indices: tuple[int, ...],
    position: int,
    direction: Literal["forward", "backward"] = "forward",
    exponent: int = 1,
    mode: BVMode = BVMode.V,
) -> Word:
    """Replace one occurrence of a relation side at a given position."""
    fam = RELATION_FAMILIES.get(rel_id)
    if fam is None:
        raise ValueError(f"unknown relation family {rel_id!r}")
    if fam.v_only and mode is BVMode.BV:
        raise ValueError(f"{rel_id} is not a relation of BV")
    lhs, rhs = relation_sides(rel_id, indices, exponent)
    if direction == "backward":
        lhs, rhs = rhs, lhs
    if w[position:position + len(lhs)] != lhs:
        raise ValueError(f"{rel_id}{indices}: no match at position {position}")
    return w[:position] + rhs + w[position + len(lhs):]


# ---------------------------------------------------------------------------
# Commuting v letters across permutation-letter words


def pi_action(w: Word, m: int) -> tuple[Word, int]:
    """Carry a splitting letter across a pure ``p`` word, left to right.

        v_m' * w  ~  w' * v_k'   with k the preimage of m under w

    A composition of single-letter moves (pv-shift, pv-split,
    pv-split-up, pv-far and their rearrangements), each of which tracks
    the moving index through one adjacent transposition.  Letter indices
    grow by at most one.  Inverting this move for ``invert(w)`` gives the
    mirror move ``w * v_m ~ v_k * invert(l)``, where
    ``(l, k) = pi_action(invert(w), m)`` and k is the image of m under w.
    """
    check_alphabet(w, frozenset({Family.PI}), "pi_action")
    if m < 0:
        raise ValueError("pi_action: index must be nonnegative")
    c = m
    out: list[Gen] = []
    for g in w:
        a, e = g.index, g.exponent
        if a == c:
            out += (Gen(Family.PI, a + 1, e), Gen(Family.PI, a, e))
            c = a + 1
        elif a == c - 1:
            out += (Gen(Family.PI, a, e), Gen(Family.PI, a + 1, e))
            c = a
        elif a > c:
            out.append(Gen(Family.PI, a + 1, e))
        else:
            out.append(g)
    return tuple(out), c


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
_KIND = {Family.V: 0, Family.PI: 2, Family.PIBAR: 4}
_FAMILY = (Family.V, Family.V, Family.PI, Family.PI, Family.PIBAR, Family.PIBAR)


def _encode(w: Word) -> list[int]:
    return [g.index << 3 | _KIND[g.family] | (g.exponent < 0) for g in w]


def _decode(codes: list[int]) -> Word:
    return tuple([Gen(_FAMILY[x & 7], x >> 3, 1 - 2 * (x & 1)) for x in codes])


def _flush_v_letters(codes: list[int], s: int, start: int, budget: Budget, op: str) -> list[int]:
    """Sweep every ``v^s`` letter to its end of the coded list (the left
    for ``s = 1``, the right for ``s = -1``) and strip those letters off.

    The positive sweep moves the leftmost stray, a ``v`` after the leading
    run of them, past its left neighbour by the rules of the module
    docstring; past ``pb_a^e`` with ``a < c``, ``v_c`` is replayed as
    ``v_a ... v_(c-2) v_(c-1)^2 pb_(c+1)^e p_c^e ... p_a^e``.  Both pb
    moves shrink a multiset measure, so the sweep ends.  Each move is one
    step of ``op``.  The search starts at ``start``, at or before the
    first stray, and resumes at ``p - 1`` after a move at ``p``: the move
    rewrote only the pair ending at ``p``, and no letter before it was a
    stray, so this finds the stray a full rescan would.

    The inverse sweep is the positive one with every v exponent negated,
    run on the list reversed in place: each rule that moves ``v_c'``
    rightward past a letter, read backwards, is the rule that moves
    ``v_c`` leftward past it with v exponents negated.  So it makes the
    same moves in the same order, rightmost stray first, with the same
    steps.
    """
    mover = int(s < 0)
    if mover:
        codes.reverse()
        start = len(codes) - 1 - start
    head = 0
    while True:
        n = len(codes)
        while head < n and codes[head] & 7 == mover:
            head += 1
        p = max(start, head)
        while p < n and codes[p] & 7 != mover:
            p += 1
        if p == n:
            break
        budget.spend(op)
        x, y = codes[p], codes[p - 1]
        c, a, kind = x >> 3, y >> 3, y & 7
        if kind < 2:
            # a v^-s: a stray never follows a v^s
            if a == c:
                del codes[p - 1:p + 1]
            elif a < c:
                codes[p - 1], codes[p] = x + 8, y
            else:
                codes[p - 1], codes[p] = x, y + 8
        elif kind < 4:
            if a == c:
                codes[p - 1:p + 1] = x + 8, y, y + 8
            elif a == c - 1:
                codes[p - 1:p + 1] = x - 8, y + 8, y
            else:
                codes[p - 1], codes[p] = x, y + 8 if a > c else y
        elif a > c:
            codes[p - 1], codes[p] = x, y + 8
        elif a == c:
            codes[p - 1], codes[p] = y - 2, y + 8
        else:
            k = c - a
            codes[p - 1:p + 1] = [*range(x - (k << 3), x - 8, 8), x - 8, x - 8,
                                  y + ((k + 1) << 3), *range(y - 2 + (k << 3), y - 10, -8)]
        start = p - 1
    spill = codes[:head]
    del codes[:head]
    if mover:
        codes.reverse()
        spill.reverse()
    return spill


def to_first_form(w: Word, budget: Budget | None = None) -> LMRForm:
    """Sort a v/p/pb word into left-middle-right shape (heights unset).

    The inverse movers start right of the flushed positive letters and
    move away, so only p/pb letters are left."""
    check_alphabet(w, _BV_ALPHABET, "to_first_form")
    budget = budget if budget is not None else Budget()
    codes = _encode(free_reduce(w))
    left = _flush_v_letters(codes, 1, 0, budget, "to_first_form")
    right = _flush_v_letters(codes, -1, len(codes) - 1, budget, "to_first_form")
    return LMRForm(L=_decode(left), M=free_reduce(_decode(codes)), R=_decode(right))


# ---------------------------------------------------------------------------
# Monosyllables and raising


@dataclass(frozen=True)
class Monosyllable:
    """A p/pb word containing exactly one pb letter, split around it."""

    pre: Word
    core: Gen
    post: Word

    def __post_init__(self) -> None:
        if self.core.family is not Family.PIBAR:
            raise ValueError(f"monosyllable core must be a pb letter, got {self.core!r}")
        check_alphabet(self.pre, frozenset({Family.PI}), "Monosyllable.pre")
        check_alphabet(self.post, frozenset({Family.PI}), "Monosyllable.post")

    def word(self) -> Word:
        return self.pre + (self.core,) + self.post

    def height(self) -> HeightSet:
        return self._height

    @cached_property
    def _height(self) -> HeightSet:
        # the equalization sweeps ask every syllable for its height many
        # times; the syllable is immutable, so compute it once
        return word_height(self.word())

    def single_height(self) -> int:
        h = self.height()
        if h.kind != "single":
            raise ValueError(f"monosyllable has no single height: {self!r}")
        return h.value

    def inverse(self) -> "Monosyllable":
        return Monosyllable(invert(self.post), self.core.inverse(), invert(self.pre))


def split_monosyllables(m_word: Word) -> list[Monosyllable]:
    """Cut a p/pb word just after each pb letter (trailing p goes last)."""
    check_alphabet(m_word, _MIDDLE_ALPHABET, "split_monosyllables")
    cores = [i for i, g in enumerate(m_word) if g.family is Family.PIBAR]
    if not cores:
        raise ValueError("split_monosyllables: word has no pb letter")
    out = []
    start = 0
    for n, pos in enumerate(cores):
        post = m_word[pos + 1:] if n == len(cores) - 1 else ()
        out.append(Monosyllable(m_word[start:pos], m_word[pos], post))
        start = pos + 1
    return out


def mono_raise(
    syl: Monosyllable,
    op: Literal["a", "d"],
    m: int | None = None,
) -> tuple[Word, Monosyllable, Word]:
    """One height-raising move on a monosyllable of single height h.

    op="a":  M        ~  M' v_j'          (returns ((), M', (v_j',)))
    op="d":  v_m' M   ~  M'  or  M' v_j'  (0 <= m < h)

    In both cases M' is again a monosyllable, of height {h + 1}, and any
    emitted index j satisfies j < h.  The core moves are the two
    rearrangements of pbv-absorb,

        pb_(h-1)^e  =  p_(h-1)^e pb_h^e v_(h-1)'
        pb_(h-1)^e  =  v_(h-1) pb_h^e p_(h-1)^e

    with the freed v letter carried out through the flanking p words.

    The leftward moves are these on the inverse syllable.  Write
    ``mirror(P, M', S) = (invert(S), M'.inverse(), invert(P))``; then

        M      ~  v_j M'            is  mirror(mono_raise(syl.inverse(), "a"))
        M v_m  ~  M'  or  v_j M'    is  mirror(mono_raise(syl.inverse(), "d", m))
    """
    h = syl.single_height()
    e = syl.core.exponent
    if op == "d":
        if m is None or not 0 <= m < h:
            raise ValueError(f"mono_raise op {op!r} needs an index 0 <= m < {h}, got {m}")
    elif m is not None:
        raise ValueError(f"mono_raise op {op!r} takes no index")

    if op == "a":
        post, j = pi_action(syl.post, h - 1)
        new = Monosyllable(syl.pre + (Gen(Family.PI, h - 1, e),), Gen(Family.PIBAR, h, e), post)
        return (), new, (Gen(Family.V, j, -1),)
    if op == "d":
        pre, k = pi_action(syl.pre, m)
        if k == h - 1:
            new = Monosyllable(pre, Gen(Family.PIBAR, h, e), (Gen(Family.PI, h - 1, e),) + syl.post)
            return (), new, ()
        post, j = pi_action(syl.post, k)
        return (), Monosyllable(pre, Gen(Family.PIBAR, h, e), post), (Gen(Family.V, j, -1),)
    raise ValueError(f"mono_raise: unknown op {op!r}")


def raise_word_heights(syllables: Sequence[Monosyllable]) -> tuple[list[Monosyllable], Gen | None]:
    """Raise every height by one along a nondecreasing syllable sequence.

    The first syllable spills a trailing inverse v (op "a"); each later
    syllable absorbs the spill (op "d"), possibly re-emitting one.  The
    nondecreasing precondition guarantees each spilled index stays below
    the next height.  Returns the raised syllables and the final spill.
    """
    heights = [s.single_height() for s in syllables]
    if any(x > y for x, y in zip(heights, heights[1:])):
        raise ValueError(f"raise_word_heights: heights must be nondecreasing, got {heights}")
    out: list[Monosyllable] = []
    carry: Gen | None = None
    for syl in syllables:
        if carry is None:
            _, new, spill = mono_raise(syl, "a")
        else:
            _, new, spill = mono_raise(syl, "d", m=carry.index)
        out.append(new)
        carry = spill[0] if spill else None
    return out, carry


def _concat_syllables(syllables: Sequence[Monosyllable]) -> Word:
    out: Word = ()
    for s in syllables:
        out += s.word()
    return out


def raise_m(m_word: Word, side: Literal["left", "right"]) -> tuple[Word, Word]:
    """Raise the height of a middle word by one, spilling one v letter.

    side="right":  M ~ first + second, second an inverse v word (len <= 1)
    side="left":   M ~ first + second, first a positive v word (len <= 1)

    A middle without pb letters has a tail height set, which already
    contains every larger height, so it is returned unchanged.
    """
    if word_height(m_word).is_empty:
        raise ValueError("raise_m: middle word must have nonempty height")
    if all(g.family is Family.PI for g in m_word):
        return ((), m_word) if side == "left" else (m_word, ())
    if side == "right":
        raised, spill = raise_word_heights(split_monosyllables(m_word))
        return _concat_syllables(raised), ((spill,) if spill else ())
    if side == "left":
        raised, spill = raise_word_heights(split_monosyllables(invert(m_word)))
        emitted = (spill.inverse(),) if spill else ()
        return emitted, invert(_concat_syllables(raised))
    raise ValueError(f"raise_m: side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# Third form and the word problem


def l_height_bound(l_word: Word) -> int:
    """A height bound for a positive v word, by the fold

        k -> k + 1    if m <= k - 1
        k -> m + 2    otherwise

    starting from 0 (the two branches agree at m = k - 1).
    """
    check_alphabet(l_word, frozenset({Family.V}), "l_height_bound")
    k = 0
    for g in l_word:
        if g.exponent < 0:
            raise AlphabetError("l_height_bound: word must be positive")
        k = k + 1 if g.index <= k - 1 else g.index + 2
    return k


def _repair_syllable_heights(middle: Word, budget: Budget) -> tuple[Word, Word, Word]:
    """Split pb letters until every monosyllable has a single height.

    A monosyllable's height set is empty exactly when some p index in it
    reaches the pb index.  The two rearrangements of pbv-absorb,

        pb_c^e  =  v_c pb_(c+1)^e p_c^e       (the v leaves leftward)
        pb_c^e  =  p_c^e pb_(c+1)^e v_c'      (the v leaves rightward)

    raise the pb index by one per use while the offending p run, lying on
    the far side of the flush, keeps its indices, so the pb index
    overtakes the run.  The trailing p run is leveled first, since its
    flushes travel left and may disturb anything earlier; then each pb
    letter's preceding run in left-to-right order.  A right flush keeps
    every leveled run to its right level: crossing bumps a p index by at
    most one per passing v against exactly one for the run's pb index,
    and the p letter deposited by an absorption sits just below the
    absorbing pb letter's raised index.  Returns (left spill, middle,
    right spill); the spills are v words.

    Both loops run on the int coding of ``_flush_v_letters``.  A split
    flushes only the v letter it inserted, from where it was inserted.
    A flush of both signs would make the same moves: the letters are pure
    p/pb before the split, and every rule emits v letters of the mover's
    sign only, so the sweep of the other sign finds nothing.  A right
    split leaves the letters up to the raised pb letter in place, so the
    scan for the next run to level resumes there.
    """
    codes = _encode(middle)
    left_spill: list[int] = []
    right_spill: list[int] = []

    while True:
        last = len(codes) - 1
        while not codes[last] & 4:
            last -= 1
        x = codes[last]
        if max(codes[last + 1:], default=-1) < x & ~7:  # every later p index < c
            break
        budget.spend("repair_heights")
        # v_c pb_(c+1)^e p_c^e
        codes[last:last + 1] = x & ~7, x + 8, x - 2
        left_spill += _flush_v_letters(codes, 1, last, budget, "repair_heights")

    start = 0
    while True:
        pos = start
        while pos < len(codes) and not codes[pos] & 4:
            pos += 1
        if pos == len(codes):
            break
        x = codes[pos]
        if max(codes[start:pos], default=-1) < x & ~7:  # the run's p indices < c
            start = pos + 1
            continue
        budget.spend("repair_heights")
        # p_c^e pb_(c+1)^e v_c'
        codes[pos:pos + 1] = x - 2, x + 8, x & ~7 | 1
        right_spill[:0] = _flush_v_letters(codes, -1, pos + 2, budget, "repair_heights")

    return _decode(left_spill), _decode(codes), _decode(right_spill)


def _equalize_heights(
    syllables: list[Monosyllable],
    budget: Budget,
) -> tuple[list[Gen], list[Monosyllable], list[Gen]]:
    """Bring all syllable heights to a common value.

    Two sweeps.  The first makes the heights nondecreasing by raising
    suffix blocks (always nondecreasing, by induction from the right),
    spilling inverse v letters past the word's right end.  The second
    levels each prefix up to the next height: a leveled prefix has
    constant heights, so its inversion is again nondecreasing and the
    right-spilling raise applies, with the spill inverting back to a
    positive v letter past the word's left end.  The second sweep keeps
    the whole list inverted while it runs, so each syllable is inverted
    twice in all rather than twice per raise.  Returns (left spill,
    syllables, right spill).
    """
    right_spill: list[Gen] = []
    for j in range(len(syllables) - 1, 0, -1):
        target = max(s.single_height() for s in syllables[:j])
        while syllables[j].single_height() < target:
            budget.spend("equalize_heights")
            raised, spill = raise_word_heights(syllables[j:])
            syllables[j:] = raised
            if spill is not None:
                right_spill.insert(0, spill)

    left_spill: list[Gen] = []
    n = len(syllables)
    if syllables[0].single_height() < max(s.single_height() for s in syllables):
        # A syllable and its inverse have the same height, so the sweep
        # runs on the inverted list, where the prefix syllables[:j] is
        # inv[n - j:], and inverts back once at the end.
        inv = [s.inverse() for s in reversed(syllables)]
        for j in range(1, n):
            target = inv[n - 1 - j].single_height()
            while inv[-1].single_height() < target:
                budget.spend("equalize_heights")
                raised, spill = raise_word_heights(inv[n - j:])
                inv[n - j:] = raised
                if spill is not None:
                    left_spill.append(spill.inverse())
        syllables[:] = [s.inverse() for s in reversed(inv)]
    heights = {s.single_height() for s in syllables}
    if len(heights) != 1:
        raise AssertionError(f"equalization failed: {heights}")
    return left_spill, syllables, right_spill


def to_third_form(w: Word, budget: Budget | None = None) -> LMRForm:
    """The decision form: L M R with a height k that bounds all three parts.

    The middle's height set contains k, and both L and the inverse of R
    have height bound at most k, so the middle translates into a braid
    word on the strands below k while L and R read as monoid letters.
    """
    budget = budget if budget is not None else Budget()
    first = to_first_form(w, budget)
    left, middle, right = list(first.L), first.M, list(first.R)

    if all(g.family is Family.PI for g in middle):
        height = word_height(middle)
        k = max(l_height_bound(tuple(left)), l_height_bound(invert(tuple(right))), height.value)
        return LMRForm(tuple(left), middle, tuple(right), height, k)

    lspill, repaired, rspill = _repair_syllable_heights(middle, budget)
    left += lspill
    right[:0] = rspill
    syllables = split_monosyllables(repaired)
    lspill, syllables, rspill = _equalize_heights(syllables, budget)
    left += lspill
    right[:0] = rspill
    middle = _concat_syllables(syllables)
    h = syllables[0].single_height()

    while True:
        k1 = l_height_bound(tuple(left))
        k2 = l_height_bound(invert(tuple(right)))
        if k1 <= h and k2 <= h:
            break
        budget.spend("to_third_form")
        if k1 <= h < k2 or (k1 > h and k2 > h):
            emitted, middle = raise_m(middle, "left")
            left += list(emitted)
        else:
            middle, emitted = raise_m(middle, "right")
            right[:0] = list(emitted)
        h += 1

    height = word_height(middle)
    if not height.contains(h):
        raise AssertionError(f"to_third_form: the middle's height set {height!r} misses {h}")
    return LMRForm(tuple(left), middle, tuple(right), height, h)


def m_to_sigma(m_word: Word, h: int) -> Word:
    """Translate a middle word of height h into a braid word of ``s`` letters.

    pb letters sit at index h - 1 and map to ``s_0``; p letters at index
    i map to ``s_(h-1-i)``.  Exponents are kept.
    """
    if not word_height(m_word).contains(h):
        raise ValueError(f"m_to_sigma: {h} is not a height of the word")
    out = []
    for g in m_word:
        if g.family is Family.PIBAR:
            out.append(Gen(Family.SIGMA, 0, g.exponent))
        else:
            out.append(Gen(Family.SIGMA, h - 1 - g.index, g.exponent))
    return tuple(out)


def is_trivial_bv(w: Word, mode: BVMode, budget: Budget | None = None) -> bool:
    """Decide the word problem of V or BV.

    Trivial iff the middle's braid translation is trivial (its strand
    permutation, for V) and the outer v letters, read as monoid letters,
    are trivial in F.
    """
    check_alphabet(w, _BV_ALPHABET, "is_trivial_bv")
    budget = budget if budget is not None else Budget()
    form = to_third_form(w, budget)
    sigma = m_to_sigma(form.M, form.k)
    if mode is BVMode.BV:
        if not is_trivial_braid(sigma, budget):
            return False
    else:
        if not from_sigma_word(sigma).is_identity():
            return False
    outer = tuple(Gen(Family.LAMBDA, g.index, g.exponent) for g in form.L + form.R)
    return is_trivial_f(outer)


def equal_bv(w1: Word, w2: Word, mode: BVMode, budget: Budget | None = None) -> bool:
    return is_trivial_bv(w1 + invert(w2), mode, budget)
