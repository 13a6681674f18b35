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
from typing import Literal, Sequence

from .braid import BraidWord, is_trivial_braid
from .limits import Budget
from .perms import from_adjacent_transpositions
from .thompson_f import is_trivial_f
from .words import (
    AlphabetError,
    Family,
    Gen,
    Word,
    check_alphabet,
    free_reduce,
    invert,
    lam,
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
    condition: object  # callable(indices) -> bool
    build: object      # callable(indices, exponent) -> (lhs, rhs)


def _fam(rel_id, nparams, takes_exponent, v_only, condition, build):
    return _RelationFamily(rel_id, nparams, takes_exponent, v_only, condition, build)


RELATION_FAMILIES: dict[str, _RelationFamily] = {
    f.rel_id: f
    for f in [
        _fam("vv-shift", 2, False, False, lambda q, m: m < q,
             lambda q, m, e: ((vgen(q), vgen(m)), (vgen(m), vgen(q + 1)))),
        _fam("pv-shift", 2, False, False, lambda q, m: m < q,
             lambda q, m, e: ((pi(q), vgen(m)), (vgen(m), pi(q + 1)))),
        _fam("pv-split", 1, True, False, lambda m: True,
             lambda m, e: ((pi(m, e), vgen(m)), (vgen(m + 1), pi(m, e), pi(m + 1, e)))),
        _fam("pv-far", 2, False, False, lambda q, m: m > q + 1,
             lambda q, m, e: ((pi(q), vgen(m)), (vgen(m), pi(q)))),
        _fam("pbv-shift", 2, False, False, lambda q, m: m < q,
             lambda q, m, e: ((pibar(q), vgen(m)), (vgen(m), pibar(q + 1)))),
        _fam("pbv-absorb", 1, True, False, lambda m: True,
             lambda m, e: ((pibar(m, e), vgen(m)), (pi(m, e), pibar(m + 1, e)))),
        _fam("pp-far", 2, False, False, lambda q, m: q >= m + 2,
             lambda q, m, e: ((pi(q), pi(m)), (pi(m), pi(q)))),
        _fam("pp-braid", 1, False, False, lambda m: True,
             lambda m, e: ((pi(m), pi(m + 1), pi(m)), (pi(m + 1), pi(m), pi(m + 1)))),
        _fam("pbp-far", 2, False, False, lambda q, m: q >= m + 2,
             lambda q, m, e: ((pibar(q), pi(m)), (pi(m), pibar(q)))),
        _fam("pb-braid", 1, False, False, lambda m: True,
             lambda m, e: ((pi(m), pibar(m + 1), pi(m)), (pibar(m + 1), pi(m), pibar(m + 1)))),
        _fam("p-invol", 1, False, True, lambda m: True,
             lambda m, e: ((pi(m), pi(m)), ())),
        _fam("pb-invol", 1, False, True, lambda m: True,
             lambda m, e: ((pibar(m), pibar(m)), ())),
        _fam("pv-split-up", 1, True, False, lambda m: True,
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
    fam = RELATION_FAMILIES[rel_id] if rel_id in RELATION_FAMILIES else None
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


def pi_action(w: Word, m: int, side: Literal["left", "right"]) -> tuple[Word, int]:
    """Carry a splitting letter across a pure ``p`` word.

    side="right":  w * v_m   ~  v_j * w'   with j the image of m under w
    side="left":   v_m' * w  ~  w' * v_k'  with k the preimage of m

    Both are compositions of single-letter moves (pv-shift, pv-split,
    pv-split-up, pv-far and their rearrangements), each of which tracks
    the moving index through one adjacent transposition.  Letter indices
    grow by at most one.
    """
    check_alphabet(w, frozenset({Family.PI}), "pi_action")
    if m < 0:
        raise ValueError("pi_action: index must be nonnegative")
    if side not in ("left", "right"):
        raise ValueError(f"pi_action: side must be 'left' or 'right', got {side!r}")
    # side="right" is side="left" read from the right end: the moves are
    # the same, so carry through the reversed word and reverse the output
    c = m
    out: list[Gen] = []
    for g in (w if side == "left" else reversed(w)):
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
    if side == "right":
        out.reverse()
    return tuple(out), c


def opi_commute(m: int, k: int, exponent: int, side: Literal["left", "right"]) -> tuple[Word, Word]:
    """Carry a splitting letter across a single pb letter, k strands up.

    side="right":  pb_m^e * v_(m+k)   ~  first + second  with
        first  = v_m ... v_(m+k-2) v_(m+k-1)^2
        second = pb_(m+k+1)^e p_(m+k)^e ... p_m^e
    side="left":   v_(m+k)' * pb_m^e  ~  first + second  with
        first  = p_m^e ... p_(m+k)^e pb_(m+k+1)^e
        second = (v_m ... v_(m+k-2) v_(m+k-1)^2)'
    """
    if k < 1:
        raise ValueError("opi_commute: need k >= 1 (k = 0 is pbv-absorb)")
    if m < 0 or exponent not in (1, -1):
        raise ValueError(f"opi_commute: bad instance (m={m}, exponent={exponent})")
    v_block = tuple(vgen(j) for j in range(m, m + k - 1)) + (vgen(m + k - 1), vgen(m + k - 1))
    if side == "right":
        second = (pibar(m + k + 1, exponent),) + tuple(pi(j, exponent) for j in range(m + k, m - 1, -1))
        return v_block, second
    if side == "left":
        first = tuple(pi(j, exponent) for j in range(m, m + k + 1)) + (pibar(m + k + 1, exponent),)
        return first, invert(v_block)
    raise ValueError(f"opi_commute: side must be 'left' or 'right', got {side!r}")


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


def _is_positive_v(g: Gen) -> bool:
    return g.family is Family.V and g.exponent > 0


def _is_negative_v(g: Gen) -> bool:
    return g.family is Family.V and g.exponent < 0


def _push_positive_v_left(letters: list[Gen], p: int) -> None:
    """One move of the stray positive v at position p past its left neighbour."""
    mover = letters[p]
    nb = letters[p - 1]
    c = mover.index
    a, e = nb.index, nb.exponent
    if nb.family is Family.V:
        # neighbour is an inverse v (a stray positive v never follows a positive one)
        if a == c:
            del letters[p - 1:p + 1]
        elif a < c:
            letters[p - 1:p + 1] = [vgen(c + 1), vgen(a, -1)]
        else:
            letters[p - 1:p + 1] = [vgen(c), vgen(a + 1, -1)]
    elif nb.family is Family.PI:
        if a == c:
            letters[p - 1:p + 1] = [vgen(c + 1), pi(a, e), pi(a + 1, e)]
        elif a == c - 1:
            letters[p - 1:p + 1] = [vgen(c - 1), pi(a + 1, e), pi(a, e)]
        elif a > c:
            letters[p - 1:p + 1] = [vgen(c), pi(a + 1, e)]
        else:
            letters[p - 1:p + 1] = [vgen(c), pi(a, e)]
    elif nb.family is Family.PIBAR:
        if a > c:
            letters[p - 1:p + 1] = [vgen(c), pibar(a + 1, e)]
        elif a == c:
            letters[p - 1:p + 1] = [pi(a, e), pibar(a + 1, e)]
        else:
            first, second = opi_commute(a, c - a, e, "right")
            letters[p - 1:p + 1] = list(first) + list(second)
    else:
        raise AssertionError(f"unexpected neighbour {nb!r}")


def _push_negative_v_right(letters: list[Gen], p: int) -> None:
    """One move of the stray inverse v at position p past its right neighbour."""
    mover = letters[p]
    nb = letters[p + 1]
    c = mover.index
    a, e = nb.index, nb.exponent
    if nb.family is Family.V:
        # a positive v to the right of an inverse one cannot remain after
        # the positive sweep, but handle it anyway for safety
        if a == c:
            del letters[p:p + 2]
        elif c < a:
            letters[p:p + 2] = [vgen(a + 1), vgen(c, -1)]
        else:
            letters[p:p + 2] = [vgen(a), vgen(c + 1, -1)]
    elif nb.family is Family.PI:
        if a == c:
            letters[p:p + 2] = [pi(a + 1, e), pi(a, e), vgen(c + 1, -1)]
        elif a == c - 1:
            letters[p:p + 2] = [pi(a, e), pi(a + 1, e), vgen(c - 1, -1)]
        elif a > c:
            letters[p:p + 2] = [pi(a + 1, e), vgen(c, -1)]
        else:
            letters[p:p + 2] = [pi(a, e), vgen(c, -1)]
    elif nb.family is Family.PIBAR:
        if a > c:
            letters[p:p + 2] = [pibar(a + 1, e), vgen(c, -1)]
        elif a == c:
            letters[p:p + 2] = [pibar(a + 1, e), pi(a, e)]
        else:
            first, second = opi_commute(a, c - a, e, "left")
            letters[p:p + 2] = list(first) + list(second)
    else:
        raise AssertionError(f"unexpected neighbour {nb!r}")


def _flush_v_letters(letters: list[Gen], budget: Budget, op: str) -> tuple[list[Gen], list[Gen]]:
    """Sweep every v letter to an end of the list and strip it off.

    Positive v letters are swept to the far left, leftmost stray first;
    then inverse v letters are swept to the far right, rightmost stray
    first.  Sweeping past a pb letter may consume the mover (pbv-absorb)
    or replay it as a block of lower-index movers (opi_commute); both
    strictly shrink a multiset measure, so the sweeps terminate.
    Returns the stripped (prefix, suffix); the remainder is pure p/pb.

    A stray is a positive v after the head (the leading run of positive v
    letters), or an inverse v before the tail (the trailing run of inverse
    v letters).  Neither sweep rescans the word after a move.  A move at
    the leftmost stray ``p`` rewrites only the pair ending at ``p``; the
    letters before it are unchanged and held no stray, so the search
    resumes at ``p - 1``, or past the head if the move extended it.  In the
    inverse sweep the letters after the rewritten pair are unchanged and
    held no stray, so the search resumes at the pair's last letter, or
    before the tail if the move extended it.  Each picks the same stray as
    a full rescan.
    """
    head = start = 0
    while True:
        while head < len(letters) and _is_positive_v(letters[head]):
            head += 1
        p = next((i for i in range(max(start, head), len(letters)) if _is_positive_v(letters[i])), None)
        if p is None:
            break
        budget.spend(op)
        _push_positive_v_left(letters, p)
        start = p - 1
    tail_len = skip = 0
    while True:
        n = len(letters)
        while tail_len < n and _is_negative_v(letters[n - 1 - tail_len]):
            tail_len += 1
        p = next((i for i in range(n - 1 - max(skip, tail_len), -1, -1) if _is_negative_v(letters[i])), None)
        if p is None:
            break
        budget.spend(op)
        skip = n - p - 2
        _push_negative_v_right(letters, p)
    head = 0
    while head < len(letters) and _is_positive_v(letters[head]):
        head += 1
    tail = len(letters)
    while tail > head and _is_negative_v(letters[tail - 1]):
        tail -= 1
    prefix, suffix = letters[:head], letters[tail:]
    del letters[tail:]
    del letters[:head]
    return prefix, suffix


def to_first_form(w: Word, budget: Budget | None = None) -> LMRForm:
    """Sort a v/p/pb word into left-middle-right shape (heights unset)."""
    check_alphabet(w, _BV_ALPHABET, "to_first_form")
    budget = budget if budget is not None else Budget()
    letters = list(free_reduce(w))
    left, right = _flush_v_letters(letters, budget, "to_first_form")
    return LMRForm(L=tuple(left), M=free_reduce(letters), R=tuple(right))


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
    op: Literal["a", "b", "c", "d"],
    m: int | None = None,
) -> tuple[Word, Monosyllable, Word]:
    """One height-raising move on a monosyllable of single height h.

    op="a":  M        ~  M' v_j'          (returns ((), M', (v_j',)))
    op="b":  M        ~  v_j M'           (returns ((v_j,), M', ()))
    op="c":  M v_m    ~  M'  or  v_j M'   (0 <= m < h)
    op="d":  v_m' M   ~  M'  or  M' v_j'  (0 <= m < h)

    In every case M' is again a monosyllable, of height {h + 1}, and any
    emitted index j satisfies j < h.  The core moves are the two
    rearrangements of pbv-absorb,

        pb_(h-1)^e  =  p_(h-1)^e pb_h^e v_(h-1)'
        pb_(h-1)^e  =  v_(h-1) pb_h^e p_(h-1)^e

    with the freed v letter carried out through the flanking p words.
    """
    h = syl.single_height()
    e = syl.core.exponent
    if op in ("c", "d"):
        if m is None or not 0 <= m < h:
            raise ValueError(f"mono_raise op {op!r} needs an index 0 <= m < {h}, got {m}")
    elif m is not None:
        raise ValueError(f"mono_raise op {op!r} takes no index")

    if op == "a":
        post, j = pi_action(syl.post, h - 1, "left")
        new = Monosyllable(syl.pre + (pi(h - 1, e),), pibar(h, e), post)
        return (), new, (vgen(j, -1),)
    if op == "b":
        pre, j = pi_action(syl.pre, h - 1, "right")
        new = Monosyllable(pre, pibar(h, e), (pi(h - 1, e),) + syl.post)
        return (vgen(j),), new, ()
    if op == "c":
        post, k = pi_action(syl.post, m, "right")
        if k == h - 1:
            new = Monosyllable(syl.pre + (pi(h - 1, e),), pibar(h, e), post)
            return (), new, ()
        pre, j = pi_action(syl.pre, k, "right")
        return (vgen(j),), Monosyllable(pre, pibar(h, e), post), ()
    if op == "d":
        pre, k = pi_action(syl.pre, m, "left")
        if k == h - 1:
            new = Monosyllable(pre, pibar(h, e), (pi(h - 1, e),) + syl.post)
            return (), new, ()
        post, j = pi_action(syl.post, k, "left")
        return (), Monosyllable(pre, pibar(h, e), post), (vgen(j, -1),)
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


def _repair_syllable_heights(
    middle: Word,
    budget: Budget,
) -> tuple[list[Gen], list[Gen], list[Gen]]:
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
    absorbing pb letter's raised index.  Returns (left spill, middle
    letters, right spill); the spills are v words.
    """
    letters = list(middle)
    left_spill: list[Gen] = []
    right_spill: list[Gen] = []

    def split_core(pos: int, side: str) -> None:
        g = letters[pos]
        c, e = g.index, g.exponent
        if side == "left":
            letters[pos:pos + 1] = [vgen(c), pibar(c + 1, e), pi(c, e)]
        else:
            letters[pos:pos + 1] = [pi(c, e), pibar(c + 1, e), vgen(c, -1)]
        prefix, suffix = _flush_v_letters(letters, budget, "repair_heights")
        left_spill.extend(prefix)
        right_spill[:0] = suffix

    while True:
        last = max(i for i, g in enumerate(letters) if g.family is Family.PIBAR)
        if all(g.index < letters[last].index for g in letters[last + 1:]):
            break
        budget.spend("repair_heights")
        split_core(last, "left")

    done = 0
    while True:
        cores = [i for i, g in enumerate(letters) if g.family is Family.PIBAR]
        if done == len(cores):
            break
        start = cores[done - 1] + 1 if done else 0
        pos = cores[done]
        if all(g.index < letters[pos].index for g in letters[start:pos]):
            done += 1
            continue
        budget.spend("repair_heights")
        split_core(pos, "right")

    return left_spill, letters, right_spill


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
    syllables = split_monosyllables(tuple(repaired))
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


def m_to_sigma(m_word: Word, h: int) -> BraidWord:
    """Translate a middle word of height h into a braid word.

    pb letters sit at index h - 1 and map to strand 0; p letters at index
    i map to strand h - 1 - i.
    """
    if not word_height(m_word).contains(h):
        raise ValueError(f"m_to_sigma: {h} is not a height of the word")
    out = []
    for g in m_word:
        if g.family is Family.PIBAR:
            out.append((0, g.exponent))
        else:
            out.append((h - 1 - g.index, g.exponent))
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
        if not from_adjacent_transpositions(i for i, _ in sigma).is_identity():
            return False
    outer = tuple(lam(g.index, g.exponent) for g in form.L + form.R)
    return is_trivial_f(outer)


def equal_bv(w1: Word, w2: Word, mode: BVMode, budget: Budget | None = None) -> bool:
    return is_trivial_bv(w1 + invert(w2), mode, budget)
