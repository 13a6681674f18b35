"""The resumed rewrite scans against plain full-rescan references.

Each reference below is the straightforward version of a hot loop: it
rescans the whole word before every rewrite, or rebuilds a value letter by
letter.  The package's loops resume next to the last rewrite instead, and
must pick the same sites in the same order, so on random words the outputs
are equal and, where the loop spends from a ``Budget``, so is the number of
steps spent.  The LMR route's int-coded loops are held the same way to the
letter-level versions they replaced, which are kept here.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Literal, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvwords import bv_lmr
from bvwords.braid import handle_reduce, is_trivial_braid, is_trivial_braid_by_coordinates
from bvwords.bv_lmr import (
    _FAMILY,
    BVMode,
    HeightSet,
    LMRForm,
    Monosyllable,
    _cable,
    _cut,
    _decode,
    _encode,
    _equalize_heights,
    _flank_perm,
    _flush_v_letters,
    _free_codes,
    _height_bound,
    _invert_codes,
    _PermSyllable,
    _perm_syllables,
    _raise_to_third_form,
    _repair_syllable_heights,
    _syllable,
    is_trivial_bv,
    m_to_sigma,
    mono_raise,
    pi_action,
    raise_m,
    raise_word_heights,
    split_monosyllables,
    to_first_form,
    to_third_form,
    word_height,
)
from bvwords.cli import build_parser, parse_word
from bvwords.hatgroups import GroupMode, HatFraction, canonicalize_hat
from bvwords.limits import Budget, StepLimitExceeded
from bvwords.perms import Permutation, compose, from_adjacent_transpositions, from_sigma_word
from bvwords.presentations import FAMILIES, GroupId, finite_presentation_instances, instantiate_family
from bvwords.thompson_f import (
    _collect_codes,
    _reduced_codes,
    f_fraction,
    is_trivial_f,
    normalize_monoid,
)
from bvwords.words import (
    AlphabetError,
    Family,
    Gen,
    Word,
    check_alphabet,
    expand_bv_generators,
    free_reduce,
    invert,
    lam,
    pi,
    pibar,
    random_word,
    sig,
    vgen,
)

CAP = 200_000
SETTINGS = settings(max_examples=300, deadline=None)


def letters(families, max_index=5, max_size=24):
    """Random words; half of them over indices 0..2, where rewrites meet
    and cancel more often."""
    def words(top):
        return st.lists(
            st.builds(Gen, st.sampled_from(families), st.integers(0, top), st.sampled_from((1, -1))),
            max_size=max_size,
        ).map(tuple)

    return st.one_of(words(min(2, max_index)), words(max_index))


# l1' meets the l1 that pushing l2' left behind and cancels; the pair just
# before the cancelled one, l0' l6, is the next site
CANCEL_THEN_SITE_BEFORE = (lam(0, -1), lam(1, -1), lam(2, -1), lam(1), lam(5))


def outcome(fn, *args):
    """(result, steps spent), or ("cap", steps) when the step cap was hit."""
    budget = Budget(CAP)
    try:
        return fn(*args, budget), budget.used
    except StepLimitExceeded:
        return "cap", budget.used


def capped_outcome(cap, fn, *args):
    """Like ``outcome`` at the given cap, also naming the operation that hit it."""
    budget = Budget(cap)
    try:
        return fn(*args, budget), budget.used
    except StepLimitExceeded as e:
        return ("cap", e.operation), budget.used


# ---------------------------------------------------------------------------
# References: the full-rescan forms of the loops


def _ref_leftmost_handle(w):
    for close in range(1, len(w)):
        k, f = w[close].index, w[close].exponent
        for open_ in range(close - 1, -1, -1):
            k2, e2 = w[open_].index, w[open_].exponent
            if k2 == k:
                if e2 == -f:
                    return open_, close
                break
            if k2 == k - 1:
                break
    return None


def _ref_handle_reduce(b, budget):
    w = list(free_reduce(b))
    while True:
        found = _ref_leftmost_handle(w)
        if found is None:
            return tuple(w)
        budget.spend("handle_reduce")
        open_, close = found
        k, e = w[open_].index, w[open_].exponent
        interior = []
        for g in w[open_ + 1:close]:
            if g.index == k + 1:
                interior += [sig(k + 1, -e), sig(k, g.exponent), sig(k + 1, e)]
            else:
                interior.append(g)
        w[open_:close + 1] = interior


# The single-letter rules of ``canonicalize_hat``'s two phases, as the
# full-rescan reference applies them; ``test_hatgroups`` checks them too.


def _is_positive(g: Gen) -> bool:
    return g.family is Family.SIGMA or g.exponent > 0


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


def _ref_canonicalize_hat(w, mode, budget):
    letters_ = list(free_reduce(w))
    while True:
        site = None
        for p in range(len(letters_) - 2, -1, -1):
            g = letters_[p]
            if g.family is Family.LAMBDA and g.exponent < 0 and _is_positive(letters_[p + 1]):
                site = p
                break
        if site is None:
            break
        budget.spend("canonicalize_hat")
        letters_[site:site + 2] = push_lambda_inverse_right(letters_[site], letters_[site + 1])
    while True:
        site = None
        for p in range(len(letters_) - 1):
            g, h = letters_[p], letters_[p + 1]
            if g.family is Family.SIGMA and h.family is Family.LAMBDA and h.exponent > 0:
                site = p
                break
        if site is None:
            break
        budget.spend("canonicalize_hat")
        letters_[site:site + 2] = push_sigma_past_lambda(letters_[site], letters_[site + 1])
    first_sigma = next((i for i, g in enumerate(letters_) if g.family is Family.SIGMA), len(letters_))
    first_neg = next(
        (i for i, g in enumerate(letters_) if g.family is Family.LAMBDA and g.exponent < 0),
        len(letters_),
    )
    split = min(first_sigma, first_neg)
    middle = tuple(letters_[split:first_neg])
    beta = from_sigma_word(middle) if mode is GroupMode.VHAT else middle
    return HatFraction(
        f_part=normalize_monoid(tuple(letters_[:split])),
        beta=beta,
        g_part=normalize_monoid(invert(tuple(letters_[first_neg:]))),
        mode=mode,
    )


def _ref_f_fraction(w):
    letters_ = list(free_reduce(w))
    while True:
        site = None
        for p in range(len(letters_) - 2, -1, -1):
            if letters_[p].exponent < 0 and letters_[p + 1].exponent > 0:
                site = p
                break
        if site is None:
            break
        m = letters_[site].index
        q = letters_[site + 1].index
        if m == q:
            del letters_[site:site + 2]
        elif m < q:
            letters_[site:site + 2] = [lam(q + 1), lam(m, -1)]
        else:
            letters_[site:site + 2] = [lam(q), lam(m + 1, -1)]
    cut = next((i for i, g in enumerate(letters_) if g.exponent < 0), len(letters_))
    return normalize_monoid(tuple(letters_[:cut])), normalize_monoid(invert(tuple(letters_[cut:])))


# family -> (a, b, core): the letter of index n expands to
# l0^(n+a) core l0'^(n+b), and its inverse to l0^(n+b) core' l0'^(n+a)
_REF_EXPANSION = {Family.V: (1, 2, lam(1)), Family.PI: (2, 2, sig(1)), Family.PIBAR: (1, 1, sig(0))}


def _ref_expand_bv_generators(w):
    """``expand_bv_generators`` as it was first written: every letter's
    full expansion, then ``free_reduce`` over the whole word."""
    check_alphabet(w, frozenset(_REF_EXPANSION), "expand_bv_generators")
    out = []
    for g in w:
        a, b, core = _REF_EXPANSION[g.family]
        if g.exponent < 0:
            a, b, core = b, a, core.inverse()
        out += [lam(0)] * (g.index + a)
        out.append(core)
        out += [lam(0, -1)] * (g.index + b)
    return free_reduce(out)


def _codes(w):
    """An l/s word as the codes ``index << 2 | kind`` of ``_collect_codes``."""
    kind = {(Family.LAMBDA, 1): 0, (Family.LAMBDA, -1): 2, (Family.SIGMA, 1): 1, (Family.SIGMA, -1): 3}
    return [g.index << 2 | kind[g.family, g.exponent] for g in w]


def _ref_pi_action_right(w, m):
    """``pi_action(side="right")`` as it was first written: prepending."""
    c = m
    out = []
    for g in reversed(w):
        a, e = g.index, g.exponent
        if a == c:
            out[:0] = [pi(a, e), pi(a + 1, e)]
            c = a + 1
        elif a == c - 1:
            out[:0] = [pi(a + 1, e), pi(a, e)]
            c = a
        elif a > c:
            out.insert(0, pi(a + 1, e))
        else:
            out.insert(0, g)
    return tuple(out), c


def _ref_from_adjacent_transpositions(indices):
    result = Permutation.identity()
    for i in indices:
        result = compose(result, Permutation.transposition(i, i + 1))
    return result


def _ref_decode(codes):
    return tuple([Gen(_FAMILY[x & 7], x >> 3, 1 - 2 * (x & 1)) for x in codes])


def _ref_m_to_sigma(m_word, h):
    out = []
    for g in m_word:
        if g.family is Family.PIBAR:
            out.append(Gen(Family.SIGMA, 0, g.exponent))
        else:
            out.append(Gen(Family.SIGMA, h - 1 - g.index, g.exponent))
    return tuple(out)


def _ref_is_trivial_v(w, budget):
    """V's verdict by the word path: the public third form, its middle as
    a braid word, that word's permutation image, and the outer F check."""
    form = to_third_form(w, budget)
    if not from_sigma_word(m_to_sigma(form.M, form.k)).is_identity():
        return False
    return is_trivial_f(tuple(lam(g.index, g.exponent) for g in form.L + form.R), budget)


def _ref_letter_height(g):
    if g.family is Family.PIBAR:
        return HeightSet.singleton(g.index + 1)
    if g.family is Family.PI:
        return HeightSet.tail(g.index + 2)
    raise AlphabetError(f"_ref_letter_height: {g!r} has no height")


def _ref_word_height(w):
    out = HeightSet.tail(0)
    for g in w:
        out = out.intersect(_ref_letter_height(g))
    return out


def _ref_stray_positive_v(letters_):
    seen_other = False
    for idx, g in enumerate(letters_):
        if g.family is Family.V and g.exponent > 0:
            if seen_other:
                return idx
        else:
            seen_other = True
    return None


def _ref_stray_negative_v(letters_):
    seen_other = False
    for idx in range(len(letters_) - 1, -1, -1):
        g = letters_[idx]
        if g.family is Family.V and g.exponent < 0:
            if seen_other:
                return idx
        else:
            seen_other = True
    return None


def opi_commute(m, k, exponent):
    """Carry a splitting letter across a single pb letter, k strands up.

        pb_m^e * v_(m+k)   ~  first + second  with
        first  = v_m ... v_(m+k-2) v_(m+k-1)^2
        second = pb_(m+k+1)^e p_(m+k)^e ... p_m^e

    The package makes this move on int-coded letters inside
    ``_flush_v_letters``; this is its letter form.
    """
    if k < 1:
        raise ValueError("opi_commute: need k >= 1 (k = 0 is pbv-absorb)")
    if m < 0 or exponent not in (1, -1):
        raise ValueError(f"opi_commute: bad instance (m={m}, exponent={exponent})")
    v_block = tuple(vgen(j) for j in range(m, m + k - 1)) + (vgen(m + k - 1), vgen(m + k - 1))
    second = (pibar(m + k + 1, exponent),) + tuple(pi(j, exponent) for j in range(m + k, m - 1, -1))
    return v_block, second


def _ref_push_v_left(letters_, p, s):
    """One move of the stray ``v_c^s`` at position p past its left
    neighbour, on letters: the move ``_flush_v_letters`` makes on codes.

    For ``s = -1`` every rule is the ``s = 1`` rule with each v exponent
    negated; p and pb letters keep theirs.
    """
    c = letters_[p].index
    nb = letters_[p - 1]
    a, e = nb.index, nb.exponent
    if nb.family is Family.V:
        # neighbour is a v^-s (a stray never follows a v^s)
        if a == c:
            del letters_[p - 1:p + 1]
        elif a < c:
            letters_[p - 1:p + 1] = [vgen(c + 1, s), vgen(a, -s)]
        else:
            letters_[p - 1:p + 1] = [vgen(c, s), vgen(a + 1, -s)]
    elif nb.family is Family.PI:
        if a == c:
            letters_[p - 1:p + 1] = [vgen(c + 1, s), pi(a, e), pi(a + 1, e)]
        elif a == c - 1:
            letters_[p - 1:p + 1] = [vgen(c - 1, s), pi(a + 1, e), pi(a, e)]
        elif a > c:
            letters_[p - 1:p + 1] = [vgen(c, s), pi(a + 1, e)]
        else:
            letters_[p - 1:p + 1] = [vgen(c, s), pi(a, e)]
    elif nb.family is Family.PIBAR:
        if a > c:
            letters_[p - 1:p + 1] = [vgen(c, s), pibar(a + 1, e)]
        elif a == c:
            letters_[p - 1:p + 1] = [pi(a, e), pibar(a + 1, e)]
        else:
            first, second = opi_commute(a, c - a, e)
            if s < 0:
                first = tuple(g.inverse() for g in first)
            letters_[p - 1:p + 1] = [*first, *second]
    else:
        raise AssertionError(f"unexpected neighbour {nb!r}")


def _ref_opi_commute_left(m, k, exponent):
    """The ``side="left"`` form ``opi_commute`` had before the inverse
    sweep became the positive one on the reversed list:

        v_(m+k)' * pb_m^e  ~  first + second  with
        first  = p_m^e ... p_(m+k)^e pb_(m+k+1)^e
        second = (v_m ... v_(m+k-2) v_(m+k-1)^2)'
    """
    if k < 1:
        raise ValueError("opi_commute: need k >= 1 (k = 0 is pbv-absorb)")
    if m < 0 or exponent not in (1, -1):
        raise ValueError(f"opi_commute: bad instance (m={m}, exponent={exponent})")
    v_block = tuple(vgen(j) for j in range(m, m + k - 1)) + (vgen(m + k - 1), vgen(m + k - 1))
    first = tuple(pi(j, exponent) for j in range(m, m + k + 1)) + (pibar(m + k + 1, exponent),)
    return first, invert(v_block)


def _ref_push_negative_v_right(letters, p):
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
            first, second = _ref_opi_commute_left(a, c - a, e)
            letters[p:p + 2] = list(first) + list(second)
    else:
        raise AssertionError(f"unexpected neighbour {nb!r}")


def _ref_flush_v_letters(letters_, budget, op):
    """Both sweeps with full rescans; the inverse sweep pushes rightward
    with its own rules, an oracle for the package's sweep on the reversed
    list."""
    while True:
        p = _ref_stray_positive_v(letters_)
        if p is None:
            break
        budget.spend(op)
        _ref_push_v_left(letters_, p, 1)
    while True:
        p = _ref_stray_negative_v(letters_)
        if p is None:
            break
        budget.spend(op)
        _ref_push_negative_v_right(letters_, p)
    head = 0
    while head < len(letters_) and letters_[head].family is Family.V and letters_[head].exponent > 0:
        head += 1
    tail = len(letters_)
    while tail > head and letters_[tail - 1].family is Family.V and letters_[tail - 1].exponent < 0:
        tail -= 1
    prefix, suffix = letters_[:head], letters_[tail:]
    del letters_[tail:]
    del letters_[:head]
    return prefix, suffix


def _flush(letters_, budget, op):
    """The package's two flushes, as ``to_first_form`` runs them, on a
    letter list."""
    codes = _encode(letters_)
    prefix = _flush_v_letters(codes, 0, budget, op)
    mirror = _invert_codes(codes)
    suffix = _invert_codes(_flush_v_letters(mirror, 0, budget, op))
    letters_[:] = _decode(_invert_codes(mirror))
    return list(_decode(prefix)), list(_decode(suffix))


def _ref_repair_syllable_heights(middle, budget):
    """Height repair with a full flush of both signs after every split."""
    letters_ = list(middle)
    left_spill = []
    right_spill = []

    def split_core(pos, side):
        g = letters_[pos]
        c, e = g.index, g.exponent
        if side == "left":
            letters_[pos:pos + 1] = [vgen(c), pibar(c + 1, e), pi(c, e)]
        else:
            letters_[pos:pos + 1] = [pi(c, e), pibar(c + 1, e), vgen(c, -1)]
        prefix, suffix = _ref_flush_v_letters(letters_, budget, "repair_heights")
        left_spill.extend(prefix)
        right_spill[:0] = suffix

    while True:
        last = max(i for i, g in enumerate(letters_) if g.family is Family.PIBAR)
        if all(g.index < letters_[last].index for g in letters_[last + 1:]):
            break
        budget.spend("repair_heights")
        split_core(last, "left")

    done = 0
    while True:
        cores = [i for i, g in enumerate(letters_) if g.family is Family.PIBAR]
        if done == len(cores):
            break
        start = cores[done - 1] + 1 if done else 0
        pos = cores[done]
        if all(g.index < letters_[pos].index for g in letters_[start:pos]):
            done += 1
            continue
        budget.spend("repair_heights")
        split_core(pos, "right")

    return left_spill, letters_, right_spill


# The raising chain as it ran on letters before it moved to the int coding:
# the references for ``pi_action``, ``Monosyllable``, ``split_monosyllables``,
# ``mono_raise`` and ``raise_word_heights``.

_MIDDLE_ALPHABET = frozenset({Family.PI, Family.PIBAR})


def _ref_pi_action(w: Word, m: int) -> tuple[Word, int]:
    """``pi_action`` on letters: ``v_m' * w ~ w' * v_k'``."""
    check_alphabet(w, frozenset({Family.PI}), "_ref_pi_action")
    if m < 0:
        raise ValueError("_ref_pi_action: index must be nonnegative")
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


@dataclass(frozen=True)
class _RefMonosyllable:
    """A p/pb word containing exactly one pb letter, split around it."""

    pre: Word
    core: Gen
    post: Word

    def __post_init__(self) -> None:
        if self.core.family is not Family.PIBAR:
            raise ValueError(f"monosyllable core must be a pb letter, got {self.core!r}")
        check_alphabet(self.pre, frozenset({Family.PI}), "_RefMonosyllable.pre")
        check_alphabet(self.post, frozenset({Family.PI}), "_RefMonosyllable.post")

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

    def inverse(self) -> "_RefMonosyllable":
        return _RefMonosyllable(invert(self.post), self.core.inverse(), invert(self.pre))


def _ref_split_monosyllables(m_word: Word) -> list[_RefMonosyllable]:
    """Cut a p/pb word just after each pb letter (trailing p goes last)."""
    check_alphabet(m_word, _MIDDLE_ALPHABET, "_ref_split_monosyllables")
    cores = [i for i, g in enumerate(m_word) if g.family is Family.PIBAR]
    if not cores:
        raise ValueError("_ref_split_monosyllables: word has no pb letter")
    out = []
    start = 0
    for n, pos in enumerate(cores):
        post = m_word[pos + 1:] if n == len(cores) - 1 else ()
        out.append(_RefMonosyllable(m_word[start:pos], m_word[pos], post))
        start = pos + 1
    return out


def _ref_mono_raise(
    syl: _RefMonosyllable,
    op: Literal["a", "d"],
    m: int | None = None,
) -> tuple[Word, _RefMonosyllable, Word]:
    """``mono_raise`` on letters: op "a" spills, op "d" absorbs ``v_m'``."""
    h = syl.single_height()
    e = syl.core.exponent
    if op == "d":
        if m is None or not 0 <= m < h:
            raise ValueError(f"_ref_mono_raise op {op!r} needs an index 0 <= m < {h}, got {m}")
    elif m is not None:
        raise ValueError(f"_ref_mono_raise op {op!r} takes no index")

    if op == "a":
        post, j = _ref_pi_action(syl.post, h - 1)
        new = _RefMonosyllable(syl.pre + (Gen(Family.PI, h - 1, e),), Gen(Family.PIBAR, h, e), post)
        return (), new, (Gen(Family.V, j, -1),)
    if op == "d":
        pre, k = _ref_pi_action(syl.pre, m)
        if k == h - 1:
            new = _RefMonosyllable(pre, Gen(Family.PIBAR, h, e), (Gen(Family.PI, h - 1, e),) + syl.post)
            return (), new, ()
        post, j = _ref_pi_action(syl.post, k)
        return (), _RefMonosyllable(pre, Gen(Family.PIBAR, h, e), post), (Gen(Family.V, j, -1),)
    raise ValueError(f"_ref_mono_raise: unknown op {op!r}")


def _ref_raise_word_heights(syllables: Sequence[_RefMonosyllable]) -> tuple[list[_RefMonosyllable], Gen | None]:
    """``raise_word_heights`` on letters; the final spill is a letter or None."""
    heights = [s.single_height() for s in syllables]
    if any(x > y for x, y in zip(heights, heights[1:])):
        raise ValueError(f"_ref_raise_word_heights: heights must be nondecreasing, got {heights}")
    out: list[_RefMonosyllable] = []
    carry: Gen | None = None
    for syl in syllables:
        if carry is None:
            _, new, spill = _ref_mono_raise(syl, "a")
        else:
            _, new, spill = _ref_mono_raise(syl, "d", m=carry.index)
        out.append(new)
        carry = spill[0] if spill else None
    return out, carry


def _ref_equalize_heights(syllables, budget):
    right_spill = []
    for j in range(len(syllables) - 1, 0, -1):
        target = max(s.single_height() for s in syllables[:j])
        while syllables[j].single_height() < target:
            budget.spend("equalize_heights")
            raised, spill = _ref_raise_word_heights(syllables[j:])
            syllables[j:] = raised
            if spill is not None:
                right_spill.insert(0, spill)
    left_spill = []
    for j in range(1, len(syllables)):
        target = syllables[j].single_height()
        while syllables[0].single_height() < target:
            budget.spend("equalize_heights")
            inv = [s.inverse() for s in reversed(syllables[:j])]
            raised, spill = _ref_raise_word_heights(inv)
            syllables[:j] = [s.inverse() for s in reversed(raised)]
            if spill is not None:
                left_spill.append(spill.inverse())
    return left_spill, syllables, right_spill


# The per-syllable chain: the third form as it ran before equalization
# joined neighbours of one height.  Every syllable is raised on its own, one
# level at a time, by both sweeps and by every final raise, which raises the
# whole list, the left side on the inverted list.  The unreduced chain runs
# it on the repaired middle cut as ``split_monosyllables`` cut it before it
# freely reduced the pieces.  The third forms pinned in ``test_lmr_pins``
# and ``test_selftest_pins`` were recorded on it.


def _unreduced_split(codes: Sequence[int]) -> list[Monosyllable]:
    """``split_monosyllables`` without its free reduction."""
    return [_syllable(h, tuple(piece)) for h, piece in _cut(codes, "_unreduced_split")]


def _concat_syllables(syllables: Sequence[Monosyllable]) -> list[int]:
    return [x for s in syllables for x in s.codes]


def _inverted(syllables):
    return [s.inverse() for s in reversed(syllables)]


def _ref_raise_suffixes(syllables, targets, part, budget):
    """``_raise_suffixes`` without a join or a lift: one raise per
    syllable and per level, each charged as one step."""
    for j in range(len(syllables) - 1, 0, -1):
        for _ in range(targets[j - 1] - syllables[j].h):
            budget.spend("equalize_heights")
            syllables[j:], spill = raise_word_heights(syllables[j:])
            if spill is not None:
                part.append(spill ^ 1)


def _single_raise_chain(first, budget, split):
    """L's codes, the syllables left at height k, R's codes and k of the
    per-syllable chain, after the first form, in either holding."""
    parts = left, rmirror = _encode(first.L), _invert_codes(_encode(first.R))
    syllables = split(_repair_syllable_heights(_encode(first.M), parts, budget))
    _ref_raise_suffixes(syllables, list(accumulate((s.h for s in syllables), max)), rmirror, budget)
    if syllables[0].h < syllables[-1].h:
        inv = _inverted(syllables)
        _ref_raise_suffixes(inv, [s.h for s in inv], left, budget)
        syllables = _inverted(inv)
    k = syllables[0].h
    while True:
        k1, k2 = (_height_bound(x >> 3 for x in part) for part in parts)
        if k1 <= k and k2 <= k:
            break
        budget.spend("to_third_form")
        # spill away from a part whose bound still exceeds k, R' first
        on_left = k2 > k
        raised, spill = raise_word_heights(_inverted(syllables) if on_left else syllables)
        syllables = _inverted(raised) if on_left else raised
        if spill is not None:
            (left if on_left else rmirror).append(spill ^ 1)
        k += 1
    return left, syllables, _invert_codes(rmirror), k


def unreduced_third_form(w: Word, budget: Budget | None = None) -> LMRForm:
    """``to_third_form`` on the unreduced chain, spending the same steps."""
    budget = budget if budget is not None else Budget()
    first = to_first_form(w, budget)
    if not any(g.family is Family.PIBAR for g in first.M):
        return to_third_form(w)    # no syllables: the two chains agree
    left, syllables, right, k = _single_raise_chain(first, budget, _unreduced_split)
    m_word = _decode(_concat_syllables(syllables))
    return LMRForm(_decode(left), m_word, _decode(right), word_height(m_word), k)


def reduce_p_runs(w: Word) -> Word:
    """A p/pb word with every maximal run of p letters freely reduced."""
    out: list[Gen] = []
    for g in w:
        if out and g.family is Family.PI and out[-1] == g.inverse():
            out.pop()
        else:
            out.append(g)
    return tuple(out)


# ``raise_m`` as it ran on code lists: every call scanned the codes, split
# them into syllables (the inverted codes for a left raise) and joined the
# raised syllables again.


def _ref_raise_m(codes: Sequence[int], side: Literal["left", "right"]) -> tuple[list[int], list[int]]:
    """Raise the height of a coded middle word by one, spilling one v code.

    side="right":  M ~ first + second, second an inverse v code (len <= 1)
    side="left":   M ~ first + second, first a positive v code (len <= 1)

    A middle without pb letters has a tail height set, which already
    contains every larger height, so it is returned unchanged.
    """
    if side not in ("left", "right"):
        raise ValueError(f"raise_m: side must be 'left' or 'right', got {side!r}")
    if any(x & 6 not in (2, 4) for x in codes):
        raise AlphabetError(f"raise_m: a code outside the p/pb letters in {codes!r}")
    if not any(x & 4 for x in codes):
        return ([], list(codes)) if side == "left" else (list(codes), [])
    if side == "left":
        codes = _invert_codes(codes)
    syllables = _unreduced_split(codes)
    if len({s.core >> 3 for s in syllables}) > 1:
        raise ValueError("raise_m: middle word must have nonempty height")
    raised, spill = raise_word_heights(syllables)
    out, emitted = _concat_syllables(raised), [] if spill is None else [spill]
    if side == "right":
        return out, emitted
    return _invert_codes(emitted), _invert_codes(out)


# ---------------------------------------------------------------------------
# Equivalence


HAT = (Family.LAMBDA, Family.SIGMA)
BV = (Family.V, Family.PI, Family.PIBAR)


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from((1, -1))), max_size=40)
       .map(lambda b: tuple(sig(i, e) for i, e in b)))
def test_handle_reduce_matches_full_rescan(b):
    assert outcome(handle_reduce, b) == outcome(_ref_handle_reduce, b)


BRAID_TOP = 12


def nested_braids(low=0, depth=3):
    """Braid words over indices ``low..BRAID_TOP``, as lists of letters, made
    of free letters and handles ``s_k^e u s_k^-e`` whose interior ``u`` is
    drawn the same way over indices ``k+1`` and up."""
    letter = st.builds(lambda i, e: [sig(i, e)], st.integers(low, BRAID_TOP), st.sampled_from((1, -1)))
    if depth == 0 or low >= BRAID_TOP:
        chunk = letter
    else:
        chunk = st.one_of(letter, st.integers(low, BRAID_TOP - 1).flatmap(
            lambda k: st.builds(lambda e, u: [sig(k, e), *u, sig(k, -e)],
                                st.sampled_from((1, -1)), nested_braids(k + 1, depth - 1))))
    return st.lists(chunk, max_size=8).map(lambda chunks: [g for c in chunks for g in c])


# the handle s0 ... s0' holds the commuting handle s2 s4 s2', cancelled in
# place, before its first letter of index 1, so its splice starts past the
# deleted letters
DELETED_BEFORE_FIRST_RAISED = (sig(0), sig(2), sig(4), sig(2, -1), sig(1), sig(3), sig(0, -1), sig(1))


@SETTINGS
@given(nested_braids().map(lambda b: tuple(b[:200])), st.one_of(st.integers(1, 60), st.just(CAP)))
@example(DELETED_BEFORE_FIRST_RAISED, CAP)
@example(DELETED_BEFORE_FIRST_RAISED, 1)
def test_handle_reduce_matches_full_rescan_on_nested_handles(b, cap):
    assert capped_outcome(cap, handle_reduce, b) == capped_outcome(cap, _ref_handle_reduce, b)


def commuting_braids(low=0, depth=3):
    """Like ``nested_braids``, but each handle's interior is drawn over
    indices ``k+2`` and up, which makes a commuting handle (no letter of
    index ``k+1`` inside), three times in four, and otherwise over ``k+1``
    and up, so the two kinds nest inside each other and mix."""
    if low > BRAID_TOP:
        return st.just([])
    letter = st.builds(lambda i, e: [sig(i, e)], st.integers(low, BRAID_TOP), st.sampled_from((1, -1)))
    if depth == 0 or low == BRAID_TOP:
        chunk = letter
    else:
        chunk = st.one_of(letter, st.tuples(st.integers(low, BRAID_TOP - 1), st.sampled_from((2, 2, 2, 1))).flatmap(
            lambda kd: st.builds(lambda e, u: [sig(kd[0], e), *u, sig(kd[0], -e)],
                                 st.sampled_from((1, -1)), commuting_braids(kd[0] + kd[1], depth - 1))))
    return st.lists(chunk, max_size=8).map(lambda chunks: [g for c in chunks for g in c])


# the commuting handle s3 s5 s3' lies inside the later handle s1 ... s1',
# whose rollback passes over the two deleted letters; both lie inside the
# index-0 handle s0 ... s0', which the scan must still find
COMMUTING_INSIDE_ROLLBACK = (sig(0), sig(3), sig(1), sig(2), sig(3), sig(5), sig(3, -1), sig(1, -1), sig(0, -1))


@SETTINGS
@given(commuting_braids().map(lambda b: tuple(b[:200])), st.one_of(st.integers(1, 60), st.just(CAP)))
@example(COMMUTING_INSIDE_ROLLBACK, CAP)
def test_handle_reduce_matches_full_rescan_on_commuting_handles(b, cap):
    assert capped_outcome(cap, handle_reduce, b) == capped_outcome(cap, _ref_handle_reduce, b)


def _ref_is_trivial_braid(b, budget):
    """The braid decider as the chain of its public steps: the exponent
    sum, the permutation of the letter-level free reduction, and handle
    reduction of the word as given."""
    if sum(g.exponent for g in b) != 0:
        return False
    if not from_sigma_word(free_reduce(b)).is_identity():
        return False
    return handle_reduce(b, budget) == ()


def conjugated_relators():
    """Trivial braids that free reduction alone does not empty: a braid
    relator, conjugated by a random word."""
    relator = st.integers(0, BRAID_TOP - 1).map(
        lambda i: (sig(i), sig(i + 1), sig(i), sig(i + 1, -1), sig(i, -1), sig(i + 1, -1)))
    return st.builds(lambda u, r: tuple(u) + r + invert(tuple(u)), commuting_braids(), relator)


@SETTINGS
@given(st.one_of(nested_braids().map(tuple), commuting_braids().map(tuple), conjugated_relators(),
                 letters((Family.SIGMA,), max_index=3, max_size=40)),
       st.one_of(st.integers(1, 60), st.just(CAP)))
def test_is_trivial_braid_matches_reference_chain(b, cap):
    assert capped_outcome(cap, is_trivial_braid, b) == capped_outcome(cap, _ref_is_trivial_braid, b)


def commutators():
    """Braids ``u v u' v'``: their exponent sum is zero and their strand
    permutation the identity, so they pass both shortcuts."""
    words = letters((Family.SIGMA,), max_index=4, max_size=8)
    return st.builds(lambda u, v: u + v + invert(u) + invert(v), words, words)


@SETTINGS
@given(st.one_of(letters((Family.SIGMA,), max_index=4, max_size=40), conjugated_relators(), commutators()))
def test_coordinates_agree_with_handle_reduction(b):
    assert is_trivial_braid_by_coordinates(b) == (len(handle_reduce(b)) == 0)


@SETTINGS
@given(letters((Family.SIGMA,), max_index=BRAID_TOP, max_size=100))
def test_braid_times_its_inverse_is_trivial_without_steps(b):
    # free reduction empties the word, so no handle is reduced
    budget = Budget(CAP)
    assert is_trivial_braid(b + invert(b), budget)
    assert budget.used == 0


@SETTINGS
@given(st.lists(st.builds(lambda i, kind: i << 3 | kind, st.integers(0, 20), st.integers(0, 5)),
                max_size=60))
def test_decode_table_matches_per_letter_decode(codes):
    w = _decode(codes)
    assert w == _ref_decode(codes)
    assert all(type(g) is Gen for g in w)


@SETTINGS
@given(st.integers(1, 10).flatmap(lambda h: st.tuples(st.just(h), st.lists(st.one_of(
    st.builds(pibar, st.just(h - 1), st.sampled_from((1, -1))),
    st.builds(pi, st.integers(0, h - 2), st.sampled_from((1, -1))) if h >= 2 else st.nothing(),
), max_size=60).map(tuple))))
def test_m_to_sigma_table_matches_per_letter_loop(case):
    h, w = case
    sigma = m_to_sigma(w, h)
    assert sigma == _ref_m_to_sigma(w, h)
    assert all(type(g) is Gen for g in sigma)


@SETTINGS
@given(letters(HAT, max_index=4), st.sampled_from(GroupMode))
@example(CANCEL_THEN_SITE_BEFORE, GroupMode.BVHAT)
def test_canonicalize_hat_matches_full_rescan(w, mode):
    assert outcome(lambda budget: canonicalize_hat(w, mode, budget)) == \
        outcome(lambda budget: _ref_canonicalize_hat(w, mode, budget))


@SETTINGS
@given(letters(HAT, max_index=4), st.sampled_from(GroupMode), st.integers(1, 60))
@example(CANCEL_THEN_SITE_BEFORE, GroupMode.BVHAT, 3)
def test_canonicalize_hat_matches_full_rescan_at_small_caps(w, mode, cap):
    # the fold charges each carried letter's pushes in one spend; at a cap
    # this small the step count often runs out inside such a block
    assert capped_outcome(cap, lambda budget: canonicalize_hat(w, mode, budget)) == \
        capped_outcome(cap, lambda budget: _ref_canonicalize_hat(w, mode, budget))


def test_canonicalize_hat_matches_full_rescan_on_expanded_verify_relators():
    # the hat route's own words, up to 100 l/s letters: the drawn words
    # above stop at 24, so these carry l letters through longer s blocks
    instances = [i for f in FAMILIES for i in instantiate_family(f, 8)] + finite_presentation_instances()
    words = [expand_bv_generators(i.relator()) for i in instances if i.group in (GroupId.V, GroupId.BV)]
    assert len(words) == 712 and max(map(len, words)) == 100
    for w in words:
        for mode in GroupMode:
            got = lambda budget: canonicalize_hat(w, mode, budget)
            ref = lambda budget: _ref_canonicalize_hat(w, mode, budget)
            assert outcome(got) == outcome(ref)
            assert capped_outcome(10, got) == capped_outcome(10, ref)


@SETTINGS
@given(letters((Family.LAMBDA,), max_index=6, max_size=40))
@example(CANCEL_THEN_SITE_BEFORE)
def test_f_fraction_matches_full_rescan(w):
    assert f_fraction(w) == _ref_f_fraction(w)


def bv_words_with_cancelling_tails():
    """v/p/pb words, half of them ``w + invert(w[k:])``, whose tail cancels
    the cores of ``w[k:]`` one after another."""
    return st.one_of(
        letters(BV),
        letters(BV, max_size=12).flatmap(
            lambda w: st.integers(0, len(w)).map(lambda k: w + invert(w[k:]))),
    )


# p0' cancels p0 only after pb2' and v1' have cancelled the two cores
# between them; the powers of l0 around the cascade then merge
CASCADE = (vgen(3), pi(0), pibar(2), vgen(1), vgen(1, -1), pibar(2, -1), pi(0, -1), pi(1))


@SETTINGS
@given(bv_words_with_cancelling_tails())
@example((vgen(2), pi(1), pi(1, -1), vgen(2, -1)))
@example((pibar(0), vgen(0), vgen(0, -1), pibar(0, -1)))
@example(CASCADE)
def test_expand_bv_generators_matches_per_letter_expansion(w):
    expanded = expand_bv_generators(w)
    assert expanded == _ref_expand_bv_generators(w)
    assert all(type(g) is Gen for g in expanded)


@pytest.mark.parametrize("w, expected", [
    ((vgen(2), pi(1), pi(1, -1), vgen(2, -1)), ()),
    ((pibar(0), vgen(0), vgen(0, -1), pibar(0, -1)), ()),
    (CASCADE, (lam(0),) * 4 + (lam(1),) + (lam(0, -1),) * 2 + (sig(1),) + (lam(0, -1),) * 3),
])
def test_expand_bv_generators_cancels_cores(w, expected):
    # the last case is the expansion of v3 p1: the cascade leaves l0'^5 l0^3
    # between their cores, which merge to l0'^2
    assert expand_bv_generators(w) == _ref_expand_bv_generators(w) == expected


@SETTINGS
@given(letters(HAT, max_index=4), letters((Family.SIGMA,), max_index=4))
def test_reduced_codes_encode_free_reduce(w, b):
    assert _reduced_codes(w, frozenset(HAT), "canonicalize_hat") == _codes(free_reduce(w))
    # braid words, which handle reduction reads through the same pass
    assert _reduced_codes(b, frozenset({Family.SIGMA}), "is_trivial_braid") == _codes(free_reduce(b))


@pytest.mark.parametrize("bad", (lam(0), Gen(Family.SIGMA, -1, 1), Gen(Family.SIGMA, 0, 0), Gen(Family.SIGMA, 0, 2)),
                         ids=repr)
@pytest.mark.parametrize("what, read", [
    ("is_trivial_braid", lambda w: _reduced_codes(w, frozenset({Family.SIGMA}), "is_trivial_braid")),
    ("is_trivial_braid", is_trivial_braid),
    ("handle_reduce", handle_reduce),
    ("is_trivial_braid_by_coordinates", is_trivial_braid_by_coordinates),
], ids=["reader", "is_trivial_braid", "handle_reduce", "coordinates"])
def test_braid_reader_rejects_letters_as_check_alphabet(bad, what, read):
    # the letter follows a pair the reader has already cancelled, so it
    # must be met as a separate first pass over the word would meet it
    w = (sig(1), sig(1, -1), bad, sig(0))
    with pytest.raises(AlphabetError) as expected:
        check_alphabet(w, frozenset({Family.SIGMA}), what)
    with pytest.raises(AlphabetError) as got:
        read(w)
    assert str(got.value) == str(expected.value)


@SETTINGS
@given(letters(HAT, max_index=4))
def test_bvhat_middle_is_a_word_of_s_letters(w):
    beta = canonicalize_hat(w, GroupMode.BVHAT, Budget(CAP)).beta
    assert all(type(g) is Gen and g.family is Family.SIGMA for g in beta)
    assert beta == _ref_canonicalize_hat(w, GroupMode.BVHAT, Budget(CAP)).beta


@pytest.mark.parametrize("seed", range(8))
def test_pi_action_right_matches_prepending(seed):
    rng = random.Random(seed)
    for _ in range(5):
        top = rng.choice((3, 12, 40))
        w = tuple(pi(rng.randint(0, top), rng.choice((1, -1))) for _ in range(rng.randint(300, 900)))
        m = rng.randint(0, 14)
        moved, k = pi_action(_encode(invert(w)), m)
        assert (invert(_decode(moved)), k) == _ref_pi_action_right(w, m)


@pytest.mark.parametrize("e", (1, -1))
def test_opi_commute_inverted_matches_left_form(e):
    for m in range(4):
        for k in range(1, 5):
            first, second = opi_commute(m, k, -e)
            assert (invert(second), invert(first)) == _ref_opi_commute_left(m, k, e)


@SETTINGS
@given(st.lists(st.integers(0, 12), max_size=60))
def test_from_adjacent_transpositions_matches_composition(indices):
    expected = _ref_from_adjacent_transpositions(indices)
    assert from_adjacent_transpositions(indices) == expected
    assert from_adjacent_transpositions(iter(indices)) == expected
    assert from_adjacent_transpositions(i for i in indices) == expected


@pytest.mark.parametrize("indices", [(-1,), (0, 3, -2), (2, -1, 2)])
def test_from_adjacent_transpositions_rejects_negative_index(indices):
    with pytest.raises(ValueError):
        _ref_from_adjacent_transpositions(indices)
    with pytest.raises(ValueError):
        from_adjacent_transpositions(i for i in indices)


@SETTINGS
@given(letters((Family.PI, Family.PIBAR), max_index=6))
def test_word_height_matches_height_set_fold(w):
    assert word_height(w) == _ref_word_height(w)


@SETTINGS
@given(letters((Family.PI, Family.PIBAR), max_index=4, max_size=8),
       st.sampled_from((Family.V, Family.LAMBDA, Family.SIGMA)),
       letters((Family.PI, Family.PIBAR), max_index=4, max_size=8))
def test_word_height_rejects_letters_without_height(before, family, after):
    w = before + (Gen(family, 0, 1),) + after
    with pytest.raises(AlphabetError):
        _ref_word_height(w)
    with pytest.raises(AlphabetError):
        word_height(w)


@SETTINGS
@given(letters(BV, max_size=20))
def test_flush_v_letters_matches_full_rescan(w):
    def run(flush, budget):
        rest = list(w)
        prefix, suffix = flush(rest, budget, "to_first_form")
        return prefix, rest, suffix

    assert outcome(lambda budget: run(_flush, budget)) == \
        outcome(lambda budget: run(_ref_flush_v_letters, budget))


def _flush_outcomes(w, cap):
    """The capped outcomes of the package's flushes and of the reference."""
    def run(flush):
        def go(budget):
            rest = list(w)
            prefix, suffix = flush(rest, budget, "to_first_form")
            return prefix, rest, suffix
        return go

    return capped_outcome(cap, run(_flush)), capped_outcome(cap, run(_ref_flush_v_letters))


# ``pb0 pb2 p4`` after its block of three splits: the first v letter is
# replayed past pb0, the next two are carried across four and five letters
FLUSH_BLOCK = parse_word("pb0 v2 v3 v4 pb5 p4 p3 p2 p4")
# 25 flush steps, in carries that cross v' letters and p/pb letters
FLUSH_LONG = parse_word("pb1' p5' pb1' pb4 v5 pb0' p0' v5' pb5' pb1'")


@SETTINGS
@given(letters(BV, max_size=20), st.integers(1, 60))
@example(FLUSH_BLOCK, CAP)
@example(FLUSH_BLOCK, 1)
@example(FLUSH_BLOCK, 2)
@example(FLUSH_BLOCK, 7)
@example(FLUSH_LONG, CAP)
@example(FLUSH_LONG, 20)
def test_flush_v_letters_matches_full_rescan_at_small_caps(w, cap):
    coded, ref = _flush_outcomes(w, cap)
    assert coded == ref


@pytest.mark.parametrize("s", (1, -1))
@pytest.mark.parametrize("e", (1, -1))
def test_int_pb_rule_matches_opi_commute(e, s):
    # when s = -1 the pair is written right to left, v_(m+k)' pb_m^e, and
    # its v' letter is swept rightward: on the mirror, then mirrored back
    for m in range(4):
        for k in range(1, 5):
            first, second = opi_commute(m, k, e)
            if s < 0:
                first = tuple(g.inverse() for g in first)
            pair = (pibar(m, e), vgen(m + k, s))
            budget = Budget(CAP)
            codes = _encode(pair[::s])
            if s < 0:
                codes = _invert_codes(codes)
            spill = _flush_v_letters(codes, 0, budget, "op")
            if s < 0:
                spill, codes = _invert_codes(spill), _invert_codes(codes)
            assert (_decode(spill)[::s], _decode(codes)[::s]) == (first, second)
            assert budget.used == 1
            letters_ = list(pair)
            _ref_push_v_left(letters_, 1, s)
            assert tuple(letters_) == first + second


# the trailing run's second flush crosses pb1 by the replay rule
REPAIR_REPLAY = parse_word("pb1 p0' pb2 p3")
# three splits on the middle, then one on its mirror: 14 steps
REPAIR_BOTH_SIDES = parse_word("p0 pb0 p2")
# the mirror's pass goes on past a leveled pb letter to split the next
REPAIR_SECOND_CORE = parse_word("pb0 p1 pb0")
# pb2 is leveled by one block of three splits, and each of its v letters
# is flushed in turn: 13 steps; caps 1 and 2 fall inside the block, 7
# inside a carry
REPAIR_BLOCK = parse_word("pb0 pb2 p4")
# 403 repair steps on a middle of 21 letters
REPAIR_LONG = parse_word("pb1' p5' pb1' pb4 v5 pb0' p0' v5' pb5' pb1'")


def _repair_outcomes(w, cap):
    """The capped outcomes of height repair on a word's first-form middle,
    the package's and the reference's; both None when it has no pb letter."""
    middle = to_first_form(w).M
    if not any(g.family is Family.PIBAR for g in middle):
        return None, None

    def coded(budget):
        parts = [], []
        repaired = _repair_syllable_heights(_encode(middle), parts, budget)
        return _decode(parts[0]), _decode(repaired), _decode(_invert_codes(parts[1]))

    def ref(budget):
        return tuple(map(tuple, _ref_repair_syllable_heights(middle, budget)))

    return capped_outcome(cap, coded), capped_outcome(cap, ref)


@SETTINGS
@given(letters(BV, max_index=4, max_size=16), st.one_of(st.integers(1, 60), st.just(CAP)))
@example(REPAIR_REPLAY, CAP)
@example(REPAIR_REPLAY, 5)
@example(REPAIR_BOTH_SIDES, CAP)
@example(REPAIR_BOTH_SIDES, 5)
@example(REPAIR_SECOND_CORE, CAP)
@example(REPAIR_SECOND_CORE, 1)
@example(REPAIR_BLOCK, CAP)
@example(REPAIR_BLOCK, 1)
@example(REPAIR_BLOCK, 2)
@example(REPAIR_BLOCK, 7)
@example(REPAIR_LONG, CAP)
@example(REPAIR_LONG, 200)
def test_repair_heights_matches_full_flush(w, cap):
    coded, ref = _repair_outcomes(w, cap)
    assert coded == ref


def test_flush_and_repair_match_references_on_relators_and_selftest_words():
    words = [i.relator() for i in finite_presentation_instances() if i.group in (GroupId.V, GroupId.BV)]
    assert len(words) == 112
    # and the words of ``selftest --samples 1000 --seed 0``, drawn as it draws them
    args = build_parser().parse_args(["selftest", "--samples", "1000", "--seed", "0"])
    rng = random.Random(args.seed)
    words += [random_word(rng, BV, args.max_index, args.max_len) for _ in range(args.samples)]
    for w in words:
        for cap in (CAP, 3, 17, 60):
            for coded, ref in (_flush_outcomes(w, cap), _repair_outcomes(w, cap)):
                assert coded == ref, (w, cap)


def _repaired_middle(w):
    """The height-repaired middle of a word, or None when it has no pb letter."""
    middle = to_first_form(w).M
    if not any(g.family is Family.PIBAR for g in middle):
        return None
    return _decode(_repair_syllable_heights(_encode(middle), ([], []), Budget(CAP)))


@SETTINGS
@given(letters(BV, max_index=4, max_size=16), st.one_of(st.integers(1, 60), st.just(CAP)))
def test_equalize_heights_matches_full_inversion(w, cap):
    # the coded chain, which joins its words, against the letter chain it
    # replaced, itself run with the full inversions of
    # ``_ref_equalize_heights``: the one held word is the letter chain's
    # words with their p runs freely reduced
    middle = _repaired_middle(w)
    if middle is None:
        return

    def coded(budget):
        parts = [], []
        held = _equalize_heights(split_monosyllables(_encode(middle)), parts, budget)
        return _decode(parts[0]), held.word(), _decode(_invert_codes(parts[1]))

    def ref(budget):
        left, syllables, right = _ref_equalize_heights(_ref_split_monosyllables(middle), budget)
        return tuple(left), reduce_p_runs(tuple(g for s in syllables for g in s.word())), tuple(right)

    assert capped_outcome(cap, coded) == capped_outcome(cap, ref)


@SETTINGS
@given(letters(BV, max_index=4, max_size=16), st.integers(1, 4))
def test_raise_word_heights_matches_letter_chain(w, times):
    # a whole nondecreasing run of syllables raised several times over
    middle = _repaired_middle(w)
    if middle is None:
        return
    coded = sorted(_unreduced_split(_encode(middle)), key=lambda s: s.core >> 3)
    ref = sorted(_ref_split_monosyllables(middle), key=lambda s: s.core.index)
    for _ in range(times):
        coded, spill = raise_word_heights(coded)
        ref, ref_spill = _ref_raise_word_heights(ref)
        assert [s.word() for s in coded] == [s.word() for s in ref]
        assert (None if spill is None else _decode((spill,))[0]) == ref_spill
        for syl, ref_syl in zip(coded, ref):
            h = syl.h
            for op, m in [("a", None)] + [("d", m) for m in range(h)]:
                new, spill = mono_raise(syl, m)
                ref_prefix, ref_new, ref_suffix = _ref_mono_raise(ref_syl, op, m=m)
                spilled = _decode([] if spill is None else [spill])
                assert ((), new.word(), spilled) == (ref_prefix, ref_new.word(), ref_suffix)


def raise_m_joined(held, side):
    """``raise_m`` as the code lists ``first + second`` of ``_ref_raise_m``:
    the raised word, with the spill (if any) on its side."""
    raised, spill = raise_m(held, side)
    codes, emitted = list(raised.codes), [] if spill is None else [spill]
    return (emitted, codes) if side == "left" else (codes, emitted)


@SETTINGS
@given(letters(BV, max_index=4, max_size=16))
def test_raise_m_raises_one_held_syllable_on_both_holdings(w):
    # a middle of one height, held as one joined word or one line as
    # ``to_third_form`` hands it to ``raise_m``, raised to either side: the
    # raised word's line is the raised line, with the same spill, and the
    # word is the code-list raise of its codes with the p runs freely reduced
    middle = _repaired_middle(w)
    if middle is None:
        return
    codes = _encode(middle)
    word = _equalize_heights(split_monosyllables(codes), ([], []), Budget(CAP))
    line = _equalize_heights(_perm_syllables(codes), ([], []), Budget(CAP))
    assert _perm_syllables_of([word]) == [line]
    for side in ("left", "right"):
        raised, spill = raise_m(word, side)
        assert raise_m(line, side) == (*_perm_syllables_of([raised]), spill)
        expected = tuple(_encode(reduce_p_runs(_decode(part))) for part in _ref_raise_m(word.codes, side))
        assert raise_m_joined(word, side) == expected


def p_flanks(low=2, high=12):
    """(h, p codes of indices below h - 1, an entry position m < h)."""
    return st.integers(low, high).flatmap(lambda h: st.tuples(
        st.just(h),
        st.lists(st.builds(lambda i, neg: i << 3 | 2 | neg, st.integers(0, h - 2), st.integers(0, 1)),
                 max_size=30),
        st.integers(0, h - 1)))


@SETTINGS
@given(p_flanks())
def test_pi_action_cables_the_flank_permutation(case):
    # the letters ``pi_action`` writes have, as a permutation, the list
    # cabling of the input's permutation, and the strand leaves where it says
    h, codes, m = case
    out, k = pi_action(codes, m)
    assert (_flank_perm(out, h + 1), k) == _cable(_flank_perm(codes, h), m)


def _perm_syllables_of(syllables):
    # each syllable's line: its letters' permutation of the positions 0..h
    return [_PermSyllable(s.h, _flank_perm(s.codes, s.h + 1)) for s in syllables]


@SETTINGS
@given(letters(BV, max_index=4, max_size=16), st.integers(1, 4))
def test_raise_chain_matches_on_words_and_lines(w, times):
    # ``raise_word_heights`` on lines against the same on words, on a
    # nondecreasing run raised several times over
    middle = _repaired_middle(w)
    if middle is None:
        return
    coded = sorted(split_monosyllables(_encode(middle)), key=lambda s: s.core >> 3)
    perms = _perm_syllables_of(coded)
    for _ in range(times):
        coded, spill = raise_word_heights(coded)
        perms, perm_spill = raise_word_heights(perms)
        assert (perms, perm_spill) == (_perm_syllables_of(coded), spill)


# heights 3, 1 and 2: p0 pb2, pb0 and pb1' p0, as codes
_MIXED = [Monosyllable((2,), 20, ()), Monosyllable((), 4, ()), Monosyllable((), 13, (2,))]


@pytest.mark.parametrize("hold", [list, _perm_syllables_of], ids=["words", "lines"])
def test_raise_chain_checks_hold_on_both_holdings(hold):
    with pytest.raises(ValueError, match=re.escape(
            "raise_word_heights: heights must be nondecreasing, got [3, 1, 2]")):
        raise_word_heights(hold(_MIXED))
    with pytest.raises(ValueError, match="raise_m: side must be 'left' or 'right'"):
        raise_m(hold(_MIXED)[0], "up")


def test_v_reaches_the_shared_raise_chain_by_module_name(monkeypatch):
    # one height repair, one equalizing raise and four final raises, all
    # looked up by their module names, where a tracer wraps them
    calls = Counter()

    def counted(name):
        fn = getattr(bv_lmr, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("raise_word_heights", "raise_m"):
        monkeypatch.setattr(bv_lmr, name, counted(name))
    assert is_trivial_bv(parse_word("v3 pb0' p0 p0 pb0 v3'"), BVMode.V)
    assert calls == {"raise_word_heights": 1, "raise_m": 4}


@SETTINGS
@given(letters(BV, max_index=4, max_size=16))
def test_perm_syllables_are_the_lines_of_split_monosyllables(w):
    middle = _repaired_middle(w)
    if middle is None:
        return
    codes = _encode(middle)
    assert _perm_syllables(codes) == _perm_syllables_of(split_monosyllables(codes))


@SETTINGS
@given(letters(BV, max_index=4, max_size=16))
def test_split_reduces_each_piece_as_its_two_flanks(w):
    # a piece holds one pb letter, which no p letter cancels, so the split's
    # one reduction of the whole piece is the per-flank construction
    middle = _repaired_middle(w)
    if middle is None:
        return
    flanks = [Monosyllable(_free_codes(_encode(s.pre)), *_encode((s.core,)), _free_codes(_encode(s.post)))
              for s in _ref_split_monosyllables(middle)]
    assert split_monosyllables(_encode(middle)) == flanks


# p1 pb1 has a p index at the core's, pb1 p2 and p3 pb1 p0 one above it
@pytest.mark.parametrize("piece", [(pi(1), pibar(1)), (pibar(1), pi(2)), (pi(3), pibar(1), pi(0))])
def test_every_cut_rejects_a_piece_of_no_single_height(piece):
    codes = _encode(piece)
    pos = next(i for i, x in enumerate(codes) if x & 4)
    message = re.escape(f"piece {piece!r} has no single height")
    with pytest.raises(ValueError, match=message):
        Monosyllable(codes[:pos], codes[pos], codes[pos + 1:])
    for split in (split_monosyllables, _perm_syllables):
        with pytest.raises(ValueError, match=message):
            split(codes)


@pytest.mark.parametrize("middle, message", [
    ((pi(1), pibar(1)), "no single height"),
    ((pi(0), pi(1)), "no pb letter"),
])
def test_perm_syllables_reject_a_middle_they_cannot_hold(middle, message):
    with pytest.raises(ValueError, match=message):
        _perm_syllables(_encode(middle))


def test_v_path_builds_no_monosyllable(monkeypatch):
    # V's verdicts and steps on the verify relators and on selftest's V
    # words, with every way of making or raising a ``Monosyllable`` broken
    instances = [i for f in FAMILIES for i in instantiate_family(f, 8)] + finite_presentation_instances()
    words = [i.relator() for i in instances if i.group is GroupId.V]
    assert len(words) == 369
    rng = random.Random(0)
    words += [random_word(rng, BV, 5, 10) for _ in range(500)]    # as ``selftest`` draws them
    expected = [outcome(lambda b: _ref_is_trivial_v(w, b)) for w in words]

    def no_monosyllable(*args, **kwargs):
        raise AssertionError("the V path built or raised a Monosyllable")

    for name in ("split_monosyllables", "mono_raise", "_syllable"):
        monkeypatch.setattr(bv_lmr, name, no_monosyllable)
    monkeypatch.setattr(Monosyllable, "__new__", no_monosyllable)
    assert [outcome(lambda b: is_trivial_bv(w, BVMode.V, b)) for w in words] == expected


def v_outcomes(cap, w):
    """The capped outcome of V's permutation path and of the word path."""
    return (capped_outcome(cap, lambda b: is_trivial_bv(w, BVMode.V, b)),
            capped_outcome(cap, lambda b: _ref_is_trivial_v(w, b)))


@SETTINGS
@given(letters(BV, max_size=24), st.one_of(st.integers(1, 60), st.just(CAP)))
def test_v_permutation_path_matches_word_path(w, cap):
    got, ref = v_outcomes(cap, w)
    assert got == ref


def test_v_permutation_path_matches_word_path_on_verify_instances():
    instances = [i for f in FAMILIES for i in instantiate_family(f, 8)] + finite_presentation_instances()
    relators = [i.relator() for i in instances if i.group is GroupId.V]
    assert len(relators) == 369
    for w in relators:
        got, ref = v_outcomes(CAP, w)
        assert got == ref and got[0] is True


# V's and BV's chains against the per-syllable chain: the middle's
# permutation is the product of the lines left at height k, and M is the
# unreduced chain's middle with its p runs freely reduced.


def _ref_v_chain(first, budget):
    """L, the product line, R and k of the per-syllable chain."""
    left, lines, right, k = _single_raise_chain(first, budget, _perm_syllables)
    product = list(range(k + 1))
    for s in lines:
        product = [s.line[y] for y in product]
    return left, product, right, k


def _v_chain(first, budget):
    """The same four values from V's joined chain, which ends on one line."""
    left, (k, line), right = _raise_to_third_form(first, budget, _perm_syllables)
    return left, line, right, k


def _ref_bv_chain(first, budget):
    """L, M, R and k of BV's per-syllable chain on the unreduced flanks,
    M with its p runs freely reduced, as codes."""
    left, syllables, right, k = _single_raise_chain(first, budget, _unreduced_split)
    return left, _encode(reduce_p_runs(_decode(_concat_syllables(syllables)))), right, k


def _bv_chain(first, budget):
    """The same four values from BV's joined chain, which ends on one word."""
    left, (k, codes), right = _raise_to_third_form(first, budget, split_monosyllables)
    return left, list(codes), right, k


def chain_outcomes(cap, w, chain, ref_chain):
    """The capped outcomes of two chains after the word's first form, or
    None when its middle has no pb letter."""
    def run(chain, budget):
        first = to_first_form(w, budget)
        if all(g.family is Family.PI for g in first.M):
            return None
        return chain(first, budget)

    return (capped_outcome(cap, lambda b: run(chain, b)),
            capped_outcome(cap, lambda b: run(ref_chain, b)))


V_CHAIN_CAPS = [CAP, 3, 17, 60]    # CAP: no cap is reached

# equalization lifts pb4' by 4 after one first-form step, and the joined
# cores meet as pb5 pb5; the second word's lift of 3 follows 9 steps.
# Uncapped, to_third_form spends 5 and 12 steps, so caps 3 and 10 stop
# inside the lifts
LIFT_OF_4 = (pibar(1), pibar(1), vgen(2, -1), pibar(4, -1))
LIFT_OF_3 = (pibar(4), pibar(4), pibar(1, -1), vgen(4))


@SETTINGS
@given(letters(BV, max_size=24), st.sampled_from(V_CHAIN_CAPS))
@example(LIFT_OF_4, CAP)
@example(LIFT_OF_4, 3)
@example(LIFT_OF_3, CAP)
@example(LIFT_OF_3, 10)
def test_v_joined_chain_matches_per_syllable_chain(w, cap):
    got, ref = chain_outcomes(cap, w, _v_chain, _ref_v_chain)
    assert got == ref


@SETTINGS
@given(letters(BV, max_size=24), st.sampled_from(V_CHAIN_CAPS))
@example(LIFT_OF_4, CAP)
@example(LIFT_OF_4, 3)
@example(LIFT_OF_3, CAP)
@example(LIFT_OF_3, 10)
def test_bv_joined_chain_matches_per_syllable_chain(w, cap):
    # one lift per suffix and joined words against single raises of every
    # syllable on its own: L, M, R, k, the steps and the capped operation
    got, ref = chain_outcomes(cap, w, _bv_chain, _ref_bv_chain)
    assert got == ref


@pytest.mark.parametrize("cap", V_CHAIN_CAPS)
def test_v_joined_chain_matches_per_syllable_chain_on_finite_relators(cap):
    relators = [i.relator() for i in finite_presentation_instances() if i.group is GroupId.V]
    assert len(relators) == 60
    for w in relators:
        got, ref = chain_outcomes(cap, w, _v_chain, _ref_v_chain)
        assert got == ref


@pytest.mark.parametrize("cap", V_CHAIN_CAPS)
def test_bv_joined_chain_matches_per_syllable_chain_on_finite_relators(cap):
    relators = [i.relator() for i in finite_presentation_instances() if i.group is GroupId.BV]
    assert len(relators) == 52
    for w in relators:
        got, ref = chain_outcomes(cap, w, _bv_chain, _ref_bv_chain)
        assert got == ref


@SETTINGS
@given(letters(BV, max_size=24))
def test_outer_f_check_makes_no_pushes(w):
    # L is a positive v word and R an inverse one, so L + R read as l
    # letters is already a fraction P N': the F check spends no step
    form = to_third_form(w)
    budget = Budget(CAP)
    f_fraction(tuple(lam(g.index, g.exponent) for g in form.L + form.R), budget)
    assert budget.used == 0
