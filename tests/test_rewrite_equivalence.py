"""The resumed rewrite scans against plain full-rescan references.

Each reference below is the straightforward version of a hot loop: it
rescans the whole word before every rewrite, or rebuilds a value letter by
letter.  The package's loops resume next to the last rewrite instead, and
must pick the same sites in the same order, so on random words the outputs
are equal and, where the loop spends from a ``Budget``, so is the number of
steps spent.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvwords.braid import _reduce_handle, free_reduce_braid, handle_reduce, word_to_braid
from bvwords.bv_lmr import (
    HeightSet,
    _equalize_heights,
    _flush_v_letters,
    _push_negative_v_right,
    _push_positive_v_left,
    _repair_syllable_heights,
    letter_height,
    pi_action,
    raise_word_heights,
    split_monosyllables,
    to_first_form,
    word_height,
)
from bvwords.hatgroups import (
    GroupMode,
    HatFraction,
    _is_positive,
    canonicalize_hat,
    push_lambda_inverse_right,
    push_sigma_past_lambda,
)
from bvwords.limits import Budget, StepLimitExceeded
from bvwords.perms import Permutation, compose, from_adjacent_transpositions, from_sigma_word
from bvwords.thompson_f import f_fraction, normalize_monoid
from bvwords.words import AlphabetError, Family, Gen, free_reduce, invert, lam, pi

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


def _ref_handle_reduce(b, budget):
    w = list(free_reduce_braid(b))
    while True:
        found = _ref_leftmost_handle(w)
        if found is None:
            return tuple(w)
        budget.spend("handle_reduce")
        _reduce_handle(w, *found)


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
    beta = from_sigma_word(middle) if mode is GroupMode.VHAT else word_to_braid(middle)
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


def _ref_word_height(w):
    out = HeightSet.tail(0)
    for g in w:
        out = out.intersect(letter_height(g))
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


def _ref_flush_v_letters(letters_, budget, op):
    while True:
        p = _ref_stray_positive_v(letters_)
        if p is None:
            break
        budget.spend(op)
        _push_positive_v_left(letters_, p)
    while True:
        p = _ref_stray_negative_v(letters_)
        if p is None:
            break
        budget.spend(op)
        _push_negative_v_right(letters_, p)
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


def _ref_equalize_heights(syllables, budget):
    right_spill = []
    for j in range(len(syllables) - 1, 0, -1):
        target = max(s.single_height() for s in syllables[:j])
        while syllables[j].single_height() < target:
            budget.spend("equalize_heights")
            raised, spill = raise_word_heights(syllables[j:])
            syllables[j:] = raised
            if spill is not None:
                right_spill.insert(0, spill)
    left_spill = []
    for j in range(1, len(syllables)):
        target = syllables[j].single_height()
        while syllables[0].single_height() < target:
            budget.spend("equalize_heights")
            inv = [s.inverse() for s in reversed(syllables[:j])]
            raised, spill = raise_word_heights(inv)
            syllables[:j] = [s.inverse() for s in reversed(raised)]
            if spill is not None:
                left_spill.append(spill.inverse())
    return left_spill, syllables, right_spill


# ---------------------------------------------------------------------------
# Equivalence


HAT = (Family.LAMBDA, Family.SIGMA)
BV = (Family.V, Family.PI, Family.PIBAR)


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from((1, -1))), max_size=40).map(tuple))
def test_handle_reduce_matches_full_rescan(b):
    assert outcome(handle_reduce, b) == outcome(_ref_handle_reduce, b)


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
    # the folds charge each carried letter's pushes in one spend; at a cap
    # this small the step count often runs out inside such a block
    assert capped_outcome(cap, lambda budget: canonicalize_hat(w, mode, budget)) == \
        capped_outcome(cap, lambda budget: _ref_canonicalize_hat(w, mode, budget))


@SETTINGS
@given(letters((Family.LAMBDA,), max_index=6, max_size=40))
@example(CANCEL_THEN_SITE_BEFORE)
def test_f_fraction_matches_full_rescan(w):
    assert f_fraction(w) == _ref_f_fraction(w)


@pytest.mark.parametrize("seed", range(8))
def test_pi_action_right_matches_prepending(seed):
    rng = random.Random(seed)
    for _ in range(5):
        top = rng.choice((3, 12, 40))
        w = tuple(pi(rng.randint(0, top), rng.choice((1, -1))) for _ in range(rng.randint(300, 900)))
        m = rng.randint(0, 14)
        assert pi_action(w, m, "right") == _ref_pi_action_right(w, m)


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

    assert outcome(lambda budget: run(_flush_v_letters, budget)) == \
        outcome(lambda budget: run(_ref_flush_v_letters, budget))


@SETTINGS
@given(letters(BV, max_index=4, max_size=16))
def test_equalize_heights_matches_full_inversion(w):
    middle = to_first_form(w).M
    if not any(g.family is Family.PIBAR for g in middle):
        return
    _, repaired, _ = _repair_syllable_heights(middle, Budget(CAP))
    syllables = split_monosyllables(tuple(repaired))

    def run(equalize, budget):
        return equalize(list(syllables), budget)

    assert outcome(lambda budget: run(_equalize_heights, budget)) == \
        outcome(lambda budget: run(_ref_equalize_heights, budget))
