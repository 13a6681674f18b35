"""Monoid normal forms and the fraction decider for F."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvwords.cli import parse_word
from bvwords.limits import Budget, StepLimitExceeded
from bvwords.thompson_f import (
    FNormal,
    _normal_indices,
    equal_f,
    f_fraction,
    is_trivial_f,
    normalize_monoid,
)
from bvwords.words import AlphabetError, Family, Gen, check_alphabet, invert, lam, random_word, sig


def _random_order_normalize(indices, rng):
    """Independent rewriter: resolve a random descent until none remain."""
    idx = list(indices)
    while True:
        descents = [i for i in range(len(idx) - 1) if idx[i] > idx[i + 1]]
        if not descents:
            return tuple(idx)
        i = rng.choice(descents)
        q, m = idx[i], idx[i + 1]
        idx[i], idx[i + 1] = m, q + 1


def _all_normal_forms(indices):
    """Every normal form reachable by any rewrite order (should be one)."""
    seen = set()
    stack = [tuple(indices)]
    finals = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        descents = [i for i in range(len(cur) - 1) if cur[i] > cur[i + 1]]
        if not descents:
            finals.add(cur)
            continue
        for i in descents:
            stack.append(cur[:i] + (cur[i + 1], cur[i] + 1) + cur[i + 2:])
    return finals


def test_normalize_frozen_example():
    assert normalize_monoid(parse_word("l5 l3 l1")) == FNormal((1, 4, 7))


def test_normalize_fixes_sorted_words():
    w = parse_word("l0 l0 l2 l5")
    assert normalize_monoid(w) == FNormal((0, 0, 2, 5))


@pytest.mark.parametrize("indices", [(-1,), (-2, 0, 3), (-1, -1)])
def test_fnormal_rejects_a_negative_index(indices):
    # the nondecreasing check reaches every later index from the first
    with pytest.raises(ValueError, match="nonnegative and nondecreasing"):
        FNormal(indices)


def test_normalize_rejects_inverses_and_wrong_family():
    with pytest.raises(AlphabetError):
        normalize_monoid((lam(0, -1),))
    with pytest.raises(AlphabetError):
        normalize_monoid(parse_word("v0"))


def test_normalize_shape_properties():
    rng = random.Random(31)
    for _ in range(200):
        w = random_word(rng, (Family.LAMBDA,), max_index=6, max_len=9, signed=False)
        n = normalize_monoid(w).indices
        assert len(n) == len(w)
        assert all(a <= b for a, b in zip(n, n[1:]))


def test_normalize_confluence_exhaustive():
    # every rewrite order reaches the same normal form
    rng = random.Random(7)
    for _ in range(60):
        w = random_word(rng, (Family.LAMBDA,), max_index=5, max_len=7, signed=False)
        finals = _all_normal_forms(g.index for g in w)
        assert finals == {normalize_monoid(w).indices}


def test_normalize_matches_random_order_rewrites():
    rng = random.Random(13)
    for _ in range(200):
        w = random_word(rng, (Family.LAMBDA,), max_index=8, max_len=12, signed=False)
        expected = normalize_monoid(w).indices
        for _ in range(3):
            assert _random_order_normalize((g.index for g in w), rng) == expected


def test_fraction_frozen_examples():
    assert f_fraction(parse_word("l1 l2'")) == (FNormal((1,)), FNormal((2,)))
    assert f_fraction(parse_word("l1' l2")) == (FNormal((3,)), FNormal((1,)))
    assert f_fraction(()) == (FNormal(()), FNormal(()))


def test_fraction_cancels_common_factors():
    # l0 l3 l3' l0' collapses to the trivial fraction
    w = parse_word("l0 l3 l3' l0'")
    assert f_fraction(w) == (FNormal(()), FNormal(()))


def test_fraction_reconstruction():
    rng = random.Random(3)
    for _ in range(150):
        w = random_word(rng, (Family.LAMBDA,), max_index=5, max_len=8)
        p, n = f_fraction(w)
        assert equal_f(w, p.word() + invert(n.word()))


def test_fraction_parts_are_normal():
    rng = random.Random(17)
    for _ in range(150):
        w = random_word(rng, (Family.LAMBDA,), max_index=5, max_len=8)
        p, n = f_fraction(w)
        for part in (p.indices, n.indices):
            assert all(a <= b for a, b in zip(part, part[1:]))


def test_trivial_iff_parts_match():
    assert is_trivial_f(())
    assert is_trivial_f(parse_word("l2 l1 l1' l2'"))
    # the defining relation, as a relator
    assert is_trivial_f(parse_word("l2 l1 l3' l1'"))
    assert not is_trivial_f(parse_word("l1 l2'"))


def test_generators_distinct():
    assert not equal_f(parse_word("l1"), parse_word("l2"))


def test_equal_f_is_a_congruence():
    rng = random.Random(23)
    for _ in range(50):
        w = random_word(rng, (Family.LAMBDA,), max_index=4, max_len=6)
        c = random_word(rng, (Family.LAMBDA,), max_index=4, max_len=4)
        # conjugation by c preserves triviality
        assert is_trivial_f(c + w + invert(w) + invert(c))


def test_f_fraction_spends_one_step_per_push():
    # l2' pushes past l0, then past l5 (as l6), and stops: two pushes
    w = (lam(2, -1), lam(0), lam(5))
    budget = Budget()
    assert f_fraction(w, budget) == f_fraction(w)
    assert budget.used == 2
    with pytest.raises(StepLimitExceeded) as info:
        f_fraction(w, Budget(1))
    assert info.value.operation == "f_fraction"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 8), max_size=14))
def test_normal_indices_match_normalize_monoid(indices):
    expected = _random_order_normalize(indices, random.Random(0))
    assert _normal_indices(list(indices)) == expected
    assert normalize_monoid(tuple(lam(i) for i in indices)).indices == expected


@pytest.mark.parametrize("bad", (sig(0), Gen(Family.LAMBDA, 0, 2), Gen(Family.LAMBDA, -1, 1)), ids=repr)
@pytest.mark.parametrize("w", [
    lambda bad: (lam(0), lam(0, -1), bad, lam(1)),
    lambda bad: (lam(1), lam(0), lam(0, -1), bad),
], ids=["after a cancelled pair", "at the end"])
def test_f_fraction_alphabet_error_matches_check_alphabet(bad, w):
    w = w(bad)
    with pytest.raises(AlphabetError) as expected:
        check_alphabet(w, frozenset({Family.LAMBDA}), "f_fraction")
    with pytest.raises(AlphabetError) as got:
        f_fraction(w)
    assert str(got.value) == str(expected.value)


def _ref_normal_indices(indices):
    """``_normal_indices`` rebuilding the tail at every insertion."""
    out = []
    for i in indices:
        pos = len(out)
        while pos > 0 and out[pos - 1] > i:
            pos -= 1
        out[pos:] = [i] + [x + 1 for x in out[pos:]]
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), max_size=40))
@example(list(range(30, 0, -1)))
@example([5] * 12)
@example([3, 3, 1, 1, 0, 0, 2, 2])
def test_normal_indices_match_rebuild_every_insertion(indices):
    assert _normal_indices(list(indices)) == _ref_normal_indices(indices)
