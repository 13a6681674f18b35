"""Letters, words, and the generator expansion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvwords.words import (
    AlphabetError,
    Family,
    Gen,
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
    word,
)


def test_letter_constructors():
    g = lam(3)
    assert (g.family, g.index, g.exponent) == (Family.LAMBDA, 3, 1)
    assert sig(0, -1).exponent == -1
    assert vgen(2).family is Family.V
    assert pi(1).family is Family.PI
    assert pibar(4, -1).family is Family.PIBAR


def test_letter_validation():
    with pytest.raises(ValueError):
        lam(-1)
    with pytest.raises(ValueError):
        sig(-1)
    with pytest.raises(ValueError):
        sig(0, 2)
    with pytest.raises(ValueError):
        pi(1, 0)


def test_token_round_trip():
    assert lam(0).token() == "l0"
    assert pibar(3, -1).token() == "pb3'"
    assert repr(sig(2)) == "s2"


def test_inverse_involution():
    g = pi(5, -1)
    assert g.inverse() == pi(5)
    assert g.inverse().inverse() == g


def test_word_builder():
    w = word(lam(0), lam(1), lam(0, -1))
    assert w == (lam(0), lam(1), lam(0, -1))


def test_free_reduce_stack():
    w = (lam(0), lam(1), lam(1, -1), lam(0, -1), sig(2))
    assert free_reduce(w) == (sig(2),)
    assert free_reduce(()) == ()


def test_free_reduce_cascading():
    # cancellation exposes a new cancelling pair
    w = (vgen(3), pi(0), pi(0, -1), vgen(3, -1), pibar(1))
    assert free_reduce(w) == (pibar(1),)


def test_invert_reverses_and_flips():
    w = (lam(0), sig(1, -1))
    assert invert(w) == (sig(1), lam(0, -1))
    assert free_reduce(w + invert(w)) == ()


def test_check_alphabet():
    check_alphabet((lam(0), sig(1)), frozenset({Family.LAMBDA, Family.SIGMA}), "test")
    with pytest.raises(AlphabetError):
        check_alphabet((vgen(0),), frozenset({Family.LAMBDA}), "test")


def test_expansion_base_cases():
    assert expand_bv_generators((vgen(0),)) == (lam(0), lam(1), lam(0, -1), lam(0, -1))
    assert expand_bv_generators((pibar(0),)) == (lam(0), sig(0), lam(0, -1))
    assert expand_bv_generators((pi(0),)) == (lam(0), lam(0), sig(1), lam(0, -1), lam(0, -1))


def test_expansion_respects_inverses():
    w = (pi(2, -1),)
    assert expand_bv_generators(w) == invert(expand_bv_generators((pi(2),)))


def test_expansion_is_homomorphic():
    rng = random.Random(5)
    fams = (Family.V, Family.PI, Family.PIBAR)
    for _ in range(50):
        w1 = random_word(rng, fams, max_index=3, max_len=4)
        w2 = random_word(rng, fams, max_index=3, max_len=4)
        joint = expand_bv_generators(w1 + w2)
        assert free_reduce(joint) == free_reduce(
            expand_bv_generators(w1) + expand_bv_generators(w2)
        )


def _ref_expansion(g):
    """One letter's l/s block, built through the validating constructors;
    an inverse letter's block is the inverted positive block."""
    n = g.index
    if g.family is Family.V:
        base = [lam(0)] * (n + 1) + [lam(1)] + [lam(0, -1)] * (n + 2)
    elif g.family is Family.PI:
        base = [lam(0)] * (n + 2) + [sig(1)] + [lam(0, -1)] * (n + 2)
    else:
        base = [lam(0)] * (n + 1) + [sig(0)] + [lam(0, -1)] * (n + 1)
    return base if g.exponent > 0 else list(invert(base))


BV_WORDS = st.lists(
    st.builds(Gen, st.sampled_from((Family.V, Family.PI, Family.PIBAR)),
              st.integers(0, 6), st.sampled_from((1, -1))),
    max_size=12,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(BV_WORDS)
def test_expansion_matches_per_letter_blocks(w):
    assert expand_bv_generators(w) == free_reduce([x for g in w for x in _ref_expansion(g)])


@settings(max_examples=300, deadline=None)
@given(BV_WORDS, BV_WORDS)
def test_expansion_homomorphism(w1, w2):
    assert expand_bv_generators(w1 + w2) == \
        free_reduce(expand_bv_generators(w1) + expand_bv_generators(w2))


@settings(max_examples=300, deadline=None)
@given(BV_WORDS)
def test_expansion_commutes_with_inversion(w):
    # with the product rule above, the expansion is a group homomorphism
    # from the free group on v/p/pb letters
    assert expand_bv_generators(invert(w)) == invert(expand_bv_generators(w))
    assert expand_bv_generators(w + invert(w)) == ()


def test_random_word_bounds():
    rng = random.Random(0)
    for _ in range(100):
        w = random_word(rng, (Family.LAMBDA,), max_index=4, max_len=7, signed=False)
        assert len(w) <= 7
        assert all(g.index <= 4 and g.exponent == 1 for g in w)
