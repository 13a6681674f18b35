"""Finitely supported permutations and the image of transposition words."""

import random

import pytest

from bvwords.perms import (
    Permutation,
    compose,
    from_adjacent_transpositions,
    from_sigma_word,
)
from bvwords.words import AlphabetError, pi, sig


def test_identity_and_support():
    e = Permutation.identity()
    assert e.is_identity()
    assert e.support() == ()
    assert e.apply(17) == 17


def test_transposition():
    t = Permutation.transposition(2, 5)
    assert t.apply(2) == 5 and t.apply(5) == 2 and t.apply(3) == 3
    with pytest.raises(ValueError):
        Permutation.transposition(1, 1)


def test_mapping_must_be_bijective():
    with pytest.raises(ValueError):
        Permutation({0: 1, 1: 2})


def test_compose_applies_right_factor_first():
    t01 = Permutation.transposition(0, 1)
    t12 = Permutation.transposition(1, 2)
    # q acts first in compose(p, q)
    assert compose(t01, t12).apply(2) == 0
    assert compose(t12, t01).apply(2) == 1


def test_sigma_word_rightmost_letter_acts_first():
    p = from_sigma_word((sig(0), sig(1)))
    assert p.apply(2) == 0
    assert p.apply(0) == 1


def test_image_is_multiplicative():
    rng = random.Random(9)
    for _ in range(100):
        w1 = tuple(sig(rng.randrange(5)) for _ in range(rng.randrange(6)))
        w2 = tuple(sig(rng.randrange(5)) for _ in range(rng.randrange(6)))
        assert from_sigma_word(w1 + w2) == compose(from_sigma_word(w1), from_sigma_word(w2))


def test_sigma_word_ignores_exponents():
    assert from_sigma_word((sig(3, -1),)) == from_sigma_word((sig(3),))


def test_sigma_word_rejects_p_letters():
    for w in ((pi(1),), (pi(0), pi(0)), (sig(0), pi(1)), (pi(1), sig(0))):
        with pytest.raises(AlphabetError):
            from_sigma_word(w)


def test_inverse():
    rng = random.Random(21)
    for _ in range(50):
        p = from_adjacent_transpositions(rng.randrange(6) for _ in range(8))
        assert compose(p, p.inverse()).is_identity()
        assert p.inverse().inverse() == p


def test_adjacent_word_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        p = from_adjacent_transpositions(rng.randrange(7) for _ in range(rng.randrange(12)))
        assert from_adjacent_transpositions(p.adjacent_word()) == p


def test_adjacent_word_of_identity_is_empty():
    assert Permutation.identity().adjacent_word() == ()


def test_cycles():
    p = from_adjacent_transpositions((0, 1))
    assert p.cycles() == [(0, 1, 2)]
    assert Permutation.identity().cycles() == []


def test_three_cycle_order():
    p = from_adjacent_transpositions((0, 1))
    assert compose(p, compose(p, p)).is_identity()
    assert not compose(p, p).is_identity()
