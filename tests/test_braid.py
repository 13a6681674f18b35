"""Handle reduction, Dynnikov coordinates and the braid word problem."""

import random

import pytest

from bvwords.braid import equal_braid, handle_reduce, is_trivial_braid, is_trivial_braid_by_coordinates
from bvwords.limits import MAX_INDEX, Budget, StepLimitExceeded
from bvwords.perms import Permutation, from_sigma_word
from bvwords.words import AlphabetError, Family, Gen, free_reduce, invert, sig


def _s(*pairs):
    return tuple(sig(i, e) for i, e in pairs)


def _random_braid(rng, max_index, max_len):
    n = rng.randrange(max_len + 1)
    return tuple(sig(rng.randrange(max_index + 1), rng.choice((1, -1))) for _ in range(n))


def _insert_relator(b, rng):
    """Splice a defining relator of the braid group into b at a random spot."""
    i = rng.randrange(7)
    if rng.random() < 0.5:
        j = i + 2 + rng.randrange(3)
        rel = _s((i, 1), (j, 1), (i, -1), (j, -1))
    else:
        rel = _s((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1))
    pos = rng.randrange(len(b) + 1)
    return b[:pos] + rel + b[pos:]


def test_braid_word_validation():
    # the braid functions take words of s letters with index >= 0 and
    # exponent +-1; anything else is rejected before any rewriting
    assert handle_reduce((sig(0), sig(3, -1))) == (sig(0), sig(3, -1))
    with pytest.raises(AlphabetError):
        handle_reduce((Gen(Family.SIGMA, -1, 1),))
    with pytest.raises(AlphabetError):
        is_trivial_braid((Gen(Family.SIGMA, 0, 2),))
    with pytest.raises(AlphabetError):
        is_trivial_braid((sig(0), Gen(Family.LAMBDA, 0, -1)))


def test_word_conversion_round_trip():
    # handle reduction works on (index, exponent) pairs inside and reads
    # them back into the same letters
    w = (sig(0), sig(2, -1), sig(1))
    assert handle_reduce(w) == w


def test_free_reduce_and_invert():
    b = _s((0, 1), (1, 1), (1, -1), (0, -1), (2, 1))
    assert free_reduce(b) == _s((2, 1))
    assert free_reduce(b + invert(b)) == ()


def test_permutation_image():
    b = _s((0, 1), (1, -1))
    p = from_sigma_word(b)
    assert p == Permutation({0: 1, 1: 2, 2: 0})


def test_defining_relators_are_trivial():
    far = _s((0, 1), (2, 1), (0, -1), (2, -1))
    braid = _s((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1))
    assert is_trivial_braid(far)
    assert is_trivial_braid(braid)
    assert handle_reduce(far) == ()
    assert handle_reduce(braid) == ()


def test_generators_are_not_trivial():
    assert not is_trivial_braid(_s((0, 1)))
    # order matters: squares survive in the braid group
    assert not is_trivial_braid(_s((0, 1), (0, 1)))
    assert not is_trivial_braid(_s((0, 1), (1, 1), (0, 1), (1, 1)))


def test_inverse_pairs_are_trivial():
    rng = random.Random(41)
    for _ in range(200):
        b = _random_braid(rng, 6, 20)
        assert is_trivial_braid(b + invert(b))


def test_verdict_invariant_under_relator_insertion():
    rng = random.Random(43)
    for _ in range(300):
        b = _random_braid(rng, 6, 12)
        verdict = is_trivial_braid(b)
        assert is_trivial_braid(_insert_relator(b, rng)) == verdict


def test_trivial_implies_invariants_vanish():
    rng = random.Random(47)
    for _ in range(500):
        b = _random_braid(rng, 6, 20)
        if is_trivial_braid(b):
            assert sum(g.exponent for g in b) == 0
            assert from_sigma_word(b).is_identity()


def test_equal_braid():
    lhs = _s((0, 1), (1, 1), (0, 1))
    rhs = _s((1, 1), (0, 1), (1, 1))
    assert equal_braid(lhs, rhs)
    assert not equal_braid(lhs, rhs[:-1])


def test_handle_reduce_preserves_element():
    rng = random.Random(53)
    for _ in range(100):
        b = _random_braid(rng, 5, 14)
        assert equal_braid(b, handle_reduce(b))


def test_handle_reduce_keeps_invariants():
    # the exponent sum and the permutation image are homomorphisms out of
    # the braid group, so every rewrite must keep them; unlike the test
    # above, this does not lean on handle reduction to judge itself
    rng = random.Random(59)
    for _ in range(300):
        b = _random_braid(rng, 6, 16)
        r = handle_reduce(b)
        assert sum(g.exponent for g in r) == sum(g.exponent for g in b)
        assert from_sigma_word(r) == from_sigma_word(b)


def test_budget_cap_raises():
    b = _s((0, 1), (1, 1), (0, -1)) * 10
    with pytest.raises(StepLimitExceeded):
        handle_reduce(b, Budget(limit=2))


@pytest.mark.parametrize("decide", [handle_reduce, is_trivial_braid, is_trivial_braid_by_coordinates])
def test_index_cap(decide):
    # a usage error before ``last``, the permutation or the coordinates
    # allocate in proportion to the index
    with pytest.raises(AlphabetError, match=f"{decide.__name__}: letter index {MAX_INDEX + 1} above {MAX_INDEX}"):
        decide((sig(0), sig(MAX_INDEX + 1)))
    # the cap reads the freely reduced word
    assert decide((sig(MAX_INDEX + 1), sig(MAX_INDEX + 1, -1))) in (True, ())


def test_coordinates_budget_is_one_block():
    relator = _s((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))
    budget = Budget(len(relator))
    assert is_trivial_braid_by_coordinates(relator, budget)
    assert budget.used == len(relator)
    budget = Budget(len(relator) - 1)
    with pytest.raises(StepLimitExceeded) as e:
        is_trivial_braid_by_coordinates(relator, budget)
    assert (e.value.operation, e.value.limit) == ("braid_coordinates", len(relator) - 1)
    assert budget.used == budget.limit + 1
