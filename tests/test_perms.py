"""Finitely supported permutations and the image of transposition words."""

import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvwords import perms
from bvwords.limits import MAX_INDEX
from bvwords.perms import (
    Permutation,
    compose,
    from_adjacent_transpositions,
    from_sigma_word,
)
from bvwords.words import AlphabetError, pi, sig

LAWS = settings(max_examples=300, deadline=None)

# index lists of transposition words; their lines reach at most position 7
index_lists = st.lists(st.integers(0, 6), max_size=12)
permutations = index_lists.map(from_adjacent_transpositions)


@pytest.mark.parametrize("e", [
    Permutation.identity(),
    Permutation({3: 3, 0: 0}),
    from_adjacent_transpositions(()),
    from_adjacent_transpositions((3, 3)),
    from_adjacent_transpositions((0, 5, 5, 0)),
    compose(Permutation.transposition(0, 4), Permutation.transposition(4, 0)),
], ids=["identity", "fixed_points", "empty_word", "s3_s3", "s0_s5_s5_s0", "t_t"])
def test_identity_and_support(e):
    # every build of the identity trims to the empty line
    assert e.is_identity()
    assert e.support() == ()
    assert e.apply(17) == 17 and e.apply(-1) == -1
    assert e == Permutation.identity() and hash(e) == hash(Permutation.identity())
    assert repr(e) == "Permutation()" and e.cycles() == [] and e.adjacent_word() == ()


def test_equal_however_built():
    # the transposition (0 1), built five ways, some leaving fixed points
    # inside or at the end of the line they start from
    t = Permutation.transposition(0, 1)
    builds = [
        Permutation({0: 1, 1: 0, 5: 5}),
        from_adjacent_transpositions((0,)),
        from_adjacent_transpositions((0, 5, 5)),
        compose(Permutation.transposition(1, 5), compose(Permutation.transposition(0, 5),
                                                         Permutation.transposition(1, 5))),
        t.inverse(),
    ]
    for p in builds:
        assert p == t and hash(p) == hash(t)
        assert p.support() == (0, 1) and repr(p) == "Permutation(0 1)"
    # a line with fixed points inside it: 3 and 4 stay where they are
    q = from_adjacent_transpositions((0, 1, 0, 5, 4, 4))
    assert q == Permutation({0: 2, 2: 0, 5: 6, 6: 5, 3: 3})
    assert hash(q) == hash(Permutation({0: 2, 2: 0, 5: 6, 6: 5}))
    assert q.inverse() == q and q.inverse() is not q


def test_apply_off_the_line():
    # a point left of the line or past its end is returned unchanged
    p = from_adjacent_transpositions((0, 1))
    assert [p.apply(x) for x in range(3)] == [1, 2, 0]
    assert p.apply(-1) == -1 and p.apply(-3) == -3
    assert p.apply(2 + 3) == 5 and p(5) == 5


def test_mapping_bound():
    # a moved point above MAX_INDEX + 1 is refused before its line is built
    tracemalloc.start()
    try:
        for build in (lambda: Permutation.transposition(0, MAX_INDEX + 2),
                      lambda: Permutation({MAX_INDEX + 2: 0, 0: MAX_INDEX + 2})):
            with pytest.raises(ValueError, match=f"above {MAX_INDEX + 1}"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_mapping_bound_is_inclusive(monkeypatch):
    # MAX_INDEX + 1 is the largest point a line of an admitted index
    # moves; the bound is checked on a small cap, not at the real one
    monkeypatch.setattr(perms, "MAX_INDEX", 3)
    assert Permutation.transposition(0, 4) == from_adjacent_transpositions((0, 1, 2, 3, 2, 1, 0))
    with pytest.raises(ValueError, match="above 4"):
        Permutation.transposition(0, 5)
    # a fixed point above the bound moves nothing, so it is dropped, not refused
    assert Permutation({9: 9}).is_identity()


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


@LAWS
@given(index_lists, index_lists)
def test_image_is_multiplicative(a, b):
    w1, w2 = tuple(map(sig, a)), tuple(map(sig, b))
    assert from_sigma_word(w1 + w2) == compose(from_sigma_word(w1), from_sigma_word(w2))
    product = compose(from_adjacent_transpositions(a), from_adjacent_transpositions(b))
    assert from_adjacent_transpositions(a + b) == product
    assert hash(from_adjacent_transpositions(a + b)) == hash(product)


@LAWS
@given(permutations, permutations, permutations)
def test_compose_is_associative(p, q, r):
    assert compose(p, compose(q, r)) == compose(compose(p, q), r) == p * q * r
    for x in range(-1, 10):
        assert compose(p, q).apply(x) == p.apply(q.apply(x))


def test_sigma_word_ignores_exponents():
    assert from_sigma_word((sig(3, -1),)) == from_sigma_word((sig(3),))


def test_sigma_word_rejects_p_letters():
    for w in ((pi(1),), (pi(0), pi(0)), (sig(0), pi(1)), (pi(1), sig(0))):
        with pytest.raises(AlphabetError):
            from_sigma_word(w)


@LAWS
@given(permutations)
def test_inverse(p):
    e = Permutation.identity()
    assert p * p.inverse() == e and p.inverse() * p == e
    assert compose(p, p.inverse()).is_identity()
    assert p.inverse().inverse() == p
    assert all(p.inverse().apply(p.apply(x)) == x for x in range(-1, 10))


@LAWS
@given(permutations)
def test_adjacent_word_round_trip(p):
    assert from_adjacent_transpositions(p.adjacent_word()) == p
    assert reduce(compose, (Permutation.transposition(i, i + 1) for i in p.adjacent_word()),
                  Permutation.identity()) == p


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
