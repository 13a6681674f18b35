"""LMR calculus for V/BV: heights, relation table, raising moves, decider."""

import copy
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvwords.bv_lmr import (
    BVMode,
    HeightSet,
    LMRForm,
    Monosyllable,
    RELATION_FAMILIES,
    _decode,
    _encode,
    _flank_perm,
    _PermSyllable,
    apply_relation,
    equal_bv,
    is_trivial_bv,
    l_height_bound,
    m_to_sigma,
    mono_raise,
    pi_action,
    raise_word_heights,
    relation_sides,
    split_monosyllables,
    to_first_form,
    to_third_form,
    word_height,
)
from bvwords.hatgroups import GroupMode, canonicalize_hat, equal_hat, is_trivial_hat
from bvwords.limits import Budget, StepLimitExceeded
from bvwords.perms import from_adjacent_transpositions
from bvwords.words import (
    AlphabetError,
    Family,
    expand_bv_generators,
    invert,
    pi,
    pibar,
    random_word,
    sig,
    vgen,
)
from test_rewrite_equivalence import (
    _concat_syllables,
    _ref_is_trivial_v,
    _ref_mono_raise,
    _RefMonosyllable,
    opi_commute,
    raise_m_joined,
    reduce_p_runs,
    unreduced_third_form,
)

BV_FAMILIES = (Family.V, Family.PI, Family.PIBAR)


def hat_same(w1, w2):
    return equal_hat(expand_bv_generators(w1), expand_bv_generators(w2), GroupMode.BVHAT)


def random_pi_word(rng, max_index, max_len):
    return tuple(pi(rng.randint(0, max_index), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len)))


# The raising chain runs on int-coded letters; these helpers take and
# give letters, so the examples below read as words.


def codes(w):
    return tuple(_encode(w))


def syllable(pre, core, post):
    return Monosyllable(codes(pre), _encode((core,))[0], codes(post))


def pi_action_letters(w, m):
    moved, k = pi_action(codes(w), m)
    return _decode(moved), k


def pi_action_right(w, m):
    """``w * v_m ~ v_j * w'``: the left move on the inverted word, inverted."""
    moved, j = pi_action_letters(invert(w), m)
    return invert(moved), j


def mono_raise_letters(syl, m=None):
    """``mono_raise`` with the spill as a word of zero or one letters."""
    new, spill = mono_raise(syl, m)
    return new, _decode([] if spill is None else [spill])


def raise_word_heights_letters(syllables):
    raised, carry = raise_word_heights(syllables)
    return raised, None if carry is None else _decode((carry,))[0]


def raise_m_letters(m_word, side):
    """``raise_m`` on a middle of one height, its syllables joined."""
    held = reduce(Monosyllable.joined, split_monosyllables(codes(m_word)))
    return tuple(map(_decode, raise_m_joined(held, side)))


def opi_commute_left(m, k, e):
    """``v_(m+k)' * pb_m^e ~ first + second``: the right move at exponent
    ``-e``, inverted."""
    first, second = opi_commute(m, k, -e)
    return invert(second), invert(first)


def mono_raise_op(syl, op, m=None):
    """A raise as (prefix, M', suffix).  Ops "a" (a strand entering at
    the top) and "d" (the strand of ``v_m'`` entering on the left) spill
    on the right; "b" and "c" are their mirrors on the inverse syllable,
    inverted back, and spill on the left."""
    if op in ("a", "d"):
        new, spill = mono_raise_letters(syl, m)
        return (), new, spill
    new, spill = mono_raise_letters(syl.inverse(), m)
    return invert(spill), new.inverse(), ()


def random_single_height_syllable(rng):
    h = rng.randint(1, 4)
    flank = lambda: tuple(pi(rng.randint(0, h - 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))) if h >= 2 else ()
    return syllable(flank(), pibar(h - 1, rng.choice((1, -1))), flank())


def test_height_algebra():
    assert word_height((pibar(2),)) == HeightSet.singleton(3)
    assert word_height((pibar(2, -1),)) == HeightSet.singleton(3)
    assert word_height((pi(2),)) == HeightSet.tail(4)
    with pytest.raises(AlphabetError):
        word_height((vgen(0),))
    assert word_height(()) == HeightSet.tail(0)
    assert word_height((pibar(0), pibar(1))) == HeightSet.empty()
    assert word_height((pi(0), pibar(2))) == HeightSet.singleton(3)
    assert word_height((pi(3), pibar(2))) == HeightSet.empty()
    assert word_height((pi(0), pi(2))) == HeightSet.tail(4)
    assert HeightSet.singleton(3).contains(3) and not HeightSet.singleton(3).contains(4)
    assert HeightSet.tail(2).contains(7) and not HeightSet.tail(2).contains(1)
    sets = [HeightSet.empty()] + [HeightSet.singleton(n) for n in range(4)] + [HeightSet.tail(n) for n in range(4)]
    for a in sets:
        assert a.intersect(a) == a
        for b in sets:
            assert a.intersect(b) == b.intersect(a)
            for c in sets:
                assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@pytest.mark.parametrize("kind, value", [
    ("bogus", 3),
    ("Tail", 0),
    ("single", -1),
    ("tail", -2),
    ("empty", -1),
])
def test_height_set_rejects_an_unknown_kind_and_a_negative_value(kind, value):
    with pytest.raises(ValueError, match="HeightSet needs"):
        HeightSet(kind, value)


def test_relation_sides_validation():
    with pytest.raises(ValueError):
        relation_sides("no-such-family", (0,))
    with pytest.raises(ValueError):
        relation_sides("vv-shift", (1,))
    with pytest.raises(ValueError):
        relation_sides("vv-shift", (1, 2))
    with pytest.raises(ValueError):
        relation_sides("vv-shift", (2, 1), exponent=-1)
    assert relation_sides("vv-shift", (2, 1)) == ((vgen(2), vgen(1)), (vgen(1), vgen(3)))
    assert relation_sides("pbv-absorb", (0,), exponent=-1) == (
        (pibar(0, -1), vgen(0)),
        (pi(0, -1), pibar(1, -1)),
    )


def test_apply_relation_examples():
    assert apply_relation((vgen(2), vgen(1)), "vv-shift", (2, 1), 0) == (vgen(1), vgen(3))
    assert apply_relation((pibar(0), vgen(0)), "pbv-absorb", (0,), 0) == (pi(0), pibar(1))
    assert apply_relation((pi(3), pi(3)), "p-invol", (3,), 0, mode=BVMode.V) == ()
    with pytest.raises(ValueError):
        apply_relation((pi(3), pi(3)), "p-invol", (3,), 0, mode=BVMode.BV)
    backward = apply_relation((vgen(1), vgen(3)), "vv-shift", (2, 1), 0, direction="backward")
    assert backward == (vgen(2), vgen(1))
    with pytest.raises(ValueError):
        apply_relation((vgen(1), vgen(3)), "vv-shift", (2, 1), 0)


def test_apply_relation_rejects_a_mode_that_is_not_a_member():
    # read as V, "BV" would apply the V-only p-invol
    with pytest.raises(ValueError, match="apply_relation: mode must be BVMode.V or BVMode.BV"):
        apply_relation((pi(0), pi(0)), "p-invol", (0,), 0, mode="BV")


def test_apply_relation_rejects_positions_and_directions_outside_its_range():
    w = (vgen(0), pi(1))
    assert apply_relation(w, "p-invol", (0,), 2, "backward") == w + (pi(0), pi(0))
    for position in (100, -1):
        with pytest.raises(ValueError, match="outside"):
            apply_relation(w, "p-invol", (0,), position, "backward")
    u = (vgen(0), pi(1), vgen(0), vgen(3))
    assert apply_relation(u, "pv-shift", (1, 0), 1) == (vgen(0), vgen(0), pi(2), vgen(3))
    with pytest.raises(ValueError, match="outside"):
        apply_relation(u, "pv-shift", (1, 0), -3)
    with pytest.raises(ValueError, match="direction"):
        apply_relation(u, "pv-shift", (1, 0), 1, direction="back")


def test_relation_table_sound_via_hat():
    # every family instance expands to a hat-trivial relator
    instances = {1: [(0,), (1,), (3,)], 2: [(2, 0), (3, 1), (4, 0), (2, 1), (5, 3)]}
    for fam in RELATION_FAMILIES.values():
        for idx in instances[fam.nparams]:
            if not fam.condition(*idx):
                continue
            for e in (1, -1) if fam.takes_exponent else (1,):
                lhs, rhs = relation_sides(fam.fam_id, idx, e)
                relator = expand_bv_generators(lhs + invert(rhs))
                mode = GroupMode.VHAT if fam.v_only else GroupMode.BVHAT
                assert is_trivial_hat(relator, mode), (fam.fam_id, idx, e)


def test_pi_action_examples():
    assert pi_action_right((pi(2),), 0) == ((pi(3),), 0)
    assert pi_action_right((pi(0),), 0) == ((pi(0), pi(1)), 1)
    assert pi_action_right((pi(0),), 3) == ((pi(0),), 3)
    with pytest.raises(AlphabetError):
        pi_action_right((vgen(0),), 0)
    with pytest.raises(ValueError):
        pi_action_right((pi(0),), -1)


def test_pi_action_crosses_a_core_and_lifts():
    # a pb code is a core: the strand from the top comes down through it,
    # and the crossing letter at the top index stays pb
    assert pi_action_letters((pibar(1),), 2) == ((pi(1), pibar(2)), 1)
    assert pi_action_letters((pibar(1),), 1) == ((pibar(2), pi(1)), 2)
    moved, k = pi_action(codes((pibar(1),)), 2, 3)
    assert (_decode(moved), k) == ((pi(1), pi(2), pi(3), pibar(4)), 1)
    # a crossing becomes t + 1 crossings, and a letter above the strand
    # is lifted by t
    moved, k = pi_action(codes((pi(0), pi(3))), 0, 2)
    assert (_decode(moved), k) == ((pi(2), pi(1), pi(0), pi(5)), 1)
    moved, k = pi_action(codes((pi(0), pi(3))), 1, 2)
    assert (_decode(moved), k) == ((pi(0), pi(1), pi(2), pi(5)), 0)
    # the strand sent up by one core comes down through the next, and the
    # p letters of the two crossings cancel
    moved, k = pi_action(codes((pibar(1), pibar(1, -1))), 1, 2)
    assert (_decode(moved), k) == ((pibar(3), pibar(3, -1)), 1)
    with pytest.raises(AlphabetError):
        pi_action(codes((pi(0), vgen(0))), 0)
    for t in (0, -1):
        with pytest.raises(ValueError, match="t >= 1"):
            pi_action(codes((pi(0),)), 0, t)


def test_pi_action_tracks_permutation():
    # moved index is the strand image under the word's permutation
    rng = random.Random(47)
    for _ in range(150):
        w = random_pi_word(rng, 4, 6)
        m = rng.randint(0, 6)
        perm = from_adjacent_transpositions(g.index for g in w)
        _, j = pi_action_right(w, m)
        assert j == perm.apply(m)
        _, k = pi_action_letters(w, m)
        assert k == perm.inverse().apply(m)
        if m > max((g.index for g in w), default=-1) + 1:
            assert j == m and k == m


def test_pi_action_preserves_element():
    rng = random.Random(53)
    for _ in range(60):
        w = random_pi_word(rng, 3, 5)
        m = rng.randint(0, 4)
        moved, j = pi_action_right(w, m)
        assert max((g.index for g in moved), default=0) <= max((g.index for g in w), default=0) + 1
        assert hat_same(w + (vgen(m),), (vgen(j),) + moved)
        moved, k = pi_action_letters(w, m)
        assert hat_same((vgen(m, -1),) + w, moved + (vgen(k, -1),))


def test_opi_commute_examples():
    first, second = opi_commute(0, 1, 1)
    assert first == (vgen(0), vgen(0)) and second == (pibar(2), pi(1), pi(0))
    first, second = opi_commute(1, 2, 1)
    assert first == (vgen(1), vgen(2), vgen(2)) and second == (pibar(4), pi(3), pi(2), pi(1))
    with pytest.raises(ValueError):
        opi_commute(0, 0, 1)
    with pytest.raises(ValueError):
        opi_commute(0, 1, 2)


def test_opi_commute_preserves_element():
    for m in range(3):
        for k in range(1, 4):
            for e in (1, -1):
                first, second = opi_commute(m, k, e)
                assert hat_same((pibar(m, e), vgen(m + k)), first + second)
                first, second = opi_commute_left(m, k, e)
                assert hat_same((vgen(m + k, -1), pibar(m, e)), first + second)


def test_first_form_examples():
    form = to_first_form((vgen(1, -1), vgen(0)))
    assert (form.L, form.M, form.R) == ((vgen(0),), (), (vgen(2, -1),))
    form = to_first_form((pi(2), vgen(0)))
    assert (form.L, form.M, form.R) == ((vgen(0),), (pi(3),), ())
    form = to_first_form((pibar(0), vgen(1)))
    assert (form.L, form.M, form.R) == ((vgen(0), vgen(0)), (pibar(2), pi(1), pi(0)), ())


def test_first_form_structure_and_preservation():
    rng = random.Random(59)
    for _ in range(60):
        w = random_word(rng, BV_FAMILIES, max_index=4, max_len=8)
        form = to_first_form(w)
        assert all(g.family is Family.V and g.exponent > 0 for g in form.L)
        assert all(g.family is Family.V and g.exponent < 0 for g in form.R)
        assert all(g.family in (Family.PI, Family.PIBAR) for g in form.M)
        assert hat_same(w, form.word())
    # an all-v middle after free reduction must drain completely
    form = to_first_form((vgen(1), pibar(3, -1), pibar(3), vgen(0), vgen(1, -1)))
    assert form.M == () and hat_same((vgen(1), vgen(0), vgen(1, -1)), form.word())


def test_monosyllable_structure():
    with pytest.raises(ValueError):
        syllable((), pi(0), ())
    with pytest.raises(AlphabetError):
        syllable((pibar(0),), pibar(1), ())
    syl = syllable((pi(0),), pibar(2), (pi(1, -1),))
    assert word_height(syl.word()) == HeightSet.singleton(3)
    assert syl.h == 3
    assert syl.inverse().word() == invert(syl.word())
    # p2 pb2 has an empty height set: the constructor rejects it
    assert word_height((pi(2), pibar(2))) == HeightSet.empty()
    with pytest.raises(ValueError, match="no single height"):
        syllable((pi(2),), pibar(2), ())
    # copy and pickle rebuild the held (h, codes), also of a joined word
    for held in (syl, syl.joined(syl.inverse())):
        for back in (copy.copy(held), copy.deepcopy(held), pickle.loads(pickle.dumps(held))):
            assert type(back) is Monosyllable and back == held


def test_split_monosyllables():
    parts = split_monosyllables(codes((pi(0), pibar(1), pibar(4), pi(3))))
    assert [p.word() for p in parts] == [(pi(0), pibar(1)), (pibar(4), pi(3))]
    # the piece pb2 p3 of p0 pb1 pb2 p3 has no single height
    with pytest.raises(ValueError, match="no single height"):
        split_monosyllables(codes((pi(0), pibar(1), pibar(2), pi(3))))
    # each flank is freely reduced: repair makes p3' p3 pb4 of p3' pb3
    parts = split_monosyllables(codes((pi(3, -1), pi(3), pibar(4), pi(1), pibar(4, -1), pi(1, -1))))
    assert [p.word() for p in parts] == [(pibar(4),), (pi(1), pibar(4, -1), pi(1, -1))]
    with pytest.raises(ValueError):
        split_monosyllables(codes((pi(0), pi(1))))


def test_mono_raise_examples():
    base = syllable((), pibar(0), ())
    new, spill = mono_raise_letters(base)
    assert spill == (vgen(0, -1),)
    assert new == syllable((pi(0),), pibar(1), ())
    prefix, new, suffix = mono_raise_op(base, "c", m=0)
    assert prefix == () and suffix == ()
    assert new == syllable((pi(0),), pibar(1), ())
    with pytest.raises(ValueError):
        mono_raise_op(base, "c", m=1)
    # a syllable without a single height is not built, so never raised
    with pytest.raises(ValueError):
        mono_raise(syllable((pi(2),), pibar(2), ()))


def test_mono_raise_preserves_element():
    rng = random.Random(61)
    for _ in range(40):
        syl = random_single_height_syllable(rng)
        h = syl.h
        for op in "abcd":
            m = rng.randint(0, h - 1) if op in "cd" else None
            prefix, new, suffix = mono_raise_op(syl, op, m=m)
            assert new.h == h + 1
            assert all(g.index < h for g in prefix + suffix)
            lhs = {"a": syl.word(), "b": syl.word(),
                   "c": syl.word() + (vgen(m),) if m is not None else (),
                   "d": (vgen(m, -1),) + syl.word() if m is not None else ()}[op]
            assert hat_same(lhs, prefix + new.word() + suffix)


def coded_single_height_syllables():
    """Syllables of a single height 1..8, their flanks of p codes below
    the core's index."""
    def of_height(h):
        flank = st.lists(st.builds(lambda i, neg: i << 3 | 2 | neg, st.integers(0, h - 2), st.integers(0, 1)),
                         max_size=12).map(tuple) if h >= 2 else st.just(())
        return st.builds(lambda pre, neg, post: Monosyllable(pre, (h - 1) << 3 | 4 | neg, post),
                         flank, st.integers(0, 1), flank)
    return st.integers(1, 8).flatmap(of_height)


def rebuilt(syl):
    return Monosyllable(syl.pre, syl.core, syl.post)


@settings(max_examples=300, deadline=None)
@given(coded_single_height_syllables(), st.data())
def test_raised_and_inverted_syllables_pass_the_checked_constructor(syl, data):
    # ``mono_raise`` and ``inverse`` build syllables without the kind and
    # height checks; each must still be one the checked constructor accepts
    h = syl.h
    inverse = syl.inverse()
    assert inverse == rebuilt(inverse)
    assert type(inverse.pre) is tuple and type(inverse.post) is tuple
    m = data.draw(st.integers(0, h - 1))
    for new, _ in (mono_raise(syl), mono_raise(syl, m), mono_raise(inverse, m)):
        assert new == rebuilt(new)
        assert type(new.pre) is tuple and type(new.post) is tuple
        assert new.h == h + 1


def test_raise_word_heights():
    raised, carry = raise_word_heights_letters([syllable((), pibar(0), ())])
    assert raised == [syllable((pi(0),), pibar(1), ())] and carry == vgen(0, -1)
    raised, carry = raise_word_heights_letters([syllable((), pibar(0), ()), syllable((), pibar(0), ())])
    assert [s.h for s in raised] == [2, 2] and carry is None
    assert hat_same((pibar(0), pibar(0)), raised[0].word() + raised[1].word())
    assert raise_word_heights([]) == ([], None)
    with pytest.raises(ValueError):
        raise_word_heights([syllable((), pibar(2), ()), syllable((), pibar(0), ())])
    rng = random.Random(67)
    for _ in range(30):
        syls = sorted((random_single_height_syllable(rng) for _ in range(rng.randint(1, 4))),
                      key=lambda s: s.h)
        before = tuple(g for s in syls for g in s.word())
        raised, carry = raise_word_heights_letters(syls)
        after = tuple(g for s in raised for g in s.word()) + ((carry,) if carry else ())
        assert [s.h for s in raised] == [s.h + 1 for s in syls]
        assert carry is None or carry.index < syls[-1].h
        assert hat_same(before, after)


def cable(braid, p):
    """Double the strand at position p of an ``s`` word: the cabling map.

    The word is read right to left, p being the doubled strand's position
    below the letter read:

        i + 1 < p:   s_i^e stays
        i > p:       s_i^e becomes s_(i+1)^e
        i == p:      s_i^e becomes s_p^e s_(p+1)^e, and then p += 1
        i + 1 == p:  s_i^e becomes s_p^e s_(p-1)^e, and then p -= 1

    Returns the cabled word and the strand's position above the word.
    """
    out = []
    for g in reversed(braid):
        i, e = g.index, g.exponent
        if i + 1 < p:
            out.append(g)
        elif i > p:
            out.append(sig(i + 1, e))
        elif i == p:
            out += [sig(p + 1, e), sig(p, e)]
            p += 1
        else:
            out += [sig(p - 1, e), sig(p, e)]
            p -= 1
    return tuple(reversed(out)), p


def strand_end(braid, p):
    """Where the strand at position p above an ``s`` word leaves it below."""
    for g in braid:
        if g.index == p:
            p += 1
        elif g.index + 1 == p:
            p -= 1
    return p


@st.composite
def single_height_syllables(draw):
    h = draw(st.integers(1, 6))
    flank = st.lists(st.builds(pi, st.integers(0, max(h - 2, 0)), st.sampled_from((1, -1))),
                     max_size=8 if h >= 2 else 0).map(tuple)
    return syllable(draw(flank), pibar(h - 1, draw(st.sampled_from((1, -1)))), draw(flank))


@settings(max_examples=300, deadline=None)
@given(single_height_syllables())
def test_raising_cables_one_strand(syl):
    # raising a syllable from height h to h + 1 doubles one strand of its
    # braid: the one a carried v_m' names (position h - m), or position 0
    # with nothing carried, and the strand's end below names the spill
    h = syl.h
    braid = m_to_sigma(syl.word(), h)
    for m in [None, *range(h)]:
        new, spill = mono_raise_letters(syl, m)
        top = 0 if m is None else h - m
        end = strand_end(braid, top)
        if m is None:
            assert spill[0].index == h - end
        assert end == (h - spill[0].index if spill else 0)
        assert cable(braid, end) == (m_to_sigma(new.word(), h + 1), top)


def freely_reduced(codes):
    out = []
    for x in codes:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_freely_reduced(codes):
    return all(y != x ^ 1 for x, y in zip(codes, codes[1:]))


@settings(max_examples=300, deadline=None)
@given(single_height_syllables(), st.data())
def test_raising_keeps_flanks_freely_reduced(syl, data):
    # the invariant that lets ``split_monosyllables`` reduce each flank
    # once: ``pi_action`` and ``mono_raise`` map freely reduced flanks to
    # freely reduced flanks
    syl = Monosyllable(freely_reduced(syl.pre), syl.core, freely_reduced(syl.post))
    h = syl.h
    m = data.draw(st.integers(0, h - 1))
    for flank in (syl.pre, syl.post):
        assert is_freely_reduced(pi_action(flank, m)[0])
    for new, _ in (mono_raise(syl), mono_raise(syl, m), mono_raise(syl.inverse(), m)):
        assert is_freely_reduced(new.pre) and is_freely_reduced(new.post)


@st.composite
def lines_of_one_height(draw):
    """Two lines of one height h in 1..8: permutations of 0..h."""
    h = draw(st.integers(1, 8))
    a, b = (draw(st.permutations(range(h + 1))) for _ in range(2))
    return _PermSyllable(h, list(a)), _PermSyllable(h, list(b))


@settings(max_examples=300, deadline=None)
@given(lines_of_one_height())
def test_a_join_raises_as_its_two_lines(pair):
    # cabling respects composition: raising a's and b's product at m is
    # raising a at m and b where the strand leaves a, then joining, and
    # the product spills what b spills
    a, b = pair
    for m in [None, *range(a.h)]:
        raised_a, carry = a.raised(m)
        raised_b, spill = b.raised(None if carry is None else carry >> 3)
        assert a.joined(b).raised(m) == (raised_a.joined(raised_b), spill)


@settings(max_examples=300, deadline=None)
@given(coded_single_height_syllables(), st.integers(1, 4))
def test_a_lift_is_t_single_raises(syl, t):
    # ``raised(m, t)`` on either holding is t single raises, the i-th
    # entering at m + i (the upper strand of the pair the last one made)
    # or at the top: the same codes or line, height h + t, and the t
    # spills v_j', ..., v_(j+t-1)', or none; the single raises on words
    # are those of the letter chain
    h = syl.h
    line = _PermSyllable(h, _flank_perm(syl.codes, h + 1))
    for m in [None, *range(h)]:
        lifted, first = syl.raised(m, t)
        lifted_line, line_first = line.raised(m, t)
        word, ref, held, spills = syl, _RefMonosyllable(*_split_letters(syl)), line, []
        for i in range(t):
            entry = None if m is None else m + i
            word, spill = word.raised(entry)
            _, ref, ref_spill = _ref_mono_raise(ref, "a" if m is None else "d", m=entry)
            held, held_spill = held.raised(entry)
            assert word.word() == ref.word()
            assert _decode([] if spill is None else [spill]) == ref_spill
            assert held_spill == spill
            spills.append(spill)
        assert (lifted, lifted.h) == (word, h + t)
        assert (lifted_line, lifted_line.h) == (held, h + t)
        assert line_first == first
        assert spills == ([None] * t if first is None else [first + (i << 3) for i in range(t)])


def _split_letters(syl):
    """A one-core syllable's (pre, core, post) as letters."""
    return _decode(syl.pre), _decode((syl.core,))[0], _decode(syl.post)


def one_height_words():
    """One to four syllables of one height h, flanks freely reduced and
    often empty, so that cores meet in their join."""
    def of_height(h):
        flank = st.lists(st.builds(lambda i, neg: i << 3 | 2 | neg, st.integers(0, h - 2), st.integers(0, 1)),
                         max_size=3).map(freely_reduced) if h >= 2 else st.just(())
        syl = st.builds(lambda pre, neg, post: Monosyllable(pre, (h - 1) << 3 | 4 | neg, post),
                        flank, st.integers(0, 1), flank)
        return st.lists(syl, min_size=1, max_size=4)
    return st.integers(1, 6).flatmap(of_height)


@settings(max_examples=300, deadline=None)
@given(one_height_words(), st.integers(1, 3))
def test_a_joined_word_raises_as_its_syllables(syllables, t):
    # the join of syllables of one height lifts as the syllables do, one
    # after the other, joined: the same letters once every p run is freely
    # reduced, and the same spill
    joined = reduce(Monosyllable.joined, syllables)
    h = joined.h
    for m in [None, *range(h)]:
        lifted, spill = joined.raised(m, t)
        raised, carry = [], m
        for syl in syllables:
            new, out = syl.raised(carry, t)
            raised.append(new)
            carry = None if out is None else out >> 3
        assert lifted.h == h + t
        assert lifted.word() == reduce_p_runs(_decode(_concat_syllables(raised)))
        assert spill == out


def test_third_form_middle_has_no_inverse_pair_in_a_p_run():
    # ``p3' pb3`` repairs to ``p3' p3 pb4 v3'``, and the cut cancels the
    # pair; in the second word the raises leave pairs where one raised
    # syllable meets the next, and the join cancels those.  Every third
    # form is the unreduced chain's, with its p runs freely reduced.
    words = [(pi(3, -1), pibar(3)), (vgen(3), pibar(0, -1), pi(0), pi(0), pibar(0), vgen(3, -1))]
    rng = random.Random(79)
    words += [random_word(rng, BV_FAMILIES, max_index=5, max_len=16) for _ in range(300)]
    for w in words:
        ref_budget, budget = Budget(), Budget()
        ref, form = unreduced_third_form(w, ref_budget), to_third_form(w, budget)
        assert not any(g.family is Family.PI and x == g.inverse() for g, x in zip(form.M, form.M[1:]))
        assert (form.L, form.M, form.R, form.k) == (ref.L, reduce_p_runs(ref.M), ref.R, ref.k)
        assert budget.used == ref_budget.used
    assert to_third_form(words[0]) == LMRForm((), (pibar(4),), (vgen(3, -1),), HeightSet.singleton(5), 5)
    assert len(to_third_form(words[1]).M) < len(unreduced_third_form(words[1]).M)


def test_raise_m():
    # a middle with no pb letter has no syllables to raise
    for side in ("left", "right"):
        with pytest.raises(ValueError):
            raise_m_letters((pi(0),), side)
    assert raise_m_letters((pibar(1),), "right") == ((pi(1), pibar(2)), (vgen(1, -1),))
    assert raise_m_letters((pibar(1),), "left") == ((vgen(1),), (pibar(2), pi(1)))
    with pytest.raises(ValueError):
        raise_m_letters((pi(2), pibar(2)), "right")
    for m_word in ((pibar(0),), (pi(0), pibar(2)), (pibar(1), pi(0), pibar(1, -1))):
        h = word_height(m_word)
        for side in ("left", "right"):
            first, second = raise_m_letters(m_word, side)
            assert hat_same(m_word, first + second)
            raised = second if side == "left" else first
            assert word_height(raised).contains(h.value + 1)


def test_l_height_bound():
    assert l_height_bound(()) == 0
    assert l_height_bound((vgen(0),)) == 2
    assert l_height_bound((vgen(0), vgen(1))) == 3
    assert l_height_bound((vgen(3),)) == 5
    assert l_height_bound((vgen(0), vgen(1), vgen(0))) == 4
    with pytest.raises(AlphabetError):
        l_height_bound((vgen(0, -1),))
    with pytest.raises(AlphabetError):
        l_height_bound((pi(0),))


def test_third_form_examples():
    form = to_third_form((pi(0),))
    assert (form.L, form.M, form.R, form.k) == ((), (pi(0),), (), 2)
    assert form.height_m == HeightSet.tail(2)
    form = to_third_form((vgen(0), vgen(1, -1)))
    assert (form.L, form.M, form.R) == ((vgen(0),), (), (vgen(1, -1),))
    assert form.k >= 2
    form = to_third_form((pibar(0), pibar(2)))
    assert word_height(form.M).kind == "single"
    assert hat_same((pibar(0), pibar(2)), form.word())


def test_third_form_repairs_uneven_syllables():
    # middles whose raw monosyllables have empty heights still normalize
    for w in (
        (pibar(3, -1), pibar(2), pi(2)),
        (pibar(2), pi(2)),
        (pi(2), pibar(3), pibar(3, -1), pibar(0)),
        (pi(1), pibar(0), pi(0), pibar(0, -1)),
    ):
        form = to_third_form(w)
        assert hat_same(w, form.word())
    form = to_third_form((pibar(3, -1), pibar(2), pi(2)))
    assert form.L == (vgen(2),)
    assert form.M == (pibar(4, -1), pi(3), pibar(4), pi(2), pi(3), pi(3), pi(2))
    assert form.R == (vgen(3, -1),)
    assert form.k == 5


def test_third_form_invariants_random():
    rng = random.Random(71)
    for _ in range(120):
        w = random_word(rng, BV_FAMILIES, max_index=4, max_len=8)
        form = to_third_form(w)
        assert all(g.family is Family.V and g.exponent > 0 for g in form.L)
        assert all(g.family is Family.V and g.exponent < 0 for g in form.R)
        assert not form.height_m.is_empty
        assert form.height_m.contains(form.k)
        assert l_height_bound(form.L) <= form.k
        assert l_height_bound(invert(form.R)) <= form.k
        for g in form.M:
            if g.family is Family.PIBAR:
                assert g.index == form.k - 1
            else:
                assert g.index <= form.k - 2
        assert hat_same(w, form.word())


def test_m_to_sigma():
    assert m_to_sigma((pibar(1),), 2) == (sig(0, 1),)
    assert m_to_sigma((pi(0),), 2) == (sig(1, 1),)
    assert m_to_sigma((pi(0), pibar(1, -1)), 2) == (sig(1, 1), sig(0, -1))
    with pytest.raises(ValueError):
        m_to_sigma((pibar(1),), 3)


def test_triviality_examples():
    assert is_trivial_bv((pi(0), pi(0)), BVMode.V)
    assert not is_trivial_bv((pi(0), pi(0)), BVMode.BV)
    w = (vgen(2), vgen(1)) + invert((vgen(1), vgen(3)))
    assert is_trivial_bv(w, BVMode.V) and is_trivial_bv(w, BVMode.BV)
    assert not is_trivial_bv((vgen(2), vgen(1, -1)), BVMode.V)
    assert not is_trivial_bv((vgen(2), vgen(1, -1)), BVMode.BV)
    for mode in (BVMode.V, BVMode.BV):
        assert equal_bv((pi(0), vgen(0)), (vgen(1), pi(0), pi(1)), mode)
        assert equal_bv((pibar(0), vgen(0)), (pi(0), pibar(1)), mode)
        assert not equal_bv((vgen(0),), (vgen(1),), mode)


def test_generator_redundancy():
    for n in range(9):
        for mode in (BVMode.V, BVMode.BV):
            assert equal_bv((pi(n),), (pibar(n), vgen(n), pibar(n + 1, -1)), mode)
            assert equal_bv((vgen(n),), (pibar(n, -1), pi(n), pibar(n + 1)), mode)


def test_decider_agrees_with_hat_oracle():
    rng = random.Random(73)
    for _ in range(250):
        w = random_word(rng, BV_FAMILIES, max_index=4, max_len=8)
        expanded = expand_bv_generators(w)
        assert is_trivial_bv(w, BVMode.BV) == is_trivial_hat(expanded, GroupMode.BVHAT)
        assert is_trivial_bv(w, BVMode.V) == is_trivial_hat(expanded, GroupMode.VHAT)


def test_budget_propagation():
    w = (pibar(0), vgen(3), pibar(0), vgen(3), pibar(2, -1))
    with pytest.raises(StepLimitExceeded):
        to_third_form(w, Budget(limit=1))
    with pytest.raises(StepLimitExceeded):
        is_trivial_bv(w, BVMode.BV, Budget(limit=1))
    # V decides on strand permutations: at every cap below its total it
    # stops where the word path does, in the same phase; the second word
    # spends in all four phases of the LMR route
    phases = set()
    for w in (w, (vgen(4), pibar(4), vgen(0), pi(3, -1), pi(2, -1), pibar(2))):
        budget = Budget()
        verdict = _ref_is_trivial_v(w, budget)
        total = budget.used
        for cap in range(1, total):
            with pytest.raises(StepLimitExceeded) as ref:
                _ref_is_trivial_v(w, Budget(cap))
            with pytest.raises(StepLimitExceeded) as got:
                is_trivial_bv(w, BVMode.V, Budget(cap))
            assert got.value.operation == ref.value.operation
            phases.add(got.value.operation)
        budget = Budget(total)
        assert is_trivial_bv(w, BVMode.V, budget) == verdict and budget.used == total
    assert phases == {"to_first_form", "repair_heights", "equalize_heights", "to_third_form"}


def test_deciders_reject_a_mode_that_is_not_a_member():
    # a mode's value is not the mode: read as the other member, "BV" and
    # "Vhat" would give the other group's verdict
    with pytest.raises(ValueError, match="BVMode.V or BVMode.BV"):
        is_trivial_bv((pi(0), pi(0)), "BV")
    with pytest.raises(ValueError, match="GroupMode.VHAT or GroupMode.BVHAT"):
        is_trivial_hat((sig(0), sig(0)), "Vhat")
    with pytest.raises(ValueError, match="GroupMode.VHAT or GroupMode.BVHAT"):
        canonicalize_hat((sig(0),), "Vhat")
    assert is_trivial_bv((pi(0), pi(0)), BVMode.V) and not is_trivial_bv((pi(0), pi(0)), BVMode.BV)
    assert is_trivial_hat((sig(0), sig(0)), GroupMode.VHAT)
    assert not is_trivial_hat((sig(0), sig(0)), GroupMode.BVHAT)
