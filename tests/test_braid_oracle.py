"""A braid oracle that shares no code with the package's braid deciders.

Dynnikov coordinates: the braid group acts faithfully by piecewise-linear
maps on integer coordinates of laminations of the punctured disc, and a
braid is trivial exactly when it fixes the coordinates ``(0, 1)^n`` (I.
Dynnikov, "On a Yang-Baxter map and the Dehornoy ordering", Russian Math.
Surveys 57, 2002; the rules as in P. Dehornoy, "Efficient solutions to
the braid isotopy problem", Discrete Appl. Math. 156, 2008).

Every ``s_j`` is shifted up one coordinate pair, so that it moves pairs
``j`` and ``j + 1`` by the rule of an interior generator, and one spare
pair pads the top; the shift embeds the braid group, so no boundary rule
is needed.  The rules are first checked against the defining relations
on random coordinates, then the verdicts against ``is_trivial_braid``.

The package decides braids twice over: ``is_trivial_braid`` by handle
reduction, which the hat route and ``Binf`` use, and
``is_trivial_braid_by_coordinates`` by its own copy of the same action
on int codes, which the left-middle-right route of BV uses.  The oracle
here stays the one that checks the rules against the braid relations,
and the three verdicts must agree on every braid below.
"""

from __future__ import annotations

import random

import pytest

from bvwords.braid import is_trivial_braid, is_trivial_braid_by_coordinates
from bvwords.bv_lmr import m_to_sigma, to_third_form
from bvwords.presentations import corrupt_instance, finite_presentation_instances
from bvwords.words import Family, GroupId, sig
from test_rewrite_equivalence import unreduced_third_form


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _neg(x: int) -> int:
    return x if x < 0 else 0


def _act(c: list[int], j: int, e: int) -> None:
    """Apply ``s_j^e`` in place to the flat coordinates
    ``c = [a_0, b_0, a_1, b_1, ...]``; it moves pairs j and j + 1."""
    a0, b0, a1, b1 = c[2 * j:2 * j + 4]
    if e > 0:
        t = a0 - _neg(b0) - a1 + _pos(b1)
        c[2 * j:2 * j + 4] = (a0 + _pos(b0) + _pos(_pos(b1) - t), b1 - _pos(t),
                              a1 + _neg(b1) + _neg(_neg(b0) + t), b0 + _pos(t))
    else:
        t = a0 + _neg(b0) - a1 - _pos(b1)
        c[2 * j:2 * j + 4] = (a0 - _pos(b0) - _pos(_pos(b1) + t), b1 + _neg(t),
                              a1 - _neg(b1) - _neg(_neg(b0) - t), b0 - _neg(t))


def _image(c: list[int], letters) -> list[int]:
    c = list(c)
    for j, e in letters:
        _act(c, j, e)
    return c


def dynnikov_trivial(w) -> bool:
    """Whether the braid word ``w`` fixes the coordinates ``(0, 1)^n``."""
    start = [0, 1] * (max((g.index for g in w), default=0) + 3)
    return _image(start, [(g.index, g.exponent) for g in w]) == start


def test_the_action_satisfies_the_braid_relations():
    rng = random.Random(0)
    for _ in range(2000):
        c = [rng.randint(-30, 30) for _ in range(14)]
        j = rng.randint(0, 3)
        for e in (1, -1):
            assert _image(c, [(j, e), (j, -e)]) == c
            assert _image(c, [(j, e), (j + 1, e), (j, e)]) == _image(c, [(j + 1, e), (j, e), (j + 1, e)])
            for i in range(j + 2, 6):
                for f in (1, -1):
                    assert _image(c, [(j, e), (i, f)]) == _image(c, [(i, f), (j, e)])


def test_handle_reduction_agrees_on_seeded_braids():
    rng = random.Random(1)
    trivial = 0
    for n in range(3000):
        strands = rng.randint(3, 7)
        w = tuple(sig(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 40)))
        if n % 2:    # a relator conjugated by a prefix of w
            i = rng.randrange(strands - 2)
            relator = (sig(i), sig(i + 1), sig(i), sig(i + 1, -1), sig(i, -1), sig(i + 1, -1))
            u = w[:rng.randint(0, len(w))]
            w = u + relator + tuple(g.inverse() for g in reversed(u))
        verdict = is_trivial_braid(w)
        assert dynnikov_trivial(w) == verdict, w
        assert is_trivial_braid_by_coordinates(w) == verdict, w
        trivial += verdict
    # the 1,500 conjugated relators and some, not all, of the random words
    assert 1500 < trivial < 3000


def _bv_middles(corrupt: bool, third_form):
    """The braid words of the third-form middles that hold a pb letter,
    for the finite BV relators or their corrupted instances."""
    out = []
    for inst in finite_presentation_instances():
        if inst.group is GroupId.BV:
            form = third_form((corrupt_instance(inst) if corrupt else inst).relator())
            if any(g.family is Family.PIBAR for g in form.M):
                out.append(m_to_sigma(form.M, form.k))
    return out


@pytest.mark.parametrize("corrupt", [False, True])
def test_handle_reduction_agrees_on_finite_bv_middles(corrupt):
    # the middles of the unreduced chain, and the public ones, whose p runs
    # are freely reduced
    for third_form, longest in ((unreduced_third_form, 15_944), (to_third_form, 5_174)):
        middles = _bv_middles(corrupt, third_form)
        verdicts = [is_trivial_braid(w) for w in middles]
        assert [dynnikov_trivial(w) for w in middles] == verdicts
        assert [is_trivial_braid_by_coordinates(w) for w in middles] == verdicts
        if corrupt:
            assert (len(middles), sum(verdicts)) == (35, 2)
        else:
            assert len(middles) == 33 and all(verdicts)
            assert max(map(len, middles)) == longest
