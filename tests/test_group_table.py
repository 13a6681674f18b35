"""The group table ``presentations.DECIDERS`` and its two V/BV routes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvwords.bv_lmr import RELATION_FAMILIES, relation_sides, to_third_form
from bvwords.limits import Budget
from bvwords.presentations import DECIDERS, GroupId, RelationInstance, instantiate_family, verify
from bvwords.thompson_f import f_fraction
from bvwords.words import AlphabetError, Family, Gen, invert, lam

SETTINGS = settings(max_examples=150, deadline=None)

VBV = (GroupId.V, GroupId.BV)

bv_words = st.lists(
    st.builds(Gen, st.sampled_from((Family.V, Family.PI, Family.PIBAR)),
              st.integers(0, 3), st.sampled_from((1, -1))),
    max_size=8,
).map(tuple)


def decide(group, name, w):
    return dict(DECIDERS[group])[name](w, Budget())


@st.composite
def relators(draw, group):
    """One relation instance of ``group`` as a relator, either way round."""
    fam_id = draw(st.sampled_from(sorted(
        f for f, spec in RELATION_FAMILIES.items() if group is GroupId.V or not spec.v_only)))
    spec = RELATION_FAMILIES[fam_id]
    indices = draw(st.tuples(*[st.integers(0, 3)] * spec.nparams).filter(lambda t: spec.condition(*t)))
    exponent = draw(st.sampled_from((1, -1))) if spec.takes_exponent else 1
    lhs, rhs = relation_sides(fam_id, indices, exponent)
    relator = lhs + invert(rhs)
    return invert(relator) if draw(st.booleans()) else relator


def test_every_group_has_deciders():
    assert set(DECIDERS) == set(GroupId)
    for group, entries in DECIDERS.items():
        names = [name for name, _ in entries]
        if group in VBV:
            assert names == ["lmr", "hat"]
        else:
            assert len(names) == 1, group
        assert all(callable(d) for _, d in entries)


@SETTINGS
@given(bv_words)
def test_lmr_and_hat_agree(w):
    for group in VBV:
        assert decide(group, "lmr", w) == decide(group, "hat", w), group


@SETTINGS
@given(st.sampled_from(VBV).flatmap(lambda g: st.tuples(st.just(g), bv_words, relators(g), st.integers(0, 8))))
def test_inserted_relator_keeps_verdict(case):
    group, w, relator, position = case
    position = min(position, len(w))
    longer = w[:position] + relator + w[position:]
    for name in ("lmr", "hat"):
        assert decide(group, name, longer) == decide(group, name, w), (group, name)


@SETTINGS
@given(bv_words)
def test_third_form_is_the_same_element(w):
    form = to_third_form(w)
    for group in VBV:
        assert decide(group, "hat", form.word() + invert(w)), group


# l0' l2 l0 = l3 is ll-shift(2,0) conjugated; unlike the ll-shift relators
# of ``verify_all``, which are already fractions, it needs pushes
CONJUGATED_SHIFT = RelationInstance((lam(0, -1), lam(2), lam(0)), (lam(3),), "ll-shift(2,0)^l0", GroupId.F)


def test_verify_charges_f_route_to_shared_budget():
    budget = Budget()
    f_fraction(CONJUGATED_SHIFT.relator(), budget)
    assert budget.used >= 2
    result = verify(CONJUGATED_SHIFT)
    assert (result.verdict, result.detail, result.steps) == ("holds", "f-fraction", budget.used)
    for inst in instantiate_family("ll-shift", 3):
        if inst.group is GroupId.F:
            budget = Budget()
            f_fraction(inst.relator(), budget)
            assert verify(inst).steps == budget.used


def test_verify_caps_f_route():
    result = verify(CONJUGATED_SHIFT, max_steps=1)
    assert (result.verdict, result.detail, result.steps) == ("resource-cap", "f_fraction", 2)


def test_verify_detail_per_group():
    details = {}
    for fam_id in ("ll-shift", "ss-braid", "pv-shift"):
        for inst in instantiate_family(fam_id, 1):
            result = verify(inst)
            assert result.verdict == "holds", inst.source
            details[inst.group] = result.detail
    assert details == {
        GroupId.F: "f-fraction",
        GroupId.VHAT: "hat-fraction",
        GroupId.BVHAT: "hat-fraction",
        GroupId.SINF: "perm-image",
        GroupId.BINF: "handle-reduction",
        GroupId.V: "lmr=True hat=True",
        GroupId.BV: "lmr=True hat=True",
    }


ALPHABETS = {
    GroupId.F: (Family.LAMBDA,),
    GroupId.VHAT: (Family.LAMBDA, Family.SIGMA),
    GroupId.BVHAT: (Family.LAMBDA, Family.SIGMA),
    GroupId.V: (Family.V, Family.PI, Family.PIBAR),
    GroupId.BV: (Family.V, Family.PI, Family.PIBAR),
    GroupId.SINF: (Family.SIGMA,),
    GroupId.BINF: (Family.SIGMA,),
}


@pytest.mark.parametrize("group,name", [(g, name) for g in GroupId for name, _ in DECIDERS[g]])
@pytest.mark.parametrize("index,exponent", [(0, 0), (0, 2), (-1, 1)])
def test_malformed_letters_are_rejected(group, name, index, exponent):
    # a Gen built directly can carry any index and exponent; every decider
    # must reject a bad one before rewriting, alone or among good letters
    for family in ALPHABETS[group]:
        bad = Gen(family, index, exponent)
        for w in ((bad,), (Gen(family, 1), bad), (bad, Gen(family, 1, -1))):
            with pytest.raises(AlphabetError):
                decide(group, name, w)


@pytest.mark.parametrize("group,name,family", [
    (g, name, f) for g in GroupId for name, _ in DECIDERS[g] for f in Family if f not in ALPHABETS[g]])
def test_foreign_letters_are_rejected(group, name, family):
    # every decider checks its group's alphabet before rewriting, so a
    # letter of another family fails alone, doubled, or among good letters
    bad, good = Gen(family, 0), Gen(ALPHABETS[group][0], 1)
    for w in ((bad,), (bad, bad), (good, bad), (bad, good.inverse())):
        with pytest.raises(AlphabetError):
            decide(group, name, w)
