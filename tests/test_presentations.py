"""Relation tables, finite presentations, verification, negative controls."""

import pytest

from bvwords.bv_lmr import RELATION_FAMILIES, BVMode, equal_bv, is_trivial_bv
from bvwords.hatgroups import GroupMode, equal_hat
from bvwords.presentations import (
    FAMILIES,
    GroupId,
    RelationInstance,
    Report,
    Scheme,
    VerifyResult,
    corrupt_instance,
    expand_finite_defs,
    finite_presentation_instances,
    instantiate_family,
    negative_controls,
    verify,
    verify_all,
)
from bvwords.thompson_f import equal_f
from bvwords.words import AlphabetError, lam, pi, pibar, sig, vgen


def tags(instances, group):
    return {i.source.split("(")[1].rstrip(")") for i in instances if i.group is group}


def test_one_relation_table():
    # the v/p/pb rows of FAMILIES are bv_lmr's records, not copies of them
    assert len(FAMILIES) == 24 and len(RELATION_FAMILIES) == 13
    for fam_id, spec in RELATION_FAMILIES.items():
        assert FAMILIES[fam_id] is spec
        assert spec.groups in ((GroupId.V,), (GroupId.V, GroupId.BV))
        assert spec.signed in ((), spec.groups)


def test_instantiate_family_side_conditions():
    far = instantiate_family("pv-far", 4)
    assert tags(far, GroupId.V) == {"0,2", "0,3", "0,4", "1,3", "1,4", "2,4"}
    assert tags(far, GroupId.BV) == tags(far, GroupId.V)
    ss = instantiate_family("ss-far", 3)
    assert tags(ss, GroupId.SINF) == {"0,2", "0,3", "1,3"}
    assert {i.group for i in ss} == {GroupId.SINF, GroupId.BINF, GroupId.VHAT, GroupId.BVHAT}


def test_instantiate_family_edges():
    assert instantiate_family("vv-shift", 0) == []
    absorb = instantiate_family("pbv-absorb", 0)
    assert len(absorb) == 4  # one index, two groups, two exponents
    assert {i.source for i in absorb} == {"pbv-absorb(0)", "pbv-absorb(0;e=-1)"}
    with pytest.raises(ValueError):
        instantiate_family("no-such-family", 3)
    with pytest.raises(ValueError):
        instantiate_family("vv-shift", -1)


def test_expand_hat_defs():
    assert expand_finite_defs((lam(1),), Scheme.HAT) == (sig(0), lam(0), sig(1, -1), sig(0, -1))
    assert expand_finite_defs((lam(2),), Scheme.HAT) == (
        lam(0, -1), sig(0), lam(0), sig(1, -1), sig(0, -1), lam(0))
    assert expand_finite_defs((sig(2),), Scheme.HAT) == (lam(0, -1), sig(1), lam(0))
    for base in (lam(0), sig(0), sig(1), sig(1, -1)):
        assert expand_finite_defs((base,), Scheme.HAT) == (base,)
    with pytest.raises(AlphabetError):
        expand_finite_defs((vgen(0),), Scheme.HAT)
    for i in range(2, 6):
        for g in (lam(i), sig(i)):
            expanded = expand_finite_defs((g,), Scheme.HAT)
            for mode in (GroupMode.VHAT, GroupMode.BVHAT):
                assert equal_hat(expanded, (g,), mode)


def test_expand_bv_defs():
    assert expand_finite_defs((pi(0),), Scheme.BV_V) == (pibar(0), vgen(0), pibar(1, -1))
    assert expand_finite_defs((vgen(0),), Scheme.BV_P) == (pibar(0, -1), pi(0), pibar(1))
    assert expand_finite_defs((vgen(2),), Scheme.BV_V) == (vgen(0, -1), vgen(1), vgen(0))
    assert expand_finite_defs((vgen(1), vgen(1, -1)), Scheme.BV_V) == ()
    with pytest.raises(AlphabetError):
        expand_finite_defs((lam(0),), Scheme.BV_V)
    for i in range(4):
        for g in (vgen(i), pi(i), pibar(i)):
            for scheme in (Scheme.BV_V, Scheme.BV_P):
                assert equal_bv(expand_finite_defs((g,), scheme), (g,), BVMode.BV)


def test_verify_golden():
    good = RelationInstance((sig(0), lam(0)), (lam(1), sig(0), sig(1)), "golden", GroupId.BVHAT)
    result = verify(good)
    assert result.verdict == "holds"
    assert result.line().startswith("source=golden group=BVhat verdict=holds steps=")
    bad = RelationInstance((sig(0), lam(0)), (lam(1), sig(1), sig(0)), "swapped", GroupId.BVHAT)
    assert verify(bad).verdict == "fails"


def test_verify_resource_cap():
    inst = finite_presentation_instances()[0]
    assert verify(inst).verdict == "holds"
    capped = verify(inst, max_steps=1)
    assert capped.verdict == "resource-cap"
    assert capped.detail == "canonicalize_hat"  # names the capped operation


def test_verify_rejects_nonpositive_step_cap():
    inst = finite_presentation_instances()[0]
    for cap in (0, -5):
        with pytest.raises(ValueError):
            verify(inst, max_steps=cap)


@pytest.mark.parametrize("source, group, steps", [
    # BV's braid verdict charges one step per letter of the freely
    # reduced middle: 3,596 and 2,432 letters
    ("finite-bv#12/bv-p", GroupId.BV, 4702),
    ("finite-v#12/bv-p", GroupId.V, 1037),
    ("finite-bv#24/bv-p", GroupId.BV, 2937),
    # the slowest V relators of a ``verify`` pass, whose equalization
    # joins many syllables of one height
    ("finite-v#02/bv-p", GroupId.V, 885),
    ("finite-v#10/bv-p", GroupId.V, 513),
    ("finite-v#11/bv-p", GroupId.V, 516),
    ("finite-v#24/bv-p", GroupId.V, 460),
])
def test_finite_relator_step_counts_pinned(source, group, steps):
    # the exact rewrite steps of the two routes on the heaviest relators:
    # a change to the order or number of rewrites shows here first
    [inst] = [i for i in finite_presentation_instances() if i.source == source and i.group is group]
    result = verify(inst)
    assert result.verdict == "holds"
    assert result.steps == steps


def test_verify_all_small_bound():
    report = verify_all(2)
    assert report.ok
    assert len(report.results) == 305
    counts = report.family_counts()
    assert counts["vv-shift"] == (6, 6)
    assert counts["pbv-absorb"] == (12, 12)
    assert counts["ll-shift"] == (9, 9)
    assert counts["s-invol"] == (6, 6)
    assert counts["finite-bv"] == (52, 52)
    assert counts["finite-v"] == (60, 60)
    assert counts["finite-vhat"] == (18, 18)
    assert counts["finite-bvhat"] == (18, 18)
    assert set(counts) == set(FAMILIES) | {"finite-bv", "finite-bvhat", "finite-v", "finite-vhat"}
    sources = [r.source for r in report.results]
    assert sources == sorted(sources)
    assert report.summary().endswith(f"total: {len(report.results)} instances, all hold")


def test_verify_all_family_filter():
    report = verify_all(3, family="pv-shift")
    assert report.ok
    assert set(report.family_counts()) == {"pv-shift"}
    assert all(r.source.startswith("pv-shift(") for r in report.results)


def test_finite_presentations_hold():
    instances = finite_presentation_instances()
    per_group = {g: [i for i in instances if i.group is g] for g in GroupId}
    assert len(per_group[GroupId.VHAT]) == 18
    assert len(per_group[GroupId.BVHAT]) == 18
    assert len(per_group[GroupId.BV]) == 52   # 26 relators, two schemes
    assert len(per_group[GroupId.V]) == 60    # 30 relators, two schemes
    schemes = {i.source.split("/")[1] for i in per_group[GroupId.BV]}
    assert schemes == {"bv-v", "bv-p"}
    for inst in instances:
        assert verify(inst).verdict == "holds", inst.source


def test_negative_controls_all_fail():
    controls = negative_controls()
    assert len(controls) == 9
    for inst in controls:
        result = verify(inst)
        assert result.verdict == "fails", inst.source
        if inst.group in (GroupId.V, GroupId.BV):
            assert result.detail == "lmr=False hat=False"  # both routes reject


def test_corrupt_instance_detected():
    picks = [
        instantiate_family("ll-shift", 1)[0],                         # F
        [i for i in instantiate_family("ll-shift", 1) if i.group is GroupId.BVHAT][0],
        [i for i in instantiate_family("ss-braid", 1) if i.group is GroupId.SINF][0],
        [i for i in instantiate_family("ss-braid", 1) if i.group is GroupId.BINF][0],
        [i for i in instantiate_family("pbv-absorb", 1) if i.group is GroupId.V][0],
        [i for i in instantiate_family("pbv-absorb", 1) if i.group is GroupId.BV][0],
        finite_presentation_instances()[0],
    ]
    assert {p.group for p in picks} == set(GroupId)
    for inst in picks:
        assert verify(inst).verdict == "holds"
        bad = corrupt_instance(inst)
        assert bad.source == inst.source + "!corrupt"
        assert verify(bad).verdict == "fails", bad.source


def test_nontriviality_facts():
    assert not equal_f((lam(1),), (lam(2),))
    for mode in (BVMode.V, BVMode.BV):
        assert not equal_bv((vgen(1),), (vgen(2),), mode)
    assert is_trivial_bv((pi(0), pi(0)), BVMode.V)
    assert not is_trivial_bv((pi(0), pi(0)), BVMode.BV)


def test_report_summary_names_each_verdict():
    results = [VerifyResult("a", GroupId.V, verdict, 1) for verdict in ("holds", "fails", "resource-cap", "fails")]
    assert Report(results).summary().endswith("total: 4 instances, 1 hold, 2 FAILED, 1 capped")
    assert Report([]).summary() == "total: 0 instances, nothing checked"
