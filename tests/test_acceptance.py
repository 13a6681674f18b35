"""Acceptance run: the seven top-level checks at their stated scales.

Each test prints one summary line; `pytest -v tests/test_acceptance.py`
gives one pass/fail line per criterion.
"""

import random
import time

from bvwords.braid import handle_reduce
from bvwords.bv_lmr import BVMode, equal_bv, is_trivial_bv, l_height_bound, to_third_form
from bvwords.cli import main
from bvwords.hatgroups import GroupMode, equal_hat, is_trivial_hat
from bvwords.perms import from_sigma_word
from bvwords.presentations import (
    FAMILIES,
    corrupt_instance,
    finite_presentation_instances,
    instantiate_family,
    negative_controls,
    verify,
    verify_all,
)
from bvwords.thompson_f import FNormal, equal_f, f_fraction, normalize_monoid
from bvwords.words import (
    Family,
    expand_bv_generators,
    invert,
    lam,
    pi,
    random_word,
    sig,
    vgen,
)


def test_criterion_1_presentations_verify_at_bound_8():
    start = time.monotonic()
    report = verify_all(8)
    elapsed = time.monotonic() - start
    assert report.ok, report.summary()
    assert not any(r.verdict == "resource-cap" for r in report.results)
    assert len(report.results) == 1268
    assert elapsed < 120
    print(f"\ncriterion 1: {len(report.results)} instances all hold in {elapsed:.1f}s")


def test_criterion_2_decider_agreement_1000_samples(capsys):
    start = time.monotonic()
    code = main(["selftest", "--samples", "1000", "--seed", "0",
                 "--max-index", "5", "--max-len", "10"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0 and out == "agreement: 2000/2000\n"
    assert elapsed < 300
    with capsys.disabled():
        print(f"\ncriterion 2: both deciders agree on 2000/2000 checks in {elapsed:.1f}s")


def _normalize_random_order(indices, rng):
    idx = list(indices)
    while True:
        descents = [i for i in range(len(idx) - 1) if idx[i] > idx[i + 1]]
        if not descents:
            return tuple(idx)
        i = rng.choice(descents)
        q, m = idx[i], idx[i + 1]
        idx[i], idx[i + 1] = m, q + 1


def test_criterion_3_monoid_confluence_1000_words():
    rng = random.Random(101)
    for _ in range(1000):
        w = random_word(rng, (Family.LAMBDA,), max_index=8, max_len=12, signed=False)
        normal = normalize_monoid(w)
        assert normal.indices == tuple(sorted(normal.indices))
        assert len(normal.indices) == len(w)
        for _ in range(5):
            assert _normalize_random_order((g.index for g in w), rng) == normal.indices
    print("\ncriterion 3: 1000 words x 5 rewrite orders, one normal form each")


def test_criterion_4_third_form_500_words():
    rng = random.Random(103)
    for _ in range(500):
        w = random_word(rng, (Family.V, Family.PI, Family.PIBAR), max_index=4, max_len=8)
        form = to_third_form(w)
        assert not form.height_m.is_empty and form.height_m.contains(form.k)
        assert l_height_bound(form.L) <= form.k
        assert l_height_bound(invert(form.R)) <= form.k
        assert equal_hat(expand_bv_generators(w), expand_bv_generators(form.word()),
                         GroupMode.BVHAT)
    print("\ncriterion 4: 500 third forms, all invariants and oracle equality hold")


def test_criterion_5_nontriviality_controls():
    assert not equal_f((lam(1),), (lam(2),))
    for mode in (BVMode.V, BVMode.BV):
        assert not equal_bv((vgen(1),), (vgen(2),), mode)
    # the relator of the v1 != v2 check, expanded, is the expected l fraction
    assert f_fraction(expand_bv_generators((vgen(2), vgen(1, -1)))) == (
        FNormal((0, 0, 0, 1)), FNormal((0, 0, 0, 2)))
    assert is_trivial_bv((pi(0), pi(0)), BVMode.V)
    assert not is_trivial_bv((pi(0), pi(0)), BVMode.BV)
    assert is_trivial_hat((sig(0), sig(0)), GroupMode.VHAT)
    assert not is_trivial_hat((sig(0), sig(0)), GroupMode.BVHAT)
    print("\ncriterion 5: all expected verdicts, fraction matches l0^3 l1 l2' l0'^3")


def test_criterion_6_braid_decider_10000_words():
    rng = random.Random(107)
    relators = [(sig(i), sig(j), sig(i, -1), sig(j, -1)) for i in range(7) for j in range(i + 2, 7)]
    relators += [(sig(i), sig(i + 1), sig(i), sig(i + 1, -1), sig(i, -1), sig(i + 1, -1)) for i in range(6)]
    trivial_count = 0
    for _ in range(10000):
        b = tuple(sig(rng.randint(0, 6), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 20)))
        verdict = handle_reduce(b) == ()
        rel = rng.choice(relators)
        cut = rng.randint(0, len(b))
        assert (handle_reduce(b[:cut] + rel + b[cut:]) == ()) is verdict
        assert handle_reduce(b + invert(b)) == ()
        if verdict:
            trivial_count += 1
            assert sum(g.exponent for g in b) == 0
            assert from_sigma_word(b).is_identity()
    assert trivial_count > 100  # the trivial branch is genuinely exercised
    print(f"\ncriterion 6: 10000 braid words checked, {trivial_count} trivial, no caps hit")


def test_criterion_7_negative_controls_detected():
    for inst in negative_controls():
        assert verify(inst).verdict == "fails", inst.source
    corrupted = 0
    for fam_id in FAMILIES:
        for inst in instantiate_family(fam_id, 1):
            assert verify(corrupt_instance(inst)).verdict == "fails", inst.source
            corrupted += 1
    for inst in finite_presentation_instances()[::7]:
        assert verify(corrupt_instance(inst)).verdict == "fails", inst.source
        corrupted += 1
    print(f"\ncriterion 7: 9 false relations and {corrupted} corrupted relators all detected")
