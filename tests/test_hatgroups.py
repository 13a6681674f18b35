"""Canonical hat fractions: push rules, triviality, and both group modes."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bvwords.hatgroups import GroupMode, HatFraction, canonicalize_hat, equal_hat, is_trivial_hat
from bvwords.limits import Budget, StepLimitExceeded
from bvwords.perms import Permutation, from_sigma_word
from bvwords.thompson_f import FNormal, normalize_monoid
from bvwords.words import (
    AlphabetError,
    Family,
    Gen,
    check_alphabet,
    free_reduce,
    invert,
    lam,
    pi,
    random_word,
    sig,
    vgen,
)
from test_rewrite_equivalence import push_lambda_inverse_right, push_sigma_past_lambda

BOTH = (GroupMode.VHAT, GroupMode.BVHAT)
LS = (Family.LAMBDA, Family.SIGMA)


def hat_relators(max_index, with_involutions):
    """All defining relator words (lhs . rhs**-1) with indices bounded."""
    rels = []
    for m in range(max_index + 1):
        for q in range(max_index + 1):
            if m < q:
                rels.append(((lam(q), lam(m)), (lam(m), lam(q + 1))))
            for e in (1, -1):
                if m < q:
                    rels.append(((sig(q, e), lam(m)), (lam(m), sig(q + 1, e))))
                if m > q + 1:
                    rels.append(((sig(q, e), lam(m)), (lam(m), sig(q, e))))
                if q >= m + 2:
                    rels.append(((sig(q, e), sig(m, e)), (sig(m, e), sig(q, e))))
        for e in (1, -1):
            rels.append(((sig(m, e), lam(m)), (lam(m + 1), sig(m, e), sig(m + 1, e))))
            rels.append(((sig(m, e), lam(m + 1)), (lam(m), sig(m + 1, e), sig(m, e))))
            rels.append(
                ((sig(m, e), sig(m + 1, e), sig(m, e)), (sig(m + 1, e), sig(m, e), sig(m + 1, e)))
            )
        if with_involutions:
            rels.append(((sig(m), sig(m)), ()))
    return [lhs + invert(rhs) for lhs, rhs in rels]


def test_push_sigma_past_lambda_cases():
    assert push_sigma_past_lambda(sig(2), lam(0)) == (lam(0), sig(3))
    assert push_sigma_past_lambda(sig(0), lam(0)) == (lam(1), sig(0), sig(1))
    assert push_sigma_past_lambda(sig(0, -1), lam(0)) == (lam(1), sig(0, -1), sig(1, -1))
    assert push_sigma_past_lambda(sig(1), lam(2)) == (lam(1), sig(2), sig(1))
    assert push_sigma_past_lambda(sig(0), lam(3)) == (lam(3), sig(0))


def test_push_sigma_rejects_bad_letters():
    with pytest.raises(ValueError):
        push_sigma_past_lambda(lam(0), lam(1))
    with pytest.raises(ValueError):
        push_sigma_past_lambda(sig(0), lam(1, -1))
    with pytest.raises(ValueError):
        push_sigma_past_lambda(sig(0), sig(1))


def test_push_lambda_inverse_cases():
    assert push_lambda_inverse_right(lam(1, -1), lam(3)) == (lam(4), lam(1, -1))
    assert push_lambda_inverse_right(lam(3, -1), lam(1)) == (lam(1), lam(4, -1))
    assert push_lambda_inverse_right(lam(0, -1), lam(0)) == ()
    assert push_lambda_inverse_right(lam(1, -1), sig(2)) == (sig(3), lam(1, -1))
    assert push_lambda_inverse_right(lam(2, -1), sig(1)) == (sig(1), sig(2), lam(1, -1))
    assert push_lambda_inverse_right(lam(1, -1), sig(1, -1)) == (sig(2, -1), sig(1, -1), lam(2, -1))
    assert push_lambda_inverse_right(lam(3, -1), sig(0)) == (sig(0), lam(3, -1))
    with pytest.raises(ValueError):
        push_lambda_inverse_right(lam(1), lam(3))
    with pytest.raises(ValueError):
        push_lambda_inverse_right(lam(1, -1), lam(3, -1))


def test_push_rules_preserve_element():
    # every rule instance at indices <= 8, checked on the machinery itself
    for m in range(9):
        for x in [lam(q) for q in range(9)] + [sig(q, e) for q in range(9) for e in (1, -1)]:
            lhs = (lam(m, -1), x)
            assert is_trivial_hat(lhs + invert(push_lambda_inverse_right(lam(m, -1), x)), GroupMode.BVHAT)
    for q in range(9):
        for e in (1, -1):
            for m in range(9):
                lhs = (sig(q, e), lam(m))
                assert is_trivial_hat(lhs + invert(push_sigma_past_lambda(sig(q, e), lam(m))), GroupMode.BVHAT)


def test_defining_relators_trivial():
    for rel in hat_relators(8, with_involutions=False):
        assert is_trivial_hat(rel, GroupMode.BVHAT)
        assert is_trivial_hat(rel, GroupMode.VHAT)
    for rel in hat_relators(4, with_involutions=True):
        assert is_trivial_hat(rel, GroupMode.VHAT)


def test_canonicalize_golden():
    frac = canonicalize_hat((sig(0), lam(0)), GroupMode.BVHAT)
    assert frac.f_part == FNormal((1,))
    assert frac.beta == (sig(0, 1), sig(1, 1))
    assert frac.g_part == FNormal(())
    frac = canonicalize_hat((sig(0), lam(0)), GroupMode.VHAT)
    assert frac.f_part == FNormal((1,))
    assert frac.beta == from_sigma_word((sig(0), sig(1)))
    assert frac.g_part == FNormal(())


def test_canonicalize_trivial_inputs():
    for mode in BOTH:
        for w in ((), (lam(0), lam(0, -1))):
            frac = canonicalize_hat(w, mode)
            assert frac.f_part == FNormal(()) and frac.g_part == FNormal(())
            assert frac.is_trivial()
        conj = (lam(0), sig(0), lam(0, -1))
        assert is_trivial_hat(conj + invert(conj), mode)


def test_sigma_exponents_by_mode():
    frac = canonicalize_hat((sig(2, -1),), GroupMode.BVHAT)
    assert frac.beta == (sig(2, -1),)
    frac = canonicalize_hat((sig(2, -1),), GroupMode.VHAT)
    assert frac.beta == Permutation.transposition(2, 3)


def test_fraction_reconstruction():
    rng = random.Random(23)
    for _ in range(60):
        w = random_word(rng, LS, max_index=4, max_len=8)
        for mode in BOTH:
            frac = canonicalize_hat(w, mode)
            assert frac.f_part == normalize_monoid(frac.f_part.word())
            assert frac.g_part == normalize_monoid(frac.g_part.word())
            assert equal_hat(w, frac.to_word(), mode)


def test_triviality_mode_split():
    assert is_trivial_hat((sig(0), sig(0)), GroupMode.VHAT)
    assert not is_trivial_hat((sig(0), sig(0)), GroupMode.BVHAT)


def test_bvhat_trivial_implies_vhat_trivial():
    rng = random.Random(31)
    seen_trivial = 0
    for _ in range(80):
        w = random_word(rng, LS, max_index=3, max_len=5)
        scrambled = w + tuple(rng.sample(invert(w), len(w)))
        for cand in (w, w + invert(w), scrambled):
            if is_trivial_hat(cand, GroupMode.BVHAT):
                seen_trivial += 1
                assert is_trivial_hat(cand, GroupMode.VHAT)
    assert seen_trivial >= 80


def test_relator_insertion_invariance():
    rng = random.Random(37)
    rels = {mode: hat_relators(6, with_involutions=mode is GroupMode.VHAT) for mode in BOTH}
    for _ in range(60):
        w = random_word(rng, LS, max_index=4, max_len=8)
        for mode in BOTH:
            before = is_trivial_hat(w, mode)
            rel = rng.choice(rels[mode])
            cut = rng.randint(0, len(w))
            assert is_trivial_hat(w[:cut] + rel + w[cut:], mode) is before


def test_equal_and_unequal_pairs():
    for mode in BOTH:
        assert equal_hat((sig(1), lam(1)), (lam(2), sig(1), sig(2)), mode)
        assert not equal_hat((lam(1),), (lam(2),), mode)
        assert not equal_hat((lam(0),), (sig(0),), mode)
        assert not is_trivial_hat((lam(1), lam(2, -1)), mode)
    rng = random.Random(41)
    for _ in range(20):
        w = random_word(rng, LS, max_index=4, max_len=8)
        assert equal_hat(w, w, rng.choice(BOTH))


def test_conjugation_moves_indices():
    # l_i and s_i are the l0-conjugates of l1 and s1
    for i in range(2, 9):
        shift = (lam(0, -1),) * (i - 1)
        for mode in BOTH:
            assert equal_hat(shift + (lam(1),) + invert(shift), (lam(i),), mode)
            assert equal_hat(shift + (sig(1),) + invert(shift), (sig(i),), mode)


def test_pure_lambda_words():
    # no-sigma words exercise the split between the two collection phases
    for mode in BOTH:
        assert equal_hat((lam(1), lam(0)), (lam(0), lam(2)), mode)
        assert is_trivial_hat((lam(1), lam(0), lam(2, -1), lam(0, -1)), mode)
        frac = canonicalize_hat((lam(1), lam(0)), mode)
        assert frac.f_part == FNormal((0, 2)) and frac.g_part == FNormal(())
        assert not frac.is_trivial()


def test_free_reduction_feeds_canonicalization():
    rng = random.Random(43)
    for _ in range(30):
        w = random_word(rng, LS, max_index=4, max_len=6)
        noisy = w[:2] + (sig(3), sig(3, -1)) + w[2:]
        mode = rng.choice(BOTH)
        assert is_trivial_hat(noisy + invert(free_reduce(noisy)), mode)


def test_budget_cap_raises():
    w = (sig(0), lam(0)) * 12
    with pytest.raises(StepLimitExceeded):
        canonicalize_hat(w, GroupMode.BVHAT, Budget(limit=3))


def test_fraction_rejects_a_mode_that_is_not_a_member():
    # read as BVhat, "Vhat" would call s0 s0 nontrivial
    with pytest.raises(ValueError, match="HatFraction: mode must be GroupMode.VHAT or GroupMode.BVHAT"):
        HatFraction(FNormal(()), (sig(0), sig(0)), FNormal(()), "Vhat")


def test_canonicalize_hat_checks_its_mode_before_spending():
    w = (lam(0, -1), lam(1))    # one push: l0' l1 -> l2 l0'
    budget = Budget()
    with pytest.raises(ValueError, match="canonicalize_hat: mode must be"):
        canonicalize_hat(w, "Vhat", budget)
    assert budget.used == 0
    canonicalize_hat(w, GroupMode.VHAT, budget)
    assert budget.used == 1


_MISMATCHED_BETA = """
from bvwords.hatgroups import GroupMode, HatFraction
from bvwords.perms import Permutation
from bvwords.thompson_f import FNormal
from bvwords.words import sig

assert False, "this check must vanish under -O"
empty = FNormal(())
cases = [
    ((sig(0), sig(0, -1)), GroupMode.VHAT),
    (Permutation.identity(), GroupMode.BVHAT),
]
for beta, mode in cases:
    try:
        HatFraction(empty, beta, empty, mode)
    except TypeError as e:
        if "middle must be" in str(e):
            continue
    raise SystemExit(f"no error from HatFraction with a {mode.value} middle {beta!r}")
"""


def test_mismatched_middle_raises_under_optimization():
    # the constructor's type check on a fraction's middle must survive
    # python -O
    src = str(Path(__import__("bvwords").__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", _MISMATCHED_BETA],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# Letters the one-pass alphabet check must reject: two of the wrong
# family and two malformed ones
BAD_HAT_LETTERS = (vgen(1), pi(0), Gen(Family.LAMBDA, 0, 2), Gen(Family.SIGMA, -1, 1))


@pytest.mark.parametrize("bad", BAD_HAT_LETTERS, ids=repr)
@pytest.mark.parametrize("w", [
    lambda bad: (lam(0), lam(0, -1), bad, sig(1), lam(2)),
    lambda bad: (sig(1), lam(0), lam(0, -1), lam(2), bad),
], ids=["after a cancelled pair", "at the end"])
@pytest.mark.parametrize("mode", BOTH)
def test_alphabet_error_matches_check_alphabet(bad, w, mode):
    # the check runs while the word is free-reduced, so a letter right
    # after a cancelling l0 l0' must be met as it would be in a first pass
    w = w(bad)
    with pytest.raises(AlphabetError) as expected:
        check_alphabet(w, frozenset(LS), "canonicalize_hat")
    with pytest.raises(AlphabetError) as got:
        canonicalize_hat(w, mode)
    assert str(got.value) == str(expected.value)
