"""The letter memos against the per-call tables they replaced.

The package has two int codings, each turned back into letters through
one bounded ``_letter`` memo: ``bv_lmr``'s v/p/pb codes, and the l/s
codes of ``words``, which the hat fold, handle reduction and the LMR
route's ``l`` and ``s`` letters share.  The references below are the
bodies that built a fresh ``{code: Gen}`` table on every call; on any
code list the two give the same letters.  A list with more distinct codes
than the memo holds makes it evict, and the letters must not change.

The other way, ``words._reduced_codes`` reads each letter through a
bounded memo per alphabet, from a letter to its code.  Its reference is
the reader's body without that memo: the codes and the error texts must
be the same, a letter the check rejects is never stored, and the memo
stays within its cap.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvwords import braid, bv_lmr, hatgroups, thompson_f, words
from bvwords.cli import main
from bvwords.presentations import verify_all
from bvwords.words import AlphabetError, Family, Gen, check_alphabet, lam, sig

MEMOS = (bv_lmr._letter, words._letter)
SETTINGS = settings(max_examples=300, deadline=None)
BIG = 10 ** 6
# more distinct indices than any memo holds
EVICTING = list(range(3 * bv_lmr._letter.cache_info().maxsize))


def _ref_lmr_decode(codes):
    if not codes:
        return ()
    table = {x: Gen(bv_lmr._FAMILY[x & 7], x >> 3, 1 - 2 * (x & 1)) for x in set(codes)}
    return tuple(map(table.__getitem__, codes))


def _ref_braid_decode(codes):
    table = {x: Gen(Family.SIGMA, x >> 2, 2 - (x & 3)) for x in set(codes) if x >= 0}
    return tuple([table[x] for x in codes if x >= 0])


def _ref_hat_middle(middle):
    letters = {y: Gen(Family.SIGMA, y >> 2, 2 - (y & 3)) for y in set(middle)}
    return tuple(map(letters.__getitem__, middle))


def _ref_f_letters(indices):
    return tuple(Gen(Family.LAMBDA, i) for i in indices)


def _ref_reduced_codes(w, families, what):
    codes = []
    for g in w:
        family, i, e = g
        if family not in families or e not in (1, -1) or i < 0:
            check_alphabet((g,), families, what)
        x = i << 2 | (words._KIND[family] - e)
        if codes and codes[-1] == x ^ 2:
            codes.pop()
        else:
            codes.append(x)
    return codes


def _all_gen(w):
    return all(type(g) is Gen for g in w)


def test_every_memo_is_bounded():
    for memo in MEMOS:
        assert memo.cache_info().maxsize is not None
        assert len(EVICTING) > memo.cache_info().maxsize


@SETTINGS
@given(st.lists(st.builds(lambda i, kind: i << 3 | kind, st.integers(0, BIG), st.integers(0, 5)),
                max_size=60))
@example([i << 3 | i % 6 for i in EVICTING])
def test_lmr_decode_matches_per_call_table(codes):
    w = bv_lmr._decode(codes)
    assert w == _ref_lmr_decode(codes)
    assert _all_gen(w)


@SETTINGS
@given(st.lists(st.one_of(st.builds(lambda i, kind: i << 2 | kind, st.integers(0, BIG), st.sampled_from((1, 3))),
                          st.just(braid._DELETED)),
                max_size=60))
@example([i << 2 | (1 + 2 * (i % 2)) for i in EVICTING] + [braid._DELETED])
def test_braid_decode_matches_per_call_table(codes):
    w = braid._decode(codes)
    assert w == _ref_braid_decode(codes)
    assert _all_gen(w)


@SETTINGS
@given(st.lists(st.builds(lambda i, kind: i << 2 | kind, st.integers(0, BIG), st.sampled_from((1, 3))),
                max_size=60),
       st.lists(st.integers(0, BIG), max_size=60))
@example([i << 2 | (1 + 2 * (i % 2)) for i in EVICTING], EVICTING)
def test_hat_letters_match_per_call_tables(middle, indices):
    """The BVhat middle's s letters and ``f_fraction``'s l letters."""
    w = tuple(map(thompson_f._letter, middle))
    assert w == _ref_hat_middle(middle)
    letters = tuple([thompson_f._letter(i << 2) for i in indices])
    assert letters == _ref_f_letters(indices)
    assert _all_gen(w + letters)
    # inverse l letters, which neither table built
    assert [thompson_f._letter(i << 2 | 2) for i in indices] == [Gen(Family.LAMBDA, i, -1) for i in indices]


def test_every_l_s_letter_comes_from_one_memo():
    assert braid._letter is thompson_f._letter is hatgroups._letter is bv_lmr._ls_letter is words._letter


def test_every_l_s_word_is_read_by_one_reader():
    # the F fraction, the hat fold and handle reduction check and
    # free-reduce their input in the same one pass
    assert braid._reduced_codes is thompson_f._reduced_codes is hatgroups._reduced_codes is words._reduced_codes


def test_verify_all_is_the_same_from_cold_memos():
    for memo in MEMOS:
        memo.cache_clear()
    words._CODE_MEMOS.clear()
    cold = [r.line() for r in verify_all(8).results]
    warm = [r.line() for r in verify_all(8).results]
    assert cold == warm
    for memo in MEMOS:
        assert memo.cache_info().currsize > 0


def test_code_memo_reads_verify_and_selftest_words_as_before(monkeypatch, capsys):
    # every word the three readers' callers read, from cold memos and warm
    reader, reads = words._reduced_codes, []

    def checked(w, families, what):
        codes = reader(w, families, what)
        assert codes == _ref_reduced_codes(w, families, what)
        reads.append(len(codes))
        return codes

    for module in (braid, hatgroups, thompson_f):
        monkeypatch.setattr(module, "_reduced_codes", checked)
    words._CODE_MEMOS.clear()
    for _ in range(2):
        assert verify_all(8).ok
        assert main(["selftest", "--samples", "300", "--seed", "0"]) == 0
    capsys.readouterr()
    # the longest is the freely reduced braid of finite-bv#12's middle
    assert len(reads) > 5_000 and max(reads) == 3_596


@pytest.mark.parametrize("bad", (lam(0), Gen(Family.SIGMA, -1, 1), Gen(Family.SIGMA, 0, 0), Gen(Family.SIGMA, 0, 2)),
                         ids=repr)
def test_code_memo_never_holds_a_rejected_letter(bad):
    braids, hat = frozenset({Family.SIGMA}), frozenset({Family.LAMBDA, Family.SIGMA})
    # lam(0) is a letter of the hat alphabet, and its memo holds it
    words._reduced_codes((lam(0),), hat, "canonicalize_hat")
    with pytest.raises(AlphabetError) as expected:
        check_alphabet((bad,), braids, "is_trivial_braid")
    for _ in range(2):
        with pytest.raises(AlphabetError) as got:
            words._reduced_codes((sig(0), bad), braids, "is_trivial_braid")
        assert str(got.value) == str(expected.value)
        assert bad not in words._CODE_MEMOS[braids]
    assert sig(0) in words._CODE_MEMOS[braids]


def test_code_memo_stays_within_its_cap():
    assert words._MEMO_CAP == words._letter.cache_info().maxsize
    families = frozenset({Family.LAMBDA})
    w = tuple(lam(i) for i in EVICTING)
    assert words._reduced_codes(w, families, "f_fraction") == [i << 2 for i in EVICTING]
    assert words._reduced_codes(w, families, "f_fraction") == [i << 2 for i in EVICTING]
    assert 0 < len(words._CODE_MEMOS[families]) <= words._MEMO_CAP
