"""``bvwords lmr`` pinned on every finite V/BV relator of ``verify_all(8)``.

For each relator the table holds the lengths of L, M and R, the height k
and the first 16 hex digits of the sha256 of ``"L | M | R"``, each part
in the tokens ``bvwords lmr`` prints.  The figures were recorded before
height raising moved to the int coding, and before ``split_monosyllables``
freely reduced the flanks, so they pin the unreduced chain
(``unreduced_third_form``), where ``finite-v#12/bv-p`` has the largest
middle, 15,944 letters.  A change to repair, equalization or raising
cannot silently change that chain, and the public ``to_third_form`` must
give its L, R, k and steps, and its M with every p run freely reduced.

The braids of the two BV relators that load handle reduction most are
pinned through it as well: the steps it spends, and an empty result.
"""

import hashlib

import pytest

from bvwords.braid import handle_reduce
from bvwords.bv_lmr import m_to_sigma, to_third_form
from bvwords.cli import format_word
from bvwords.limits import Budget
from bvwords.presentations import GroupId, finite_presentation_instances
from test_rewrite_equivalence import reduce_p_runs, unreduced_third_form

PINNED = [
    ("finite-bv#01/bv-v", GroupId.BV, 2, 0, 2, 5, "cf9f8e03aef988a2"),
    ("finite-bv#02/bv-v", GroupId.BV, 2, 0, 2, 6, "af96c17ae6897742"),
    ("finite-bv#03/bv-v", GroupId.BV, 1, 0, 1, 3, "8372b23936fab7d5"),
    ("finite-bv#04/bv-v", GroupId.BV, 1, 0, 1, 3, "8372b23936fab7d5"),
    ("finite-bv#05/bv-v", GroupId.BV, 1, 0, 1, 3, "8372b23936fab7d5"),
    ("finite-bv#06/bv-v", GroupId.BV, 1, 0, 1, 4, "d5830a64a6f9ca9d"),
    ("finite-bv#07/bv-v", GroupId.BV, 1, 6, 1, 3, "557bca970498483f"),
    ("finite-bv#08/bv-v", GroupId.BV, 1, 6, 1, 4, "7c5232db23bd392c"),
    ("finite-bv#09/bv-v", GroupId.BV, 1, 0, 1, 4, "d5830a64a6f9ca9d"),
    ("finite-bv#10/bv-v", GroupId.BV, 1, 0, 1, 5, "0b70a7853599e67d"),
    ("finite-bv#11/bv-v", GroupId.BV, 1, 0, 1, 5, "0b70a7853599e67d"),
    ("finite-bv#12/bv-v", GroupId.BV, 1, 0, 1, 6, "f6a3d5a450a864e7"),
    ("finite-bv#13/bv-v", GroupId.BV, 0, 0, 0, 0, "5d1a4cdc1bde1950"),
    ("finite-bv#14/bv-v", GroupId.BV, 0, 0, 0, 0, "5d1a4cdc1bde1950"),
    ("finite-bv#15/bv-v", GroupId.BV, 0, 4, 0, 4, "b20680a2c6d50a87"),
    ("finite-bv#16/bv-v", GroupId.BV, 0, 4, 0, 5, "12b561f0952ebcd2"),
    ("finite-bv#17/bv-v", GroupId.BV, 0, 4, 0, 5, "1c2eb3b9dcee6c29"),
    ("finite-bv#18/bv-v", GroupId.BV, 0, 4, 0, 6, "f3b775519e3df6e8"),
    ("finite-bv#19/bv-v", GroupId.BV, 0, 6, 0, 3, "0c34d69a19054a4c"),
    ("finite-bv#20/bv-v", GroupId.BV, 0, 6, 0, 4, "cc26e1a29551c6cc"),
    ("finite-bv#21/bv-v", GroupId.BV, 0, 4, 0, 3, "d6cbe3a1018f6e57"),
    ("finite-bv#22/bv-v", GroupId.BV, 0, 4, 0, 4, "0a3f6062442a2db5"),
    ("finite-bv#23/bv-v", GroupId.BV, 0, 4, 0, 4, "fe74ae3c01b5fb6d"),
    ("finite-bv#24/bv-v", GroupId.BV, 0, 4, 0, 5, "cef43775a5979d40"),
    ("finite-bv#25/bv-v", GroupId.BV, 0, 6, 0, 2, "273f20fb64a8d5b5"),
    ("finite-bv#26/bv-v", GroupId.BV, 0, 6, 0, 3, "8c78e44a7067b86c"),
    ("finite-bv#01/bv-p", GroupId.BV, 8, 1070, 8, 14, "7364888363b59ca8"),
    ("finite-bv#02/bv-p", GroupId.BV, 14, 4300, 14, 25, "1c00490312007d60"),
    ("finite-bv#03/bv-p", GroupId.BV, 5, 214, 5, 8, "34c02408c625cfb7"),
    ("finite-bv#04/bv-p", GroupId.BV, 15, 1866, 15, 20, "e77d0713f38ea0b7"),
    ("finite-bv#05/bv-p", GroupId.BV, 3, 68, 3, 5, "12e27325c4c91dd0"),
    ("finite-bv#06/bv-p", GroupId.BV, 3, 168, 3, 6, "eac68b720fd8f229"),
    ("finite-bv#07/bv-p", GroupId.BV, 3, 68, 3, 5, "98df329400770e18"),
    ("finite-bv#08/bv-p", GroupId.BV, 3, 168, 3, 6, "1190e459f3d0a98b"),
    ("finite-bv#09/bv-p", GroupId.BV, 9, 1530, 9, 18, "2867b76d2d572107"),
    ("finite-bv#10/bv-p", GroupId.BV, 15, 5896, 15, 31, "6acedd34e7957ead"),
    ("finite-bv#11/bv-p", GroupId.BV, 14, 5088, 14, 29, "3b70b05e743a63b6"),
    ("finite-bv#12/bv-p", GroupId.BV, 22, 15944, 22, 46, "8e702538e4cb46e2"),
    ("finite-bv#13/bv-p", GroupId.BV, 0, 8, 0, 2, "e2018248ac6c5c5b"),
    ("finite-bv#14/bv-p", GroupId.BV, 1, 36, 1, 4, "8800e002aaff3a82"),
    ("finite-bv#15/bv-p", GroupId.BV, 0, 52, 0, 4, "e12bf68e3905a28e"),
    ("finite-bv#16/bv-p", GroupId.BV, 0, 140, 0, 5, "b44601d6d567de3f"),
    ("finite-bv#17/bv-p", GroupId.BV, 0, 140, 0, 5, "42f1584ab5faac34"),
    ("finite-bv#18/bv-p", GroupId.BV, 0, 276, 0, 6, "dbe7ae8f1df29064"),
    ("finite-bv#19/bv-p", GroupId.BV, 0, 6, 0, 3, "0c34d69a19054a4c"),
    ("finite-bv#20/bv-p", GroupId.BV, 0, 78, 0, 4, "dbd7393c850a53d2"),
    ("finite-bv#21/bv-p", GroupId.BV, 5, 178, 5, 8, "fae9073deb368dfd"),
    ("finite-bv#22/bv-p", GroupId.BV, 15, 1754, 15, 20, "d6d535d7f6a02d3d"),
    ("finite-bv#23/bv-p", GroupId.BV, 12, 1252, 12, 17, "31fe7da07f9e731d"),
    ("finite-bv#24/bv-p", GroupId.BV, 27, 7196, 27, 35, "b805eced791e4db5"),
    ("finite-bv#25/bv-p", GroupId.BV, 0, 6, 0, 2, "273f20fb64a8d5b5"),
    ("finite-bv#26/bv-p", GroupId.BV, 4, 274, 4, 8, "c3909e1d48a2dffe"),
    ("finite-v#01/bv-v", GroupId.V, 2, 0, 2, 5, "cf9f8e03aef988a2"),
    ("finite-v#02/bv-v", GroupId.V, 2, 0, 2, 6, "af96c17ae6897742"),
    ("finite-v#03/bv-v", GroupId.V, 1, 0, 1, 3, "8372b23936fab7d5"),
    ("finite-v#04/bv-v", GroupId.V, 1, 0, 1, 3, "8372b23936fab7d5"),
    ("finite-v#05/bv-v", GroupId.V, 1, 0, 1, 3, "8372b23936fab7d5"),
    ("finite-v#06/bv-v", GroupId.V, 1, 0, 1, 4, "d5830a64a6f9ca9d"),
    ("finite-v#07/bv-v", GroupId.V, 1, 6, 1, 3, "557bca970498483f"),
    ("finite-v#08/bv-v", GroupId.V, 1, 6, 1, 4, "7c5232db23bd392c"),
    ("finite-v#09/bv-v", GroupId.V, 1, 0, 1, 4, "d5830a64a6f9ca9d"),
    ("finite-v#10/bv-v", GroupId.V, 1, 0, 1, 5, "0b70a7853599e67d"),
    ("finite-v#11/bv-v", GroupId.V, 1, 0, 1, 5, "0b70a7853599e67d"),
    ("finite-v#12/bv-v", GroupId.V, 1, 0, 1, 6, "f6a3d5a450a864e7"),
    ("finite-v#13/bv-v", GroupId.V, 0, 0, 0, 0, "5d1a4cdc1bde1950"),
    ("finite-v#14/bv-v", GroupId.V, 0, 0, 0, 0, "5d1a4cdc1bde1950"),
    ("finite-v#15/bv-v", GroupId.V, 0, 4, 0, 4, "b20680a2c6d50a87"),
    ("finite-v#16/bv-v", GroupId.V, 0, 4, 0, 5, "12b561f0952ebcd2"),
    ("finite-v#17/bv-v", GroupId.V, 0, 4, 0, 5, "1c2eb3b9dcee6c29"),
    ("finite-v#18/bv-v", GroupId.V, 0, 4, 0, 6, "f3b775519e3df6e8"),
    ("finite-v#19/bv-v", GroupId.V, 0, 6, 0, 3, "0c34d69a19054a4c"),
    ("finite-v#20/bv-v", GroupId.V, 0, 6, 0, 4, "cc26e1a29551c6cc"),
    ("finite-v#21/bv-v", GroupId.V, 0, 4, 0, 3, "d6cbe3a1018f6e57"),
    ("finite-v#22/bv-v", GroupId.V, 0, 4, 0, 4, "0a3f6062442a2db5"),
    ("finite-v#23/bv-v", GroupId.V, 0, 4, 0, 4, "fe74ae3c01b5fb6d"),
    ("finite-v#24/bv-v", GroupId.V, 0, 4, 0, 5, "cef43775a5979d40"),
    ("finite-v#25/bv-v", GroupId.V, 0, 6, 0, 2, "273f20fb64a8d5b5"),
    ("finite-v#26/bv-v", GroupId.V, 0, 6, 0, 3, "8c78e44a7067b86c"),
    ("finite-v#27/bv-v", GroupId.V, 0, 2, 0, 1, "23c4790b8a09fa5f"),
    ("finite-v#28/bv-v", GroupId.V, 0, 2, 0, 2, "c98b8f7be6843a71"),
    ("finite-v#29/bv-v", GroupId.V, 0, 2, 0, 2, "9c44a4005c880f2b"),
    ("finite-v#30/bv-v", GroupId.V, 0, 2, 0, 3, "6b6947172573aabb"),
    ("finite-v#01/bv-p", GroupId.V, 8, 1070, 8, 14, "7364888363b59ca8"),
    ("finite-v#02/bv-p", GroupId.V, 14, 4300, 14, 25, "1c00490312007d60"),
    ("finite-v#03/bv-p", GroupId.V, 5, 214, 5, 8, "34c02408c625cfb7"),
    ("finite-v#04/bv-p", GroupId.V, 15, 1866, 15, 20, "e77d0713f38ea0b7"),
    ("finite-v#05/bv-p", GroupId.V, 3, 68, 3, 5, "12e27325c4c91dd0"),
    ("finite-v#06/bv-p", GroupId.V, 3, 168, 3, 6, "eac68b720fd8f229"),
    ("finite-v#07/bv-p", GroupId.V, 3, 68, 3, 5, "98df329400770e18"),
    ("finite-v#08/bv-p", GroupId.V, 3, 168, 3, 6, "1190e459f3d0a98b"),
    ("finite-v#09/bv-p", GroupId.V, 9, 1530, 9, 18, "2867b76d2d572107"),
    ("finite-v#10/bv-p", GroupId.V, 15, 5896, 15, 31, "6acedd34e7957ead"),
    ("finite-v#11/bv-p", GroupId.V, 14, 5088, 14, 29, "3b70b05e743a63b6"),
    ("finite-v#12/bv-p", GroupId.V, 22, 15944, 22, 46, "8e702538e4cb46e2"),
    ("finite-v#13/bv-p", GroupId.V, 0, 8, 0, 2, "e2018248ac6c5c5b"),
    ("finite-v#14/bv-p", GroupId.V, 1, 36, 1, 4, "8800e002aaff3a82"),
    ("finite-v#15/bv-p", GroupId.V, 0, 52, 0, 4, "e12bf68e3905a28e"),
    ("finite-v#16/bv-p", GroupId.V, 0, 140, 0, 5, "b44601d6d567de3f"),
    ("finite-v#17/bv-p", GroupId.V, 0, 140, 0, 5, "42f1584ab5faac34"),
    ("finite-v#18/bv-p", GroupId.V, 0, 276, 0, 6, "dbe7ae8f1df29064"),
    ("finite-v#19/bv-p", GroupId.V, 0, 6, 0, 3, "0c34d69a19054a4c"),
    ("finite-v#20/bv-p", GroupId.V, 0, 78, 0, 4, "dbd7393c850a53d2"),
    ("finite-v#21/bv-p", GroupId.V, 5, 178, 5, 8, "fae9073deb368dfd"),
    ("finite-v#22/bv-p", GroupId.V, 15, 1754, 15, 20, "d6d535d7f6a02d3d"),
    ("finite-v#23/bv-p", GroupId.V, 12, 1252, 12, 17, "31fe7da07f9e731d"),
    ("finite-v#24/bv-p", GroupId.V, 27, 7196, 27, 35, "b805eced791e4db5"),
    ("finite-v#25/bv-p", GroupId.V, 0, 6, 0, 2, "273f20fb64a8d5b5"),
    ("finite-v#26/bv-p", GroupId.V, 4, 274, 4, 8, "c3909e1d48a2dffe"),
    ("finite-v#27/bv-p", GroupId.V, 0, 2, 0, 1, "23c4790b8a09fa5f"),
    ("finite-v#28/bv-p", GroupId.V, 0, 2, 0, 2, "c98b8f7be6843a71"),
    ("finite-v#29/bv-p", GroupId.V, 0, 2, 0, 2, "9c44a4005c880f2b"),
    ("finite-v#30/bv-p", GroupId.V, 0, 2, 0, 3, "6b6947172573aabb"),
]

RELATORS = {(i.source, i.group): i.relator() for i in finite_presentation_instances()
            if i.group in (GroupId.V, GroupId.BV)}


def test_every_finite_relator_is_pinned():
    assert sorted(RELATORS) == sorted((source, group) for source, group, *_ in PINNED)


@pytest.mark.parametrize("source, group, n_l, n_m, n_r, k, digest", PINNED,
                         ids=[f"{source}-{group.value}" for source, group, *_ in PINNED])
def test_third_form_is_pinned(source, group, n_l, n_m, n_r, k, digest):
    ref_budget, budget = Budget(), Budget()
    ref = unreduced_third_form(RELATORS[source, group], ref_budget)
    text = " | ".join(format_word(part) for part in (ref.L, ref.M, ref.R))
    assert (len(ref.L), len(ref.M), len(ref.R), ref.k) == (n_l, n_m, n_r, k)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    form = to_third_form(RELATORS[source, group], budget)
    assert (form.L, form.M, form.R, form.k) == (ref.L, reduce_p_runs(ref.M), ref.R, ref.k)
    assert budget.used == ref_budget.used


@pytest.mark.parametrize("source, steps", [
    # every handle of this braid commutes: it holds no letter of index k+1
    ("finite-bv#12/bv-p", 1798),
    # about a quarter of these commute; the rest conjugate interior letters
    ("finite-bv#24/bv-p", 4504),
])
def test_handle_reduce_steps_are_pinned(source, steps):
    form = to_third_form(RELATORS[source, GroupId.BV])
    budget = Budget()
    assert handle_reduce(m_to_sigma(form.M, form.k), budget) == ()
    assert budget.used == steps
