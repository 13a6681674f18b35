"""``to_third_form`` pinned on the words ``bvwords selftest`` draws.

``tests/test_lmr_pins.py`` pins the finite relators, but there equalizing
the syllable heights already bounds L and R, so the final raising loop of
``to_third_form`` never runs.  The 1,000 words of ``selftest --samples
1000 --seed 0`` do reach it: 134 of them raise the middle, 338 times in
all, counted as the loop's ``to_third_form`` budget steps.  The digest is
the sha256 of one line ``"L | M | R | k\\n"`` per word, each part in the
tokens ``bvwords lmr`` prints, recorded on the unreduced chain
(``unreduced_third_form``).  The public ``to_third_form`` must give the
same L, R, k and steps, and M with every p run freely reduced.
"""

import hashlib
import random

from bvwords.bv_lmr import to_third_form
from bvwords.cli import build_parser, format_word
from bvwords.limits import Budget
from bvwords.words import Family, random_word
from test_rewrite_equivalence import reduce_p_runs, unreduced_third_form

DIGEST = "8bfac594c865d25cf1d9b5dcbb5e2c1c092b318236bddd5dc93748591449002f"
RAISED_WORDS = 134
RAISES = 338


class _LoopBudget(Budget):
    """A budget that also counts the final loop's steps."""

    __slots__ = ("loop",)

    def __init__(self) -> None:
        super().__init__()
        self.loop = 0

    def spend(self, operation: str, steps: int = 1) -> None:
        if operation == "to_third_form":
            self.loop += steps
        super().spend(operation, steps)


def test_selftest_words_third_forms_pinned():
    args = build_parser().parse_args(["selftest", "--samples", "1000", "--seed", "0"])
    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    raised_words = raises = 0
    for _ in range(args.samples):
        # drawn as ``selftest`` draws them
        w = random_word(rng, (Family.V, Family.PI, Family.PIBAR), args.max_index, args.max_len)
        budget, public_budget = _LoopBudget(), _LoopBudget()
        ref = unreduced_third_form(w, budget)
        digest.update(f"{format_word(ref.L)} | {format_word(ref.M)} | "
                      f"{format_word(ref.R)} | {ref.k}\n".encode())
        raised_words += budget.loop > 0
        raises += budget.loop
        form = to_third_form(w, public_budget)
        assert (form.L, form.M, form.R, form.k) == (ref.L, reduce_p_runs(ref.M), ref.R, ref.k)
        assert (public_budget.used, public_budget.loop) == (budget.used, budget.loop)
    assert (raised_words, raises) == (RAISED_WORDS, RAISES)
    assert digest.hexdigest() == DIGEST
