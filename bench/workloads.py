"""Seeded known-answer inputs for the benchmark workloads.

A query decides one relator.  ``verify`` queries are one
``presentations.verify`` call each; ``selftest`` and ``equal`` queries
run both V/BV routes (the LMR route ``bv_lmr`` and the hat route, which
expands into l/s letters first).  Every generator takes its seed as an
argument and yields only words and relation instances, each with the
verdict it is known to have, so the program under test never sees the
seed.

Run as a script to confirm on a small sample that both routes give the
constructed ``equal`` verdicts:

    PYTHONPATH=src python3 bench/workloads.py --seed 1 --sample 40
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass

from bvwords import bv_lmr, presentations
from bvwords.bv_lmr import BVMode
from bvwords.presentations import RelationInstance
from bvwords.words import Family, Word, invert, random_word, vgen

BV_FAMILIES = (Family.V, Family.PI, Family.PIBAR)
VERIFY_BOUND = 8


@dataclass(frozen=True)
class Query:
    """One benchmark query and its known answer.

    ``expected`` is the verdict the query must get: "holds" for a
    ``verify`` instance, True/False (trivial or not) for an ``equal``
    pair, and None for a ``selftest`` word, where only agreement of the
    two routes is known.
    """

    label: str
    mode: BVMode | None
    words: tuple[Word, ...]
    expected: bool | str | None
    instance: RelationInstance | None = None


def verify_queries(seed: int) -> list[Query]:
    """Every instance of ``verify_all(8)``, in a seeded order.

    The set is the one ``bvwords verify --bound 8`` checks; every
    instance holds.
    """
    instances: list[RelationInstance] = []
    for fam_id in presentations.FAMILIES:
        instances.extend(presentations.instantiate_family(fam_id, VERIFY_BOUND))
    instances.extend(presentations.finite_presentation_instances())
    random.Random(seed).shuffle(instances)
    return [
        Query(f"{i.group.value}:{i.source}", None, (i.relator(),), "holds", i)
        for i in instances
    ]


def selftest_queries(seed: int, samples: int = 6000) -> list[Query]:
    """The ``bvwords selftest`` distribution, each word decided in V and BV.

    With the same seed the words are those of
    ``bvwords selftest --samples <samples> --seed <seed>``.  Six thousand
    words rather than the usual thousand keep the 99th percentile from
    moving with the few long words a seed happens to draw.
    """
    rng = random.Random(seed)
    out = []
    for n in range(samples):
        w = random_word(rng, BV_FAMILIES, max_index=5, max_len=10)
        for mode in (BVMode.V, BVMode.BV):
            out.append(Query(f"selftest#{n}/{mode.value}", mode, (w,), None))
    return out


def _random_relator(rng: random.Random, mode: BVMode, max_index: int) -> Word:
    fam_ids = [f for f, spec in bv_lmr.RELATION_FAMILIES.items()
               if mode is BVMode.V or not spec.v_only]
    fam_id = rng.choice(fam_ids)
    spec = bv_lmr.RELATION_FAMILIES[fam_id]
    while True:
        indices = tuple(rng.randint(0, max_index) for _ in range(spec.nparams))
        if spec.condition(*indices):
            break
    exponent = rng.choice((1, -1)) if spec.takes_exponent else 1
    lhs, rhs = bv_lmr.relation_sides(fam_id, indices, exponent)
    relator = lhs + invert(rhs)
    return relator if rng.random() < 0.5 else invert(relator)


def equal_queries(seed: int, count: int = 1000, max_index: int = 4) -> list[Query]:
    """Pairs ``(w, w2)`` whose equality is known from their construction.

    ``w`` is a random word of at most 4 to 14 letters.  ``w2`` is ``w``
    with one to four relator instances of the query's group inserted at
    random positions, so it equals ``w``.  Every other pair of queries
    also gets a trailing ``v0`` on ``w2``; then ``w * w2**-1`` is a
    conjugate of ``v0**-1``, which is nontrivial in V and BV.  Modes
    alternate V, BV.
    """
    rng = random.Random(seed)
    out = []
    for n in range(count):
        mode = BVMode.V if n % 2 == 0 else BVMode.BV
        w = random_word(rng, BV_FAMILIES, max_index=max_index, max_len=rng.randint(4, 14))
        w2 = list(w)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randint(0, len(w2))
            w2[pos:pos] = _random_relator(rng, mode, max_index)
        equal = (n // 2) % 2 == 0
        if not equal:
            w2.append(vgen(0))
        out.append(Query(f"equal#{n}/{mode.value}", mode, (w, tuple(w2)), equal))
    return out


GENERATORS = {
    "verify": verify_queries,
    "selftest": selftest_queries,
    "equal": equal_queries,
}


def _check_equal_sample(seed: int, sample: int) -> int:
    from bvwords import equal_bv, equal_hat, expand_bv_generators
    from bvwords.hatgroups import GroupMode

    hat_modes = {BVMode.V: GroupMode.VHAT, BVMode.BV: GroupMode.BVHAT}
    bad = 0
    for q in equal_queries(seed, count=sample):
        w, w2 = q.words
        by_lmr = equal_bv(w, w2, q.mode)
        by_hat = equal_hat(expand_bv_generators(w), expand_bv_generators(w2), hat_modes[q.mode])
        if not by_lmr == by_hat == q.expected:
            bad += 1
            print(f"{q.label}: expected {q.expected}, lmr {by_lmr}, hat {by_hat}")
    print(f"equal sample: {sample - bad}/{sample} confirmed by both routes")
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=40)
    args = parser.parse_args()
    sys.exit(_check_equal_sample(args.seed, args.sample))
