"""Relation tables for every group in the package, and their verification.

Seven groups are covered, each with its own decision procedure:

    F      Thompson's group F over l letters          (thompson_f)
    VHAT   the hat extension of V over l/s letters    (hatgroups)
    BVHAT  the braided hat extension over l/s letters (hatgroups)
    V      Thompson's group V over v/p/pb letters     (bv_lmr + hatgroups)
    BV     braided V over v/p/pb letters              (bv_lmr + hatgroups)
    SINF   finitely supported permutations, s letters (perms)
    BINF   the infinite-strand braid group, s letters (braid)

``FAMILIES`` lists every defining relation family, one ``FamilySpec``
each, with the groups it holds in; the v/p/pb rows are the records of
``bv_lmr.RELATION_FAMILIES``.  ``instantiate_family`` grounds a family
at all parameter values up to a bound.  ``finite_presentation_instances``
produces the relators of the finite presentations: each group of the
hat pair is generated by {l0, s0, s1} (with l1 := s0 l0 s1' s0' and the
higher letters conjugates by powers of l0), and V and BV are generated
either by {v0, v1, pb0, pb1} or by {p0, p1, pb0, pb1}, the remaining
letters again being conjugates or short compounds.  ``verify`` checks
one relation instance with every decider ``DECIDERS`` lists for its
group; for V and BV these are two fully independent routes (the
left-middle-right decider, and the hat decider after expanding every
generator into l/s letters), and both must find the relator trivial.

``negative_controls`` and ``corrupt_instance`` supply deliberately
false relations so a vacuously green verifier cannot go unnoticed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

from . import bv_lmr
from .braid import is_trivial_braid
from .bv_lmr import _VBV, BVMode, is_trivial_bv
from .hatgroups import GroupMode, is_trivial_hat
from .limits import Budget, StepLimitExceeded
from .perms import from_sigma_word
from .thompson_f import is_trivial_f
from .words import (
    _TRUE,
    AlphabetError,
    Family,
    FamilySpec,
    Gen,
    GroupId,
    Word,
    expand_bv_generators,
    free_reduce,
    invert,
    lam,
    pi,
    pibar,
    sig,
    vgen,
)


@dataclass(frozen=True)
class RelationInstance:
    """One concrete relation lhs = rhs, claimed to hold in one group."""

    lhs: Word
    rhs: Word
    source: str
    group: GroupId

    def relator(self) -> Word:
        return free_reduce(self.lhs + invert(self.rhs))


# ---------------------------------------------------------------------------
# The relation families


_HATS = (GroupId.VHAT, GroupId.BVHAT)
_PERM_GROUPS = (GroupId.VHAT, GroupId.BVHAT, GroupId.SINF, GroupId.BINF)

FAMILIES: dict[str, FamilySpec] = {
    f.fam_id: f
    for f in [
        FamilySpec("ll-shift", (GroupId.F,) + _HATS, 2, lambda q, m: m < q,
                   lambda q, m, e: ((lam(q), lam(m)), (lam(m), lam(q + 1)))),
        FamilySpec("s-invol", (GroupId.VHAT, GroupId.SINF), 1, _TRUE,
                   lambda m, e: ((sig(m), sig(m)), ())),
        FamilySpec("ss-far", _PERM_GROUPS, 2, lambda m, n: n >= m + 2,
                   lambda m, n, e: ((sig(m), sig(n)), (sig(n), sig(m)))),
        FamilySpec("ss-braid", _PERM_GROUPS, 1, _TRUE,
                   lambda m, e: ((sig(m), sig(m + 1), sig(m)),
                                 (sig(m + 1), sig(m), sig(m + 1)))),
        FamilySpec("sl-shift", _HATS, 2, lambda q, m: m < q,
                   lambda q, m, e: ((sig(q, e), lam(m)), (lam(m), sig(q + 1, e))),
                   signed=(GroupId.BVHAT,)),
        FamilySpec("sl-split", _HATS, 1, _TRUE,
                   lambda m, e: ((sig(m, e), lam(m)),
                                 (lam(m + 1), sig(m, e), sig(m + 1, e))),
                   signed=(GroupId.BVHAT,)),
        FamilySpec("sl-split-up", _HATS, 1, _TRUE,
                   lambda m, e: ((sig(m, e), lam(m + 1)),
                                 (lam(m), sig(m + 1, e), sig(m, e))),
                   signed=(GroupId.BVHAT,)),
        FamilySpec("sl-far", _HATS, 2, lambda q, m: m > q + 1,
                   lambda q, m, e: ((sig(q, e), lam(m)), (lam(m), sig(q, e))),
                   signed=(GroupId.BVHAT,)),
        *(bv_lmr.RELATION_FAMILIES[f] for f in (
            "vv-shift", "pv-shift", "pv-split", "pv-far", "pbv-shift", "pbv-absorb", "pp-far",
            "pp-braid", "pbp-far", "pb-braid", "pv-split-up", "p-invol", "pb-invol")),
        FamilySpec("def-p", _VBV, 1, _TRUE,
                   lambda n, e: ((pi(n),), (pibar(n), vgen(n), pibar(n + 1, -1)))),
        FamilySpec("def-p-inv", _VBV, 1, _TRUE,
                   lambda n, e: ((pi(n),), (pibar(n + 1, -1), vgen(n, -1), pibar(n)))),
        FamilySpec("def-v", _VBV, 1, _TRUE,
                   lambda n, e: ((vgen(n),), (pibar(n, -1), pi(n), pibar(n + 1)))),
    ]
}


def instantiate_family(fam_id: str, bound: int) -> list[RelationInstance]:
    """All instances of one family with every parameter at most ``bound``.

    Shifted letters in a relation side may carry index ``bound + 1``; the
    bound constrains the family's parameters, not the letters.
    """
    spec = FAMILIES.get(fam_id)
    if spec is None:
        raise ValueError(f"unknown relation family {fam_id!r}")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    out = []
    for indices in itertools.product(range(bound + 1), repeat=spec.nparams):
        if not spec.condition(*indices):
            continue
        for group in spec.groups:
            for e in spec.exponents(group):
                lhs, rhs = spec.build(*indices, e)
                tag = ",".join(map(str, indices)) + (";e=-1" if e == -1 else "")
                out.append(RelationInstance(lhs, rhs, f"{fam_id}({tag})", group))
    return out


# ---------------------------------------------------------------------------
# Finite presentations


class Scheme(Enum):
    """Which finite generating set a word should be expanded over."""

    HAT = "hat"      # base l0, s0, s1
    BV_V = "bv-v"    # base v0, v1, pb0, pb1
    BV_P = "bv-p"    # base p0, p1, pb0, pb1


_HAT_BASE = {lam(0), sig(0), sig(1)}
_BV_V_BASE = {vgen(0), vgen(1), pibar(0), pibar(1)}
_BV_P_BASE = {pi(0), pi(1), pibar(0), pibar(1)}


def _conjugate_down(base: Gen, i: int, by: Gen) -> Word:
    # the index-i member of a family whose members are conjugates by a
    # base letter (l0 or v0): x_i = by^(1-i) x_1 by^(i-1), stated for i >= 2
    return (by.inverse(),) * (i - 1) + (base,) + (by,) * (i - 1)


def _expand_letter(g: Gen, scheme: Scheme) -> Word:
    base = {Scheme.HAT: _HAT_BASE, Scheme.BV_V: _BV_V_BASE, Scheme.BV_P: _BV_P_BASE}[scheme]
    if Gen(g.family, g.index) in base:
        return (g,)
    positive = _expand_positive(Gen(g.family, g.index), scheme)
    return positive if g.exponent > 0 else invert(positive)


def _expand_positive(g: Gen, scheme: Scheme) -> Word:
    fam, i = g.family, g.index
    if scheme is Scheme.HAT:
        if fam is Family.LAMBDA and i == 1:
            return (sig(0), lam(0), sig(1, -1), sig(0, -1))
        if fam is Family.LAMBDA and i >= 2:
            return expand_finite_defs(_conjugate_down(lam(1), i, lam(0)), scheme)
        if fam is Family.SIGMA and i >= 2:
            return _conjugate_down(sig(1), i, lam(0))
        raise AlphabetError(f"{g!r} is not reachable from the hat base letters")
    if scheme is Scheme.BV_V:
        if fam is Family.V and i >= 2:
            return _conjugate_down(vgen(1), i, vgen(0))
        if fam is Family.PIBAR and i >= 2:
            return _conjugate_down(pibar(1), i, vgen(0))
        if fam is Family.PI:
            body = (pibar(i), vgen(i), pibar(i + 1, -1))
            return expand_finite_defs(body, scheme)
        raise AlphabetError(f"{g!r} is not reachable from the v-scheme base letters")
    if scheme is Scheme.BV_P:
        if fam is Family.PI and i >= 2:
            return expand_finite_defs(_conjugate_down(pi(1), i, vgen(0)), scheme)
        if fam is Family.PIBAR and i >= 2:
            return expand_finite_defs(_conjugate_down(pibar(1), i, vgen(0)), scheme)
        if fam is Family.V:
            body = (pibar(i, -1), pi(i), pibar(i + 1))
            return expand_finite_defs(body, scheme)
        raise AlphabetError(f"{g!r} is not reachable from the p-scheme base letters")
    raise ValueError(f"unknown scheme {scheme!r}")


def expand_finite_defs(w: Iterable[Gen], scheme: Scheme) -> Word:
    """Rewrite a word over a scheme's base letters, recursively.

    The recursion terminates because every defined letter unfolds into
    letters that are either base letters or lower in the chain
    v/p/pb -> v0 -> base.
    """
    out: list[Gen] = []
    for g in w:
        out.extend(_expand_letter(g, scheme))
    return free_reduce(out)


# (lhs, rhs) relator pairs of the finite presentations, in display order.
_FINITE_HAT_COMMON: list[tuple[Word, Word]] = [
    ((lam(1, -1), lam(2), lam(1)), (lam(3),)),
    ((lam(1, -1), lam(3), lam(1)), (lam(4),)),
    ((sig(0), sig(2)), (sig(2), sig(0))),
    ((sig(0), sig(3)), (sig(3), sig(0))),
    ((sig(1), sig(3)), (sig(3), sig(1))),
    ((sig(1), sig(4)), (sig(4), sig(1))),
    ((sig(0), sig(1), sig(0)), (sig(1), sig(0), sig(1))),
    ((sig(1), sig(2), sig(1)), (sig(2), sig(1), sig(2))),
    ((lam(1, -1), sig(2), lam(1)), (sig(3),)),
    ((lam(1, -1), sig(3), lam(1)), (sig(4),)),
    ((sig(0), lam(0)), (lam(1), sig(0), sig(1))),
    ((sig(1), lam(1)), (lam(2), sig(1), sig(2))),
    ((sig(0), lam(2)), (lam(2), sig(0))),
    ((sig(0), lam(3)), (lam(3), sig(0))),
    ((sig(1), lam(3)), (lam(3), sig(1))),
    ((sig(1), lam(4)), (lam(4), sig(1))),
]

_FINITE_VHAT: list[tuple[Word, Word]] = (
    _FINITE_HAT_COMMON
    + [((sig(0), sig(0)), ()), ((sig(1), sig(1)), ())]
)

_FINITE_BVHAT: list[tuple[Word, Word]] = (
    _FINITE_HAT_COMMON
    + [
        ((sig(0, -1), lam(0)), (lam(1), sig(0, -1), sig(1, -1))),
        ((sig(1, -1), lam(1)), (lam(2), sig(1, -1), sig(2, -1))),
    ]
)

_FINITE_BV: list[tuple[Word, Word]] = [
    ((vgen(2), vgen(1)), (vgen(1), vgen(3))),
    ((vgen(3), vgen(1)), (vgen(1), vgen(4))),
    ((pibar(2), vgen(1)), (vgen(1), pibar(3))),
    ((pibar(3), vgen(1)), (vgen(1), pibar(4))),
    ((pi(0), vgen(0)), (vgen(1), pi(0), pi(1))),
    ((pi(1), vgen(1)), (vgen(2), pi(1), pi(2))),
    ((pi(0, -1), vgen(0)), (vgen(1), pi(0, -1), pi(1, -1))),
    ((pi(1, -1), vgen(1)), (vgen(2), pi(1, -1), pi(2, -1))),
    ((pi(0), vgen(2)), (vgen(2), pi(0))),
    ((pi(0), vgen(3)), (vgen(3), pi(0))),
    ((pi(1), vgen(3)), (vgen(3), pi(1))),
    ((pi(1), vgen(4)), (vgen(4), pi(1))),
    ((pi(0),), (pibar(1, -1), vgen(0, -1), pibar(0))),
    ((pi(1),), (pibar(2, -1), vgen(1, -1), pibar(1))),
    ((pi(0), pi(2)), (pi(2), pi(0))),
    ((pi(0), pi(3)), (pi(3), pi(0))),
    ((pi(1), pi(3)), (pi(3), pi(1))),
    ((pi(1), pi(4)), (pi(4), pi(1))),
    ((pi(0), pi(1), pi(0)), (pi(1), pi(0), pi(1))),
    ((pi(1), pi(2), pi(1)), (pi(2), pi(1), pi(2))),
    ((pibar(2), pi(0)), (pi(0), pibar(2))),
    ((pibar(3), pi(0)), (pi(0), pibar(3))),
    ((pibar(3), pi(1)), (pi(1), pibar(3))),
    ((pibar(4), pi(1)), (pi(1), pibar(4))),
    ((pi(0), pibar(1), pi(0)), (pibar(1), pi(0), pibar(1))),
    ((pi(1), pibar(2), pi(1)), (pibar(2), pi(1), pibar(2))),
]

_FINITE_V: list[tuple[Word, Word]] = (
    _FINITE_BV
    + [
        ((pibar(0), pibar(0)), ()),
        ((pibar(1), pibar(1)), ()),
        ((pi(0), pi(0)), ()),
        ((pi(1), pi(1)), ()),
    ]
)


def finite_presentation_instances() -> list[RelationInstance]:
    """Every finite-presentation relator, expanded over its base letters.

    Hat relators expand over {l0, s0, s1}; V and BV relators are checked
    under both generating schemes, so agreement of the two is itself
    part of the verification.
    """
    out = []
    for group, relators in ((GroupId.VHAT, _FINITE_VHAT), (GroupId.BVHAT, _FINITE_BVHAT)):
        for n, (lhs, rhs) in enumerate(relators, start=1):
            out.append(RelationInstance(
                expand_finite_defs(lhs, Scheme.HAT),
                expand_finite_defs(rhs, Scheme.HAT),
                f"finite-{group.value.lower()}#{n:02d}",
                group,
            ))
    for group, relators in ((GroupId.BV, _FINITE_BV), (GroupId.V, _FINITE_V)):
        for scheme in (Scheme.BV_V, Scheme.BV_P):
            for n, (lhs, rhs) in enumerate(relators, start=1):
                out.append(RelationInstance(
                    expand_finite_defs(lhs, scheme),
                    expand_finite_defs(rhs, scheme),
                    f"finite-{group.value.lower()}#{n:02d}/{scheme.value}",
                    group,
                ))
    return out


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerifyResult:
    source: str
    group: GroupId
    verdict: str  # "holds" | "fails" | "resource-cap"
    steps: int
    detail: str = ""

    def line(self) -> str:
        extra = f" detail={self.detail}" if self.detail else ""
        return f"source={self.source} group={self.group.value} verdict={self.verdict} steps={self.steps}{extra}"


# Each group's deciders as (name, decider) pairs, the first being the one
# a single verdict uses.  V and BV have two independent routes, checked
# against each other: neither calls the other.  The lambdas look each
# decider up by its module-global name at call time, so a caller that
# rebinds the name (a tracer, a test) reaches every use of it.
DECIDERS: dict[GroupId, tuple[tuple[str, Callable[[Word, Budget], bool]], ...]] = {
    GroupId.F: (("f-fraction", lambda w, b: is_trivial_f(w, b)),),
    GroupId.VHAT: (("hat-fraction", lambda w, b: is_trivial_hat(w, GroupMode.VHAT, b)),),
    GroupId.BVHAT: (("hat-fraction", lambda w, b: is_trivial_hat(w, GroupMode.BVHAT, b)),),
    GroupId.V: (
        ("lmr", lambda w, b: is_trivial_bv(w, BVMode.V, b)),
        ("hat", lambda w, b: is_trivial_hat(expand_bv_generators(w), GroupMode.VHAT, b)),
    ),
    GroupId.BV: (
        ("lmr", lambda w, b: is_trivial_bv(w, BVMode.BV, b)),
        ("hat", lambda w, b: is_trivial_hat(expand_bv_generators(w), GroupMode.BVHAT, b)),
    ),
    GroupId.SINF: (("perm-image", lambda w, b: from_sigma_word(w).is_identity()),),
    GroupId.BINF: (("handle-reduction", lambda w, b: is_trivial_braid(w, b)),),
}


def verify(instance: RelationInstance, max_steps: int | None = None) -> VerifyResult:
    """Check one relation instance with the deciders of its group."""
    budget = Budget(max_steps) if max_steps is not None else Budget()
    w = instance.relator()
    try:
        verdicts = [(name, decide(w, budget)) for name, decide in DECIDERS[instance.group]]
    except StepLimitExceeded as e:
        return VerifyResult(instance.source, instance.group, "resource-cap",
                            budget.used, e.operation)
    ok = all(v for _, v in verdicts)
    if len(verdicts) == 1:
        detail = verdicts[0][0]
    else:
        detail = " ".join(f"{name}={v}" for name, v in verdicts)
    return VerifyResult(instance.source, instance.group,
                        "holds" if ok else "fails", budget.used, detail)


@dataclass
class Report:
    results: list[VerifyResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.verdict == "holds" for r in self.results)

    def failures(self) -> list[VerifyResult]:
        return [r for r in self.results if r.verdict != "holds"]

    def family_counts(self) -> dict[str, tuple[int, int]]:
        """family id -> (held, total), families ordered by first appearance."""
        counts: dict[str, list[int]] = {}
        for r in self.results:
            fam = r.source.split("(")[0].split("#")[0]
            held, total = counts.setdefault(fam, [0, 0])
            counts[fam] = [held + (r.verdict == "holds"), total + 1]
        return {k: (v[0], v[1]) for k, v in counts.items()}

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def summary(self) -> str:
        rows = [f"{fam}: {held}/{total}" for fam, (held, total) in sorted(self.family_counts().items())]
        if not self.results:
            status = "nothing checked"
        elif self.ok:
            status = "all hold"
        else:    # a capped instance is undecided, not failed
            n = Counter(r.verdict for r in self.results)
            status = f"{n['holds']} hold, {n['fails']} FAILED, {n['resource-cap']} capped"
        return "\n".join(rows + [f"total: {len(self.results)} instances, {status}"])


def verify_all(
    bound: int,
    max_steps: int | None = None,
    family: str | None = None,
) -> Report:
    """Verify every relation family at the given bound, plus (when no
    single family is selected) all finite-presentation relators."""
    instances: list[RelationInstance] = []
    for fam_id in FAMILIES if family is None else [family]:
        instances.extend(instantiate_family(fam_id, bound))
    if family is None:
        instances.extend(finite_presentation_instances())
    instances.sort(key=lambda i: (i.source, i.group.value))
    return Report([verify(i, max_steps) for i in instances])


# ---------------------------------------------------------------------------
# Negative controls


_CONTROL_SPECS: list[tuple[str, GroupId, Word, Word]] = [
    ("control-hat-swapped", GroupId.VHAT, (sig(0), lam(0)), (lam(1), sig(1), sig(0))),
    ("control-hat-swapped", GroupId.BVHAT, (sig(0), lam(0)), (lam(1), sig(1), sig(0))),
    ("control-f-commute", GroupId.F, (lam(1), lam(0)), (lam(0), lam(1))),
    ("control-s-commute", GroupId.SINF, (sig(0), sig(1)), (sig(1), sig(0))),
    ("control-s-commute", GroupId.BINF, (sig(0), sig(1)), (sig(1), sig(0))),
    ("control-pv-commute", GroupId.V, (pi(0), vgen(1)), (vgen(1), pi(0))),
    ("control-pv-commute", GroupId.BV, (pi(0), vgen(1)), (vgen(1), pi(0))),
    ("control-absorb-shifted", GroupId.V, (pibar(0), vgen(0)), (pi(0), pibar(2))),
    ("control-absorb-shifted", GroupId.BV, (pibar(0), vgen(0)), (pi(0), pibar(2))),
]


def negative_controls() -> list[RelationInstance]:
    """Deliberately false relations; a sound verifier reports fails on each."""
    return [RelationInstance(lhs, rhs, src, grp) for src, grp, lhs, rhs in _CONTROL_SPECS]


_CORRUPTION = {
    GroupId.F: lam(0),
    GroupId.VHAT: lam(0),
    GroupId.BVHAT: lam(0),
    GroupId.SINF: sig(0),
    GroupId.BINF: sig(0),
    GroupId.V: vgen(0),
    GroupId.BV: vgen(0),
}


def corrupt_instance(instance: RelationInstance) -> RelationInstance:
    """A provably false variant: one nontrivial letter appended to rhs.

    The corrupted relator equals a conjugate of that letter times the
    original relator, so it is nontrivial whenever the original holds.
    """
    return RelationInstance(
        instance.lhs,
        instance.rhs + (_CORRUPTION[instance.group],),
        instance.source + "!corrupt",
        instance.group,
    )
