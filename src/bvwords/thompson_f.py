"""Thompson's group F via the tree-splitting monoid.

The positive letters ``l0, l1, l2, ...`` generate a monoid subject only to

    l_q l_m  =  l_m l_(q+1)      whenever m < q,

and every positive word has a unique equivalent word whose indices are
nondecreasing left to right.  ``FNormal`` stores that index sequence.
Rewriting is length preserving, and each application of the rule above
strictly decreases the index sequence in the lexicographic well-order on
fixed-length tuples of naturals, so any application order terminates.

F itself is the group of right fractions of the monoid: every group word
equals ``P * N**-1`` with ``P``, ``N`` positive, so two normal forms decide
the word problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .limits import Budget
from .words import (
    AlphabetError,
    Family,
    Gen,
    Word,
    check_alphabet,
    free_reduce,
    invert,
    lam,
)

_LAMBDA_ONLY = frozenset({Family.LAMBDA})


@dataclass(frozen=True)
class FNormal:
    """A monoid normal form: a nondecreasing tuple of letter indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a > b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"normal form indices must be nondecreasing: {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)

    def word(self) -> Word:
        return tuple(lam(i) for i in self.indices)


def normalize_monoid(w: Word) -> FNormal:
    """Normal form of a positive word.

    Works like an insertion sort: each letter bubbles left past larger
    indices, incrementing every index it passes.

    >>> normalize_monoid((lam(3), lam(1)))
    FNormal(indices=(1, 4))
    """
    check_alphabet(w, _LAMBDA_ONLY, "normalize_monoid")
    if any(g.exponent < 0 for g in w):
        raise AlphabetError("normalize_monoid: word must be positive")
    out: list[int] = []
    for g in w:
        i = g.index
        pos = len(out)
        while pos > 0 and out[pos - 1] > i:
            pos -= 1
        out[pos:] = [i] + [x + 1 for x in out[pos:]]
    return FNormal(tuple(out))


def collect_fraction(
    w: Word, budget: Budget, op: str,
) -> tuple[Word, tuple[tuple[int, int], ...], Word]:
    """Collect a freely reduced word over l/s letters into the shape
    ``P * beta * N**-1``: ``P`` and ``N`` positive ``l`` words, ``beta``
    a braid word of ``(index, exponent)`` pairs.  Returns ``(P, beta, N)``.

    The first phase moves every inverse ``l`` letter to the right end,
    rightmost inverse first, one letter at a time:

        l_m' l_q    ->  l_(q+1) l_m'            (m < q)
        l_m' l_q    ->  l_q l_(m+1)'            (q < m)
        l_m' l_m    ->  (cancel)
        l_m' s_q^e  ->  s_(q+1)^e l_m'          (m < q)
        l_(m+1)' s_m^e -> s_m^e s_(m+1)^e l_m'
        l_m' s_m^e  ->  s_(m+1)^e s_m^e l_(m+1)'
        l_m' s_q^e  ->  s_q^e l_m'              (m > q + 1)

    The second phase moves the ``s`` letters right past the positive ``l``
    letters, leftmost site first:

        s_q^e l_m   ->  l_m s_(q+1)^e           (m < q)
        s_m^e l_m   ->  l_(m+1) s_m^e s_(m+1)^e
        s_m^e l_(m+1) -> l_m s_(m+1)^e s_m^e
        s_q^e l_m   ->  l_m s_q^e               (m > q + 1)

    Each phase is one pass, a right-to-left fold for the first and a
    left-to-right fold for the second, and makes the same pushes in the
    same order as rewriting the rightmost (first phase) or leftmost
    (second phase) site of the whole word each time; the ``hatgroups``
    module docstring says why.

    Every single-letter push spends one step of ``budget`` under ``op``.
    The pushes of one carried letter are charged in one ``spend``: after
    the carry in the first phase, where cancellation decides their number,
    and before it in the second.  Over words without ``s`` letters this is
    the fraction ``(P, N)`` of Thompson's group F.

    >>> collect_fraction((lam(2, -1), lam(0)), Budget(), "f_fraction")
    ((l0,), (), (l3,))
    """
    # Letters are ints ``index << 2 | kind`` with kind 0 for l, 1 for s
    # and 3 for s', so adding 4 raises the index and keeps the kind.
    run: list[int] = []           # positive letters right of the reader, right to left
    denominator: list[int] = []   # N, read off the inverse block right to left
    for family, m, e in reversed(w):
        if family is not Family.LAMBDA:
            run.append(m << 2 | (2 - e))
            continue
        if e > 0:
            run.append(m << 2)
            continue
        out: list[int] = []
        pushes = 0
        while run:
            y = run.pop()
            pushes += 1
            q = y >> 2
            if m < q:
                out.append(y + 4)
            elif not y & 3:
                if m == q:
                    break
                out.append(y)
                m += 1
            elif m == q:
                out += (y + 4, y)
                m += 1
            elif m == q + 1:
                out += (y, y + 4)
                m = q
            else:
                out.append(y)
        else:
            denominator.append(m)
        out.reverse()
        run += out
        if pushes:
            budget.spend(op, pushes)

    numerator: list[int] = []
    block: list[int] = []
    for y in reversed(run):
        if y & 3:
            block.append(y)
            continue
        m = y >> 2
        if block:
            budget.spend(op, len(block))
            passed: list[int] = []    # the new block, right to left
            for x in reversed(block):
                q = x >> 2
                if m < q:
                    passed.append(x + 4)
                elif m == q:
                    passed += (x + 4, x)
                    m += 1
                elif m == q + 1:
                    passed += (x, x + 4)
                    m = q
                else:
                    passed.append(x)
            passed.reverse()
            block = passed
        numerator.append(m)
    return (
        tuple(Gen(Family.LAMBDA, i) for i in numerator),
        tuple((y >> 2, 2 - (y & 3)) for y in block),
        tuple(Gen(Family.LAMBDA, i) for i in denominator),
    )


def f_fraction(w: Word, budget: Budget | None = None) -> tuple[FNormal, FNormal]:
    """Split an arbitrary word over ``l`` letters into a fraction (P, N).

    The element of F represented by ``w`` equals ``P * N**-1``.  Inverse
    letters are pushed to the right end by ``collect_fraction``, which
    spends one step of ``budget`` per push under ``"f_fraction"``.  Each
    push moves one inverse past one positive letter, so the total number
    of (inverse, positive-to-its-right) pairs strictly decreases.

    >>> p, n = f_fraction((lam(2, -1), lam(0)))
    >>> (p.indices, n.indices)
    ((0,), (3,))
    """
    check_alphabet(w, _LAMBDA_ONLY, "f_fraction")
    budget = budget if budget is not None else Budget()
    positive, _, negative = collect_fraction(free_reduce(w), budget, "f_fraction")
    return normalize_monoid(positive), normalize_monoid(negative)


def is_trivial_f(w: Word, budget: Budget | None = None) -> bool:
    """Decide the word problem of F: trivial iff both fraction parts match.

    The pushes are charged to ``budget`` (a fresh ``Budget()`` by default).
    """
    p, n = f_fraction(w, budget)
    return p == n


def equal_f(w1: Word, w2: Word) -> bool:
    return is_trivial_f(w1 + invert(w2))
