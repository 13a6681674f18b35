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

from bisect import bisect_right
from dataclasses import dataclass

from .limits import Budget
from .words import (
    _letter,
    _reduced_codes,
    AlphabetError,
    Family,
    Word,
    check_alphabet,
    invert,
    lam,
)

_LAMBDA_ONLY = frozenset({Family.LAMBDA})

@dataclass(frozen=True)
class FNormal:
    """A monoid normal form: a nondecreasing tuple of letter indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a > b for a, b in zip((0,) + self.indices, self.indices)):
            raise ValueError(f"normal form indices must be nonnegative and nondecreasing: {self.indices}")

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
    return FNormal(_normal_indices([g.index for g in w]))


def _normal_indices(indices: list[int]) -> tuple[int, ...]:
    """``normalize_monoid`` on the index list of a positive word.

    ``out`` stays nondecreasing, so a letter no smaller than the last is
    appended, and any other one moves left past exactly the letters
    larger than it, found by bisection."""
    out: list[int] = []
    for i in indices:
        if out and out[-1] > i:
            pos = bisect_right(out, i)
            out[pos:] = [i] + [x + 1 for x in out[pos:]]
        else:
            out.append(i)
    return tuple(out)


def _collect_codes(
    codes: list[int], budget: Budget, op: str,
) -> tuple[list[int], list[int], list[int]]:
    """Collect a freely reduced word of l/s codes into the shape
    ``P * beta * N**-1``: ``P`` and ``N`` positive ``l`` words, ``beta``
    a word of ``s`` letters.  Returns the indices of ``P``, the codes of
    ``beta`` and the indices of ``N``.

    The codes are the l/s codes of ``words`` (kind 0 for ``l``, 2 for
    ``l'``, 1 for ``s`` and 3 for ``s'``), which braid handle reduction
    shares: ``x & 3`` is nonzero exactly on ``s`` letters, and ``x + 4``
    raises the index and keeps the kind.

    One fold runs twice: it carries each ``l'`` to the right end, then,
    over its stack (the positive part right to left), each ``l`` to the
    left end through the ``s`` block.  The ``hatgroups`` docstring says
    why both runs push as rewriting the whole word site by site does, in
    its order.  Over ``l`` words this is the fraction ``(P, N)`` of F.
    """
    run, denominator = _fold(codes, 2, budget, op)
    block, numerator = _fold(run, 0, budget, op)
    return numerator, block, denominator


def _fold(codes: list[int], mover: int, budget: Budget, op: str) -> tuple[list[int], list[int]]:
    """Read ``codes`` from the end, carrying each letter of kind ``mover``
    away from the reader until it cancels or has passed every letter read.
    Returns the other letters as the carries leave them, nearest the reader
    last, and the indices of the movers that got through, in order.  Each
    push spends a step of ``budget`` under ``op``, a mover's in one spend.
    """
    stack: list[int] = []         # the letters read, the nearest last
    exits: list[int] = []
    pop = stack.pop
    for x in reversed(codes):
        if x & 3 != mover:
            stack.append(x)
            continue
        if not stack:    # nothing read yet to push past
            exits.append(x >> 2)
            continue
        m = x >> 2
        out: list[int] = []
        n = len(stack)
        while stack:
            y = pop()
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
            exits.append(m)
        budget.spend(op, n - len(stack))
        out.reverse()
        stack += out
    return stack, exits


def f_fraction(w: Word, budget: Budget | None = None) -> tuple[FNormal, FNormal]:
    """Split an arbitrary word over ``l`` letters into a fraction (P, N).

    The element of F represented by ``w`` equals ``P * N**-1``.  Inverse
    letters are pushed to the right end by ``_collect_codes``, which
    spends one step of ``budget`` per push under ``"f_fraction"``.  Each
    push moves one inverse past one positive letter, so the total number
    of (inverse, positive-to-its-right) pairs strictly decreases.

    >>> p, n = f_fraction((lam(2, -1), lam(0)))
    >>> (p.indices, n.indices)
    ((0,), (3,))
    """
    codes = _reduced_codes(w, _LAMBDA_ONLY, "f_fraction")
    budget = budget if budget is not None else Budget()
    positive, _, negative = _collect_codes(codes, budget, "f_fraction")
    return (normalize_monoid(tuple([_letter(i << 2) for i in positive])),
            normalize_monoid(tuple([_letter(i << 2) for i in negative])))


def is_trivial_f(w: Word, budget: Budget | None = None) -> bool:
    """Decide the word problem of F: trivial iff both fraction parts match.

    The pushes are charged to ``budget`` (a fresh ``Budget()`` by default).
    """
    p, n = f_fraction(w, budget)
    return p == n


def equal_f(w1: Word, w2: Word) -> bool:
    return is_trivial_f(w1 + invert(w2))
