"""Step budgets for the rewriting loops.

Every potentially long-running procedure in this package (fraction
canonicalization, braid handle reduction, the left-middle-right form
computations) counts its rewrite steps against a budget.  Exhausting the
budget raises ``StepLimitExceeded`` instead of silently returning a wrong
or partial answer; callers that want a different cap pass their own
``Budget``.  A single budget may be shared across the phases of one
top-level query so the caps compose.
"""

from __future__ import annotations

DEFAULT_REWRITE_STEPS = 10_000_000
DEFAULT_BRAID_STEPS = 1_000_000


class StepLimitExceeded(RuntimeError):
    """A rewriting loop hit its step cap before finishing."""

    def __init__(self, operation: str, limit: int):
        super().__init__(f"{operation}: exceeded step limit of {limit}")
        self.operation = operation
        self.limit = limit


class Budget:
    """A mutable step counter with a hard cap."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_REWRITE_STEPS):
        if limit <= 0:
            raise ValueError("step limit must be positive")
        self.limit = limit
        self.used = 0

    def spend(self, operation: str, steps: int = 1) -> None:
        """Charge ``steps`` steps at once.

        On overflow ``used`` is left at ``limit + 1``, where charging the
        same steps one at a time would have stopped, so a block charge is
        indistinguishable from single ones.
        """
        self.used += steps
        if self.used > self.limit:
            self.used = self.limit + 1
            raise StepLimitExceeded(operation, self.limit)

    def __repr__(self) -> str:
        return f"Budget(used={self.used}, limit={self.limit})"
