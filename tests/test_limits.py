"""Step budgets: single and block charges."""

import pytest

from bvwords.limits import Budget, StepLimitExceeded


def test_spend_counts_steps():
    budget = Budget(10)
    budget.spend("op")
    budget.spend("op", 4)
    budget.spend("op", 0)
    assert budget.used == 5


@pytest.mark.parametrize("used, block", [(0, 11), (0, 50), (7, 4), (10, 1), (3, 1000)])
def test_block_overflow_stops_where_single_steps_would(used, block):
    budget = Budget(10)
    budget.spend("setup", used)
    with pytest.raises(StepLimitExceeded) as info:
        budget.spend("fold", block)
    assert budget.used == budget.limit + 1
    assert info.value.operation == "fold" and info.value.limit == 10
    assert "fold" in str(info.value)

    singles = Budget(10)
    singles.spend("setup", used)
    with pytest.raises(StepLimitExceeded):
        for _ in range(block):
            singles.spend("fold")
    assert singles.used == budget.used


def test_block_up_to_the_limit_does_not_raise():
    budget = Budget(10)
    budget.spend("op", 10)
    assert budget.used == 10
