"""Random fault plans under total order must stay safe."""

import pytest

from repro.chaos import random_plan, run_plan


@pytest.mark.parametrize("seed", [21, 22])
def test_fuzz_total_order_scenarios(seed):
    plan = random_plan(seed, ops=7, allow=("cast", "run", "crash"),
                       config={"total_order": True})
    violations, _engine = run_plan(plan)
    assert violations == [], (violations[:5], plan.ops)
