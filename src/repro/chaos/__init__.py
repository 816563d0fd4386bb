"""Chaos plane: declarative fault campaigns against the protocol stack.

Public surface:

* :class:`~repro.chaos.plan.FaultPlan` / :func:`~repro.chaos.plan.random_plan`
  -- the JSON-serializable fault-scenario language;
* :class:`~repro.chaos.engine.ChaosEngine` / :func:`~repro.chaos.engine.run_plan`
  -- build a cluster from a plan and execute it;
* :class:`~repro.chaos.engine.LinkFaults` -- the per-link packet mangler
  installed on ``Network.chaos``;
* :func:`~repro.chaos.shrink.shrink_plan` -- ddmin counterexample
  minimization;
* :func:`~repro.chaos.campaign.run_random_campaign` /
  :func:`~repro.chaos.campaign.run_grid_campaign` -- sweep runners;
* :func:`~repro.chaos.soak.run_soak` -- continuous-churn campaigns
  (>= 1M simulated events) with timed recovery after every fault cycle;
* :class:`~repro.chaos.bounded.BoundedStateChecker` -- fails a soak on
  unbounded state growth or recovery beyond the configured bound.

See ``docs/ROBUSTNESS.md`` for the fault taxonomy and workflow.
"""

from repro.chaos.bounded import BoundedStateChecker
from repro.chaos.campaign import (grid_plan, run_grid_campaign,
                                  run_random_campaign)
from repro.chaos.engine import ChaosEngine, LinkFaults, run_plan
from repro.chaos.plan import (ADVERSARY_OPS, DEFAULT_OPS, RUNTIME_BEHAVIORS,
                              FaultPlan, random_plan)
from repro.chaos.shrink import shrink_plan
from repro.chaos.soak import run_soak

__all__ = [
    "ADVERSARY_OPS", "BoundedStateChecker", "ChaosEngine", "DEFAULT_OPS",
    "FaultPlan", "LinkFaults", "RUNTIME_BEHAVIORS", "grid_plan",
    "random_plan", "run_grid_campaign", "run_plan", "run_random_campaign",
    "run_soak", "shrink_plan",
]
