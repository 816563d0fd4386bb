"""Every Byzantine behavior, driven through the chaos-engine path.

``test_byzantine_scenarios.py`` drives behaviors directly against a
hand-built group; these tests exercise the *plannable* path instead:
each behavior rides a :class:`~repro.chaos.plan.FaultPlan` op through
``run_plan`` (boot-time ``byzantine`` or mid-run ``byzantine_at``), and
the run must satisfy the Definitions 2.1/2.2 checker -- with at most f
Byzantine members the hardened stack tolerates each attack.
"""

import pytest

from repro.byzantine import behaviors as behavior_library
from repro.chaos import FaultPlan, run_plan
from repro.chaos.plan import RUNTIME_BEHAVIORS
from repro.detectors.verbose import FuzzyVerboseDetector

#: churn tail shared by every scenario: casts from correct nodes, a view
#: change under attack, and enough run time for detection + recovery
_TAIL = [["cast", 0, 3], ["run", 0.5], ["cast", 1, 2],
         ["crash", 5], ["run", 3.0]]

#: (behavior, params) for the boot-time ``byzantine`` op -- one entry per
#: exported behavior class so a new behavior without coverage fails
#: ``test_every_behavior_is_covered``
BOOT_CASES = [
    ("MuteNode", {"mute_at": 0.1}),
    ("MuteCoordinator", {"mute_at": 0.1}),
    ("VerboseNode", {"start_at": 0.05, "interval": 0.005}),
    ("BadViewCoordinator", {}),
    ("TwoFacedCaster", {}),
    ("ForgedRetransmitter", {}),
    ("SlowNode", {"delay": 0.02, "start_at": 0.0}),
    ("Replayer", {}),
    ("Equivocator", {"start_at": 0.0}),
    ("TargetedSlanderer", {"start_at": 0.05, "interval": 0.005}),
    ("ReplayStorm", {"start_at": 0.05, "interval": 0.02, "burst": 4}),
]


def test_every_behavior_is_covered():
    exported = {name for name in dir(behavior_library)
                if isinstance(getattr(behavior_library, name), type)
                and issubclass(getattr(behavior_library, name),
                               behavior_library.ByzantineBehavior)
                and name != "ByzantineBehavior"}
    assert exported == {name for name, _params in BOOT_CASES}
    # every mid-run-plannable behavior is a real exported one
    assert set(RUNTIME_BEHAVIORS) <= exported


#: (villain, plan config, ops ahead of the tail).  A forged retransmission
#: needs a NAK to answer and an inner signature to break, so that case
#: alone runs signed, starts under loss, and puts the villain where a
#: receiver's second NAK round asks (round r >= 1 goes to the r-th member
#: whose ack covers the hole)
_DEFAULT_SETUP = (7, None, [])
_FORGER_SETUP = (2, {"crypto": "sym", "retrans_timeout": 0.02},
                 [["drop", None, None, 0.4], ["cast", 0, 40], ["run", 1.0],
                  ["clear_faults"]])


@pytest.mark.parametrize("name,params",
                         BOOT_CASES, ids=[c[0] for c in BOOT_CASES])
def test_behavior_tolerated_via_engine(name, params, monkeypatch):
    forger = name == "ForgedRetransmitter"
    villain, config, prelude = _FORGER_SETUP if forger else _DEFAULT_SETUP
    plan = FaultPlan(seed=31, n=8, config=config,
                     ops=[["byzantine", villain, name, params]] + prelude
                     + _TAIL)
    tags = []
    illegal = FuzzyVerboseDetector.illegal

    def recording(self, member, tag, weight=None):
        tags.append((member, tag))
        illegal(self, member, tag, weight)
    monkeypatch.setattr(FuzzyVerboseDetector, "illegal", recording)
    violations, engine = run_plan(plan, settle=3.0, event_budget=400_000,
                                  measure_recovery=True)
    assert not violations, violations
    assert not engine.stalled
    process = engine.group.processes[villain]
    assert type(process.behavior).__name__ == name
    assert villain in engine.group.byzantine_nodes
    if forger:
        assert process.behavior.forged > 0
        assert (villain, "rel:forged-retrans") in tags


def test_two_faced_caster_under_total_order():
    plan = FaultPlan(seed=5, n=8, config={"total_order": True},
                     ops=[["byzantine", 6, "TwoFacedCaster", {}],
                          ["cast", 6, 2]] + _TAIL)
    violations, engine = run_plan(plan, settle=3.0, event_budget=400_000)
    assert not violations, violations
    assert engine.group.processes[6].behavior.forged > 0


@pytest.mark.parametrize("name", RUNTIME_BEHAVIORS)
def test_behavior_plannable_mid_run(name):
    """``byzantine_at`` installs the behavior on a live mid-run process."""
    params = dict(dict(BOOT_CASES)[name])
    plan = FaultPlan(seed=11, n=8,
                     ops=[["cast", 0, 2], ["run", 0.3],
                          ["byzantine_at", 6, name, params]] + _TAIL)
    violations, engine = run_plan(plan, settle=3.0, event_budget=400_000)
    assert not violations, violations
    process = engine.group.processes[6]
    assert type(process.behavior).__name__ == name
    assert 6 in engine.group.byzantine_nodes


def test_equivocator_actually_equivocates_under_churn():
    plan = FaultPlan(seed=3, n=8,
                     ops=[["byzantine", 5, "Equivocator", {}],
                          ["cast", 0, 2], ["leave", 4], ["run", 1.0],
                          ["crash", 6], ["run", 3.0]])
    violations, engine = run_plan(plan, settle=3.0, event_budget=400_000)
    assert not violations, violations
    assert engine.group.processes[5].behavior.equivocations > 0


def test_slanderer_floods_but_victim_survives():
    plan = FaultPlan(seed=8, n=8,
                     ops=[["byzantine", 7, "TargetedSlanderer",
                           {"target": 2, "start_at": 0.02,
                            "interval": 0.003}],
                          ["cast", 2, 3], ["run", 2.0]])
    violations, engine = run_plan(plan, settle=3.0, event_budget=400_000)
    assert not violations, violations
    behavior = engine.group.processes[7].behavior
    assert behavior.slanders_sent > 0
    # one slanderer is below every suspicion threshold: the victim stays
    # in the final view everywhere (run_plan stops the group after checks)
    assert all(2 in p.view.mbrs for p in engine.group.processes.values())


def test_replay_storm_with_stale_incarnation_is_filtered():
    plan = FaultPlan(seed=13, n=8,
                     ops=[["cast", 0, 2], ["run", 0.3],
                          ["byzantine_at", 6, "ReplayStorm",
                           {"start_at": 0.02, "interval": 0.01, "burst": 6,
                            "spoof_incarnation": True}],
                          ["run", 2.0]])
    violations, engine = run_plan(plan, settle=3.0, event_budget=400_000)
    assert not violations, violations
    assert engine.group.processes[6].behavior.replayed > 0
