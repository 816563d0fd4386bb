"""Table 1: recovery time from problematic scenarios (``repro attack``)."""

from repro import Group, StackConfig
from repro.byzantine.behaviors import (BadViewCoordinator, MuteCoordinator,
                                       MuteNode, VerboseNode)
from repro.core.view import choose_coordinator
from repro.obs.metrics import mean


def _recovery_run(n, seed, behaviors, exclude, detect_event=None,
                  config=None):
    """Run a fault scenario; return detection->install recovery time.

    As in the paper, the time EXCLUDES failure detection ("a tunable
    parameter"): the latest change-start among survivors is the start.
    """
    config = config or StackConfig.byz()
    group = Group.bootstrap(n, config=config, seed=seed, behaviors=behaviors)
    group.run(0.05)
    if detect_event is not None:
        detect_event(group)
    ok = group.run_until(
        lambda: all(exclude not in p.view.mbrs
                    for node, p in group.processes.items()
                    if node != exclude and not p.stopped),
        timeout=10.0)
    durations = [p.membership.last_change_duration
                 for node, p in group.processes.items()
                 if node != exclude and not p.stopped
                 and p.membership.last_change_duration is not None]
    group.stop()
    return {
        "recovered": ok,
        "recovery_seconds": mean(durations) if durations else float("nan"),
        "max_recovery_seconds": max(durations) if durations else float("nan"),
    }


def recovery_time(scenario, n=12, seed=7):
    """Table 1: recovery time for one named scenario at group size n."""
    if scenario == "ByzLeave":
        def leave(group):
            group.endpoints[n - 1].leave()
        return _recovery_run(n, seed, {}, exclude=n - 1, detect_event=leave)
    if scenario == "ByzMuteNode":
        return _recovery_run(n, seed, {n - 1: MuteNode(mute_at=0.08)},
                             exclude=n - 1)
    if scenario == "ByzMuteCoord":
        coord = choose_coordinator(1, tuple(range(n)))
        return _recovery_run(n, seed, {coord: MuteCoordinator(mute_at=0.08)},
                             exclude=coord)
    if scenario == "ByzVerboseNode":
        return _recovery_run(n, seed, {n - 1: VerboseNode(start_at=0.08)},
                             exclude=n - 1)
    if scenario == "CoordBadView":
        # crash one node so a view change runs; its generator is Byzantine
        # and sends a wrong view, forcing a re-run that also evicts it
        survivors = [m for m in range(n) if m != n - 1]
        bad_gen = choose_coordinator(1, survivors)
        behaviors = {bad_gen: BadViewCoordinator()}

        def crash(group):
            group.crash(n - 1)
        return _recovery_run(n, seed, behaviors, exclude=bad_gen,
                             detect_event=crash)
    raise ValueError("unknown scenario: %r" % (scenario,))


TABLE1_SCENARIOS = ("ByzLeave", "ByzMuteNode", "ByzMuteCoord",
                    "ByzVerboseNode", "CoordBadView")
