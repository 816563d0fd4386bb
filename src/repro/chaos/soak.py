"""Long-horizon soak campaigns: continuous churn, bounded-state checks.

The chaos plane replays short scripted storms; the soak layer runs the
*repeated-operation* regime those scripts never reach -- hundreds of
join/leave/restart/partition/Byzantine cycles back to back, >= 1M
simulated events, deterministic per seed.  After every cycle the faults
are lifted, the recovery to stable views is *timed*, and every live
process's state stores are sampled; the run fails if the Definitions
2.1/2.2 checker, the recovery bound, or the
:class:`~repro.chaos.bounded.BoundedStateChecker` objects.

Two nodes (the "anchors") are never churned or turned Byzantine, so the
safety checker always has correct members whose full history it can
judge -- a soak where every node eventually crashed would vacuously pass.
"""

from __future__ import annotations

import random

from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import RUNTIME_BEHAVIORS, FaultPlan, _runtime_params
from repro.chaos.bounded import BoundedStateChecker

#: seed salt so soak choreography never mirrors the cluster's own RNG
_SOAK_SEED_SALT = 0x50AC5EED

#: report format version emitted by :func:`run_soak`
SOAK_SCHEMA = 1

#: churn cycle shapes the choreographer draws from
_ACTIONS = ("crash_restart", "leave_join", "partition_heal", "link_faults",
            "byzantine_episode")


def run_soak(seed, n=6, target_events=1_000_000, config=None,
             recovery_bound=5.0, checker=None, byzantine=True,
             max_cycles=None, log=None):
    """Churn one cluster until ``target_events`` simulated events passed.

    Returns the soak report dict (see ``docs/ROBUSTNESS.md``); the run
    *failed* iff ``report["verdict"] == "fail"``.  Deterministic per
    ``(seed, n, target_events, config)``.

    Parameters
    ----------
    seed:
        Drives both the cluster build and the churn choreography.
    target_events:
        The run continues until the simulator has processed at least this
        many events (the acceptance floor is one million).
    recovery_bound:
        Max sim-seconds the cluster may take to re-stabilize after each
        cycle's faults clear; exceeded -> bounded-state violation.
    checker:
        A pre-configured :class:`BoundedStateChecker` (one is built with
        defaults when omitted).
    byzantine:
        Include mid-run Byzantine episodes in the churn mix.
    """
    log = log or (lambda line: None)
    rng = random.Random(seed ^ _SOAK_SEED_SALT)
    plan = FaultPlan(seed=seed, n=n, ops=(), config=config)
    engine = ChaosEngine(plan)
    group = engine.build()
    sim = group.sim
    if checker is None:
        checker = BoundedStateChecker(recovery_bound=recovery_bound)
    anchors = (0, 1)
    next_join = 1000
    cycles = 0
    byz_episodes = 0
    recoveries = []
    if max_cycles is None:
        # each cycle advances sim time (heartbeats alone generate events),
        # so this cap only guards against a misconfigured tiny cluster
        max_cycles = max(1000, target_events // 500)

    def live_pool():
        """Churnable nodes: live, correct, not an anchor."""
        return [node for node, p in sorted(group.processes.items(), key=repr)
                if not p.stopped and node not in anchors
                and node not in group.byzantine_nodes
                and node not in engine.left]

    def live_count():
        return sum(1 for p in group.processes.values() if not p.stopped)

    while sim.events_processed < target_events and cycles < max_cycles:
        cycles += 1
        pool = live_pool()
        action = rng.choice(_ACTIONS)
        if action == "byzantine_episode" and not byzantine:
            action = "crash_restart"
        if len(pool) < 2 or live_count() < 4:
            # thin cluster: grow it back before churning again
            engine.apply(["join", next_join])
            next_join += 1
            engine.apply(["run", 1.0])
        elif action == "crash_restart":
            victim = rng.choice(pool)
            engine.apply(["crash", victim])
            engine.apply(["run", round(rng.uniform(0.3, 0.8), 3)])
            engine.apply(["restart", victim])
            engine.apply(["run", 0.5])
        elif action == "leave_join":
            leaver = rng.choice(pool)
            engine.apply(["leave", leaver])
            engine.apply(["run", round(rng.uniform(0.3, 0.8), 3)])
            engine.apply(["join", next_join])
            next_join += 1
            engine.apply(["run", 0.5])
        elif action == "partition_heal":
            members = [node for node, p in sorted(group.processes.items(),
                                                  key=repr) if not p.stopped]
            rng.shuffle(members)
            split = rng.randint(1, len(members) - 1)
            engine.apply(["partition", [members[:split], members[split:]]])
            engine.apply(["run", round(rng.uniform(0.4, 1.0), 3)])
            engine.apply(["heal"])
        elif action == "link_faults":
            engine.apply(["drop", None, None, rng.choice((0.05, 0.1, 0.2))])
            engine.apply(["run", round(rng.uniform(0.4, 1.0), 3)])
            engine.apply(["clear_faults"])
        else:   # byzantine_episode
            villain = rng.choice(pool)
            kind = rng.choice(RUNTIME_BEHAVIORS)
            engine.apply(["byzantine_at", villain, kind,
                          _runtime_params(rng, kind)])
            byz_episodes += 1
            engine.apply(["run", round(rng.uniform(0.3, 0.8), 3)])
            # end the episode: crash the villain out of the membership.
            # Its id stays in byzantine_nodes, keeping its whole history
            # excluded from the correctness checks even after a restart.
            engine.apply(["crash", villain])
            engine.apply(["run", 0.4])
            engine.apply(["restart", villain])

        # steady traffic: one anchor and one random live node broadcast
        engine.apply(["cast", anchors[0], rng.randint(1, 4)])
        pool = live_pool()
        if pool:
            engine.apply(["cast", rng.choice(pool), rng.randint(1, 4)])
        engine.apply(["run", 0.3])
        checker.sample(group, quiescent=False)

        # clear everything and time the recovery to stable views
        recovery = engine.settle_measured(timeout=max(recovery_bound, 1.0),
                                          drain=0.3)
        checker.record_recovery(recovery, at=sim.now)
        recoveries.append(recovery)
        checker.sample(group, quiescent=True)
        if cycles % 50 == 0:
            log("cycle %d: %d events, %.1fs sim, last recovery %s"
                % (cycles, sim.events_processed, sim.now,
                   "stuck" if recovery is None
                   else "%.3fs" % (recovery,)))

    violations = engine.check()
    state_violations = checker.check()
    verdict = "fail" if (violations or state_violations) else "pass"
    measured = [r for r in recoveries if r is not None]
    report = {
        "schema": SOAK_SCHEMA, "kind": "soak",
        "seed": seed, "n": n, "plan_hash": plan.digest(),
        "target_events": target_events,
        "events_processed": sim.events_processed,
        "sim_time": round(sim.now, 3),
        "cycles": cycles, "byzantine_episodes": byz_episodes,
        "verdict": verdict,
        "violations": violations,
        "state_violations": state_violations,
        "recovery": {
            "bound": recovery_bound,
            "measured": len(measured),
            "stuck": len(recoveries) - len(measured),
            "max": round(max(measured), 4) if measured else None,
            "mean": round(sum(measured) / len(measured), 4)
            if measured else None,
        },
        "max_sizes": checker.max_sizes(),
    }
    group.stop()
    return report
