"""Shared experiment runners for the paper's evaluation (section 4).

Every figure and table of the paper maps to one runner here; the
``bench_*`` modules wrap them for ``pytest-benchmark`` and
``run_all.py`` sweeps the full parameter ranges and regenerates
EXPERIMENTS.md.

Measurement methodology follows the paper:

* workload: the Ensemble Ring demo (each node casts a burst of k messages
  and waits for k messages from every other member);
* throughput: broadcasts delivered per second, a broadcast delivered to n
  nodes counting once (16-byte messages, Figures 5/7);
* latency: mean cast-to-delivery time with k = 1 (1-byte messages,
  Figure 6);
* view change: seconds from failure detection (or merge start) to the
  new view's installation (Figure 8, Table 1).

All times are simulated seconds on the BladeCenter topology model; see
DESIGN.md section 6 for the calibration story.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from repro import Group, ObsConfig, StackConfig
from repro.apps.ring import RingDemo
from repro.byzantine.behaviors import (BadViewCoordinator, MuteCoordinator,
                                       MuteNode, VerboseNode)
from repro.core.view import choose_coordinator
from repro.obs.metrics import mean

#: group sizes measured in the paper (8-50, two per blade above 24)
FULL_SIZES = (8, 12, 16, 24, 32, 40, 48)
#: subset used by the pytest-benchmark wrappers to keep CI runs short
QUICK_SIZES = (8, 24, 40)

FIG5_CONFIGS = {
    "JazzEns": lambda: StackConfig.benign(),
    "ByzEns+NoCrypto": lambda: StackConfig.byz(),
    "ByzEns+SymCrypto": lambda: StackConfig.byz(crypto="sym"),
    "ByzEns+NoCrypto+Total": lambda: StackConfig.byz(total_order=True),
    "ByzEns+PubCrypto": lambda: StackConfig.byz(crypto="pub"),
}

FIG6_CONFIGS = {
    "JazzEns": lambda: StackConfig.benign(),
    "ByzEns+NoCrypto": lambda: StackConfig.byz(),
    "ByzEns+SymCrypto": lambda: StackConfig.byz(crypto="sym"),
    "ByzEns+NoCrypto+Total": lambda: StackConfig.byz(total_order=True),
}

FIG7_CONFIGS = {
    "NoCrypto+Total": lambda: StackConfig.byz(total_order=True),
    "NoCrypto+Uniform": lambda: StackConfig.byz(uniform_delivery=True),
    "NoCrypto+Total+Uniform": lambda: StackConfig.byz(
        total_order=True, uniform_delivery=True),
    "SymCrypto+Total": lambda: StackConfig.byz(crypto="sym",
                                               total_order=True),
    "SymCrypto+Uniform": lambda: StackConfig.byz(crypto="sym",
                                                 uniform_delivery=True),
    "SymCrypto+Total+Uniform": lambda: StackConfig.byz(
        crypto="sym", total_order=True, uniform_delivery=True),
}


@contextmanager
def steady_state_gc():
    """Freeze long-lived state out of the cyclic GC for a measured run.

    A bootstrapped n=50 group is hundreds of thousands of live objects
    (processes, layers, archives), and CPython's collector rescans them
    on every generational pass triggered by steady-state allocation --
    per-event GC cost grows with group size even though per-event garbage
    does not (docs/PERFORMANCE.md, "The CPU path").  Freezing the
    bootstrap graph and widening gen-0 removes that O(live heap) term
    from the measurement; simulated histories are unaffected (the
    collector never changes observable behavior).  Thresholds and the
    frozen set are restored on exit so benchmark points stay independent.
    """
    gc.collect()
    gc.freeze()
    old = gc.get_threshold()
    gc.set_threshold(50000, old[1], old[2])
    try:
        yield
    finally:
        gc.set_threshold(*old)
        gc.unfreeze()
        gc.collect()


# ----------------------------------------------------------------------
# Figures 5 and 7: throughput
# ----------------------------------------------------------------------
def ring_throughput(config, n, seed=7, burst=None, warm=None, measure=None,
                    msg_size=16, obs_export=None):
    """Ring-demo throughput for one (config, n) point.

    Windows shrink with n so each point costs a roughly constant number of
    simulated datagrams; PubCrypto gets long windows (its event rate is
    tiny) and a small burst (a large one would never complete a round).

    With ``obs_export`` set to a path, the run is executed with the
    observability plane enabled and its metrics+traces artifact is written
    there as JSON (the simulated results are identical either way: the
    plane never schedules events, draws randomness, or charges CPU).
    """
    if obs_export is not None and not config.obs:
        config = config.clone(obs=ObsConfig())
    if config.crypto == "pub":
        burst = burst or 2
        warm = warm if warm is not None else 1.0
        measure = measure or 3.0
    elif config.uniform_delivery and not config.total_order:
        # per-cast uniform agreement is slow by design (the paper could
        # not batch it either); it needs wider windows to complete rounds
        burst = burst or 8
        warm = warm if warm is not None else 0.25
        measure = measure or 0.4
    else:
        burst = burst or 16
        warm = warm if warm is not None else max(0.05, 0.4 / n)
        measure = measure or max(0.1, 1.6 / n)
    group = Group.bootstrap(n, config=config, seed=seed)
    ring = RingDemo(group, burst=burst, msg_size=msg_size)
    ring.start()
    with steady_state_gc():
        group.run(warm)
        ring.start_measurement()
        group.run(measure)
        ring.stop_measurement()
    view_changes = max(p.membership.view_changes
                       for p in group.processes.values())
    result = {
        "label": config.label(),
        "n": n,
        "throughput": ring.throughput,
        "rounds": ring.min_rounds_completed(),
        "view_changes": view_changes,
        "sim_seconds": measure,
        "events": group.sim.events_processed,
    }
    if obs_export is not None:
        group.export_obs(obs_export)
        metrics = group.metrics
        result["obs"] = {
            "artifact": obs_export,
            "casts_sent": metrics.total("casts_sent", layer="top"),
            "casts_delivered": metrics.total("casts_delivered", layer="top"),
            "datagrams": metrics.total("datagrams_out", layer="net"),
            "traces": len(group.obs.tracer.traces) if group.obs.tracer else 0,
        }
    group.stop()
    return result


# ----------------------------------------------------------------------
# Figure 6: latency of 1-byte messages
# ----------------------------------------------------------------------
def ring_latency(config, n, seed=7, duration=None):
    """Mean cast-to-delivery latency with burst k = 1 (paper Figure 6)."""
    group = Group.bootstrap(n, config=config, seed=seed)
    ring = RingDemo(group, burst=1, msg_size=1, warmup_rounds=3)
    ring.start()
    group.run(duration if duration is not None else max(0.2, 2.0 / n))
    result = {
        "label": config.label(),
        "n": n,
        "latency_ms": ring.latency.mean * 1000.0,
        "p99_ms": ring.latency.p99 * 1000.0,
        "rounds": ring.min_rounds_completed(),
        "events": group.sim.events_processed,
    }
    group.stop()
    return result


# ----------------------------------------------------------------------
# ordering fast path: open-loop cast->deliver latency
# ----------------------------------------------------------------------
#: per-n cast interval for the moderate-load point of the fast-path
#: latency benchmark: high enough that the classic (tick-gated,
#: sequential) ordering path queues, low enough that the pipelined fast
#: path still absorbs the rate.  Intervals deliberately avoid multiples
#: of the 2 ms ordering tick so arrivals don't alias with it.
ORDERING_LOAD_INTERVALS = {8: 0.0033, 16: 0.0053, 32: 0.0093}


def ordering_latency(config, n, seed=7, duration=0.4, casters=4,
                     interval=None):
    """Failure-free cast->deliver latency under an open-loop cast load.

    ``casters`` members each cast a 16-byte message every ``interval``
    simulated seconds (open loop: the next cast is scheduled whether or
    not the previous one was delivered, unlike the closed-loop ring demo
    whose rounds self-throttle to the ordering rate).  Latency is
    measured at one observer node from cast time to total-order
    delivery; decides/s comes from the ordering layer's own counter.
    """
    if interval is None:
        interval = ORDERING_LOAD_INTERVALS.get(
            n, ORDERING_LOAD_INTERVALS[32])
    group = Group.bootstrap(n, config=config, seed=seed)
    latencies = []
    cast_times = {}

    def observer(event):
        t0 = cast_times.get(event.msg_id)
        if t0 is not None:
            latencies.append(event.time - t0)

    for node, endpoint in group.endpoints.items():
        endpoint.record_events = False
        if node == 0:
            endpoint.on_cast = observer
        else:
            endpoint.on_cast = lambda event: None
    endpoints = list(group.endpoints.values())

    def caster(i):
        msg_id = endpoints[i].cast(("load", i), size=16)
        cast_times[msg_id] = group.sim.now
        group.sim.schedule(interval, caster, i)

    # stagger the casters off each other and off the tick grid
    for i in range(casters):
        group.sim.schedule(0.0011 * (i + 1), caster, i)
    with steady_state_gc():
        group.run(duration)
    ordering = group.processes[0].stack.layer("ordering")
    decides = ordering.batches_decided
    fast_decides = getattr(ordering, "fast_decides", 0)
    fast_fallbacks = getattr(ordering, "fast_fallbacks", 0)
    events = group.sim.events_processed
    group.stop()
    latencies.sort()
    count = len(latencies)

    def pct(q):
        if not count:
            return float("nan")
        return latencies[min(count - 1, int(count * q))] * 1000.0

    return {
        "label": config.label(),
        "n": n,
        "p50_ms": pct(0.50),
        "p99_ms": pct(0.99),
        "mean_ms": (sum(latencies) / count * 1000.0) if count else
                   float("nan"),
        "delivered": count,
        "cast": len(cast_times),
        "decides_per_s": decides / duration,
        "fast_decides": fast_decides,
        "fast_fallbacks": fast_fallbacks,
        "sim_seconds": duration,
        "events": events,
    }


# ----------------------------------------------------------------------
# Figure 8: time to establish a new view
# ----------------------------------------------------------------------
def view_change_latency(n, kind, seed=7, config=None):
    """Seconds from the triggering event to the new view (Figure 8).

    ``kind`` is ``"leave"`` (a member departs; measured from the leave
    announcement) or ``"merge"`` (a singleton joins; measured from the
    merge request reaching the coordinator).
    """
    config = config or StackConfig.byz()
    if kind == "leave":
        group = Group.bootstrap(n, config=config, seed=seed)
        with steady_state_gc():
            group.run(0.05)
            group.endpoints[n - 1].leave()
            survivors = [node for node in group.processes if node != n - 1]
            ok = group.run_until(
                lambda: all(p.view.n == n - 1
                            for node, p in group.processes.items()
                            if node != n - 1), timeout=10.0)
    elif kind == "merge":
        # n-1 established members; a fresh node joins mid-run
        group = Group.bootstrap(n - 1, config=config, seed=seed)
        with steady_state_gc():
            group.run(0.05)
            group.add_node(n - 1)
            survivors = [node for node in group.processes if node != n - 1]
            ok = group.run_until(
                lambda: all(p.view.n == n for p in group.processes.values()),
                timeout=10.0)
    else:
        raise ValueError("unknown view-change kind: %r" % (kind,))
    # as in the paper, the clock starts when the event is *known* (leave
    # received / merge request accepted), not when it physically happened
    durations = [group.processes[node].membership.last_change_duration
                 for node in survivors
                 if group.processes[node].membership.last_change_duration]
    elapsed = mean(durations) if (ok and durations) else float("nan")
    result = {"n": n, "kind": kind, "seconds": elapsed, "converged": ok,
              "events": group.sim.events_processed}
    group.stop()
    return result


# ----------------------------------------------------------------------
# Table 1: recovery time from problematic scenarios
# ----------------------------------------------------------------------
def _recovery_run(n, seed, behaviors, exclude, detect_event=None,
                  config=None):
    """Run a fault scenario; return detection->install recovery time.

    Following the paper, the time reported EXCLUDES the failure-detection
    period itself ("does not include the failure detection time as this is
    a tunable parameter"): we take the latest change-start among survivors
    as the detection instant.
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
