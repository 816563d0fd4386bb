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
# Table 1's runner lives in the package, where ``python -m repro attack``
# finds it from any directory; re-exported so every runner is named here
from repro.byzantine.table1 import TABLE1_SCENARIOS, recovery_time
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
