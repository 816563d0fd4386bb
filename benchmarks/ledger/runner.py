"""Runs one workload for ``--seconds`` and reduces it to named metrics.

One process, one thread.  An untraced run (``--trace 0``) yields the
end-to-end metrics from the stock configuration; a traced run
(``--trace 1``) pairs every traced episode with an untraced one on the
same sub-seed -- which both proves the tracer did not change the
simulated execution and gives the tracing overhead -- and yields the
per-layer ledger.
"""

from __future__ import annotations

import hashlib
import time

from benchmarks.ledger import ledger, spec, udp
from benchmarks.ledger.loadgen import latency_stats
from benchmarks.ledger.measure import (InbandCalibration, SetupTimer,
                                       median, peak_rss_mb, percentile,
                                       steady_state_gc)
from benchmarks.ledger.tracer import Tracer
from benchmarks.ledger.workloads import EPISODE_COST_S, EPISODES, PROBES

#: set-ups a run times at least (``setup_s`` is their median)
MIN_SETUPS = 3

#: a traced episode costs about this many untraced ones (obs counters on,
#: a span around every layer hop)
TRACED_COST_FACTOR = 2.2


def sub_seed(seed, index):
    """Seed of the ``index``-th episode of a run."""
    return seed * 1000 + index


def sim_digest(summary):
    """Everything simulated about an episode, as one hash: equal seeds
    must give equal digests, traced or not."""
    facts = summary["facts"]
    basis = (summary["attempted"], summary["delivered"],
             summary["completed_in_window"], repr(summary["window"]),
             repr(summary["gap"]), repr(summary["latencies"]),
             facts["events"], facts["datagrams_sent"],
             facts["datagrams_dropped"], repr(facts["sim_now"]))
    return hashlib.sha256(repr(basis).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def run_episode(cls, seed, scale=1.0, tracer=None):
    """One episode, timed from outside; returns its summary."""
    episode = cls(seed, scale=scale, tracer=tracer)
    try:
        with SetupTimer() as setup:
            episode.setup()
        with steady_state_gc():
            registry = episode.metrics()
            before = ledger.obs_snapshot(registry)
            calibration = episode.calibration = InbandCalibration()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.start()
            episode.measure()
            if tracer is not None:
                tracer.stop()
            cpu_s = time.process_time() - cpu0 - calibration.cpu_s
            wall_s = time.perf_counter() - wall0
            episode.calibration = None
            obs = ledger.snapshot_delta(ledger.obs_snapshot(registry), before)
            episode.drain()
            summary = episode.finish()
        if registry is not None:
            summary["facts"]["view_change_ms_max"] = 1000.0 * (
                ledger.obs_histogram_max(registry, "membership",
                                         "view_change_seconds"))
    finally:
        episode.teardown()
    summary.update(seed=seed, setup_s=setup.seconds, cpu_s=cpu_s,
                   wall_s=wall_s,
                   calib_s=calibration.calib_s, obs=obs,
                   digest=sim_digest(summary))
    return summary


def time_setup(cls, seed, scale):
    """Set a workload up and tear it down again: one more ``setup_s``
    sample for runs with too few episodes to take a median over."""
    episode = cls(seed, scale=scale)
    try:
        with SetupTimer() as setup:
            episode.setup()
        return setup.seconds
    finally:
        episode.teardown()


def sim_plan(name, seconds, traced):
    """``(episodes, scale)`` for a run of ``seconds``: a pure function of
    its arguments, so a seed's simulated numbers repeat."""
    cost = EPISODE_COST_S[name]
    if traced:
        cost *= 1.0 + TRACED_COST_FACTOR
    fit = seconds / cost
    if fit >= 1.0:
        return int(fit + 0.5), 1.0
    return 1, max(fit, 0.05)


def run_sim(name, seed, seconds, traced):
    """The episodes of one simulator run: ``(untraced, traced, tracer,
    extra result fields)``."""
    cls = EPISODES[name]
    count, scale = sim_plan(name, seconds, traced)
    untraced, twins = [], []
    tracer = Tracer() if traced else None
    spare_setups = [time_setup(cls, sub_seed(seed, count + k), scale)
                    for k in range(MIN_SETUPS - count if not traced else 0)]
    for index in range(count):
        seed_i = sub_seed(seed, index)
        untraced.append(run_episode(cls, seed_i, scale))
        if traced:
            twin = run_episode(cls, seed_i, scale, tracer)
            if twin["digest"] != untraced[-1]["digest"]:
                raise AssertionError(
                    "%s seed %d: tracing changed the simulated execution"
                    % (name, seed_i))
            twins.append(twin)
    untraced[0]["setups"] = [untraced[0]["setup_s"]] + spare_setups
    return untraced, twins, tracer, {}


# ----------------------------------------------------------------------
# reduction: episodes -> metrics
# ----------------------------------------------------------------------
def cpu_norm(episode):
    """Calibration loops per 1000 delivered casts."""
    done = episode["completed_in_window"]
    if not done or not episode["calib_s"]:
        return float("nan")
    return episode["cpu_s"] / done / episode["calib_s"] * 1000.0


def reduce_run(name, backend, episodes):
    """End-to-end metrics and diagnostics of the untraced episodes."""
    late = sorted(x for ep in episodes for x in ep["late"])
    attempted = sum(ep["attempted"] for ep in episodes)
    delivered = sum(ep["delivered"] for ep in episodes)
    done = sum(ep["completed_in_window"] for ep in episodes)
    window = sum(ep["window"] for ep in episodes)
    violations = [v for ep in episodes for v in ep["violations"]]
    stats = latency_stats([window for ep in episodes
                           for window in ep.get("windows",
                                                [ep["latencies"]])])
    failed = attempted - delivered
    end_to_end = {
        "goodput_per_s": done / window if window else float("nan"),
        "cast_deliver_p50_ms": stats["p50_ms"],
        # interference only ever adds CPU time: the least-disturbed
        # episode is the best estimate of what the code costs
        "cpu_per_cast_norm": min(cpu_norm(ep) for ep in episodes),
        "setup_s": median([s for ep in episodes
                           for s in ep.get("setups", [ep["setup_s"]])]),
        "peak_rss_mb": peak_rss_mb(),
    }
    cpu_s = sum(ep["cpu_s"] for ep in episodes)
    diagnostics = {
        "loadgen.offered_per_s": attempted / window if window else 0.0,
        "loadgen.late_ms_p99": (percentile(late, 99.0) * 1000.0
                                if late else 0.0),
        "loadgen.cast_deliver_p95_ms": stats["p95_ms"],
        "loadgen.cast_deliver_p99_ms": stats["p99_pooled_ms"],
        "loadgen.service_gap_ms": median([ep["gap"] for ep in episodes])
        * 1000.0,
        "loadgen.failed_share": (1.0 if violations
                                 else failed / attempted if attempted
                                 else 1.0),
        "host.cpu_us_per_cast": cpu_s / done * 1e6 if done else 0.0,
        "host.calib_s": median([ep["calib_s"] for ep in episodes]),
    }
    return {
        "workload": name,
        "backend": backend,
        "correct": not violations and attempted > 0,
        "attempted": attempted,
        "failed": attempted if violations else failed,
        "violations": violations[:3],
        "violation_count": len(violations),
        "samples": stats["samples"],
        "windows": stats["windows"],
        "supported_percentile": stats["supported_percentile"],
        "episodes": len(episodes),
        "digests": [ep.get("digest") for ep in episodes],
        "end_to_end": end_to_end,
        "diagnostics": diagnostics,
    }


def churn_facts(episodes):
    """Detection time over the crash and mute faults of the traced churn
    episodes: fault -> first view change started at the observer."""
    detect = []
    for ep in episodes:
        facts = ep["facts"]
        starts = [t for t, event in facts.get("control_log", ())
                  if event == "view-change-started"]
        for at, kind, _node in facts.get("fault_log", ()):
            if kind in ("crash", "mute"):
                later = [t for t in starts if t >= at]
                if later:
                    detect.append(later[0] - at)
    return {"detect_ms": median(detect) * 1000.0 if detect else 0.0}


def reduce_traced(backend, tracer, traced, untraced, diagnostics):
    """The per-layer ledger of the traced episodes; ``diagnostics`` are
    the untraced run's (end-to-end numbers never come from a traced
    run)."""
    done = sum(ep["completed_in_window"] for ep in traced)
    window = sum(ep["window"] for ep in traced)
    obs = ledger.merge_deltas(ep["obs"] for ep in traced)
    shares, unattributed, loop_self_us = ledger.attribution(tracer, backend)
    facts = {"loop_self_us": loop_self_us,
             "attempted": sum(ep["attempted"] for ep in traced)}
    facts.update(churn_facts(traced))
    for key in ("false_suspicions", "fenced", "retries", "keys_moved",
                "reshard_ops"):
        values = [ep["facts"][key] for ep in traced if key in ep["facts"]]
        if values:
            facts[key] = sum(values)
    for key in ("pending_peak", "view_change_ms_max"):
        facts[key] = max([ep["facts"].get(key, 0) for ep in traced] or [0])
    for key, out in (("catchup_s", "catchup_ms"),
                     ("migration_s", "migration_ms")):
        values = [ep["facts"][key] for ep in traced
                  if ep["facts"].get(key) is not None]
        if values:
            facts[out] = median(values) * 1000.0
    for ep in traced:
        for key, value in ep["facts"].items():
            if key.startswith("transport."):
                facts[key] = facts.get(key, 0) + value
    rows = ledger.build(tracer, obs, facts, done, window, backend)
    rows.update(diagnostics)
    traced_cpu = min(cpu_norm(ep) for ep in traced)
    plain_cpu = min(cpu_norm(ep) for ep in untraced)
    rows["trace.overhead_share"] = (traced_cpu / plain_cpu - 1.0
                                    if plain_cpu else 0.0)
    rows["trace.unattributed_share"] = unattributed
    return {"rows": rows, "shares": shares,
            "delivered": done, "window_s": window}


# ----------------------------------------------------------------------
# front door
# ----------------------------------------------------------------------
def run_workload(name, seed, seconds, traced):
    """Run one workload; returns the reduced result dict."""
    backend = spec.backend(name)
    run = udp.run_udp if backend == "udp" else run_sim
    untraced, twins, tracer, extra = run(name, seed, seconds, traced)
    result = reduce_run(name, backend, untraced)
    if traced:
        result["per_layer"] = reduce_traced(backend, tracer, twins, untraced,
                                            result["diagnostics"])
        result["spans"] = tracer.spans
    result.update(extra, seed=seed, seconds=seconds, traced=bool(traced))
    return result


def run_probe(name, seed):
    """One episode of a recorded, never gated, known-bad scenario (see
    README): its verdict plus the plan that reproduces it."""
    cls = PROBES[name]
    episode = run_episode(cls, sub_seed(seed, 0))
    result = reduce_run(name, "sim", [episode])
    result.update(seed=seed, probe=True, plan={
        "n": cls.n, "seed": sub_seed(seed, 0),
        "config": dict(cls.config_kwargs, byzantine=True),
        "net": {"drop_prob": cls.drop_prob},
        "load": {"casters": list(cls.casters),
                 "interval_s": cls.interval_s,
                 "from_s": cls.cast_from, "to_s": cls.cast_to,
                 "settle_to_s": cls.settle_to},
        "faults": episode["facts"]["fault_log"],
    })
    return result
