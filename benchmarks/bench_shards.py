"""Throughput scaling of the sharded service plane (``repro.shard``).

The paper's stack pays O(n^2) datagrams per broadcast, so one big group
hits a wall: a 50-node monolith delivers fewer broadcasts per second
than a handful of 5-node groups combined.  The shard plane exists to
cash that observation in -- N independent groups over ONE shared
runtime, a consistent-hash directory routing keys to shards -- and this
benchmark is the receipt.  Two workloads:

* ``saturation`` -- every shard runs the paper's ring workload
  (16-byte casts, burst 16) simultaneously on the shared simulator;
  the figure of merit is **aggregate broadcasts per simulated second**
  across the plane, compared against one monolithic group run the same
  way on the same runtime type (``label="single"`` points).  The
  headline ratio (64 shards x 5 nodes vs one 50-node group) is printed
  and stored as ``speedup_vs_single_group``.
* ``clients`` -- 10k+ simulated clients, each a key routed through the
  directory to its owning shard; every request is a group cast
  submitted at a member of that shard, complete when all members
  deliver it.  Reports completed requests per simulated second and the
  p99 request latency (cast to last delivery).

Simulated results (msgs/s, p99) are deterministic under a seed; wall
metrics are host-dependent, so cross-run comparison
(``--check-against``) gates on the *calibration-normalized* events/sec
exactly like ``bench_wallclock.py`` (shared ``calibrate`` /
``check_against`` machinery).

**events/s is not comparable across the signalled shard client and the
demand-armed ordering tick** (CHANGES PR 15).  The ``migration`` point is
the only one on a total-order stack with a ``ShardClient``: it lost the
idle members' no-op ``_tick`` events (205 249 -> 149 876 events, -27 %)
and the ``_outcome`` scan that ran inside the scheduler after every
event, so it does the same simulated work in 2.14 -> 1.28 s of wall with
a different event mix.  events / wall happened to *rise* (96k -> 118k:
the scan was dearer than the ticks were cheap), but the ratio no longer
measures the same thing on the two sides; ``BENCH_shards.json`` was
re-recorded at that commit, and a baseline from before it must not gate
this point on a tree from after it (or the reverse) -- compare
``wall_s`` across that boundary instead.  The ``saturation`` and
``clients`` points run FIFO stacks, execute none of the changed code and
kept their event counts exactly.

**Nor across the quiescent control plane** (CHANGES PR 17: acks on
demand, one beacon).  The ``clients`` points lost 23-25 % of their events
(89 920 -> 69 175 at 16x5) and ``migration`` 40 % (149 876 -> 90 151, wall
1.28 -> 0.68 s): idle members' acks and heartbeats, the cheapest events of
the run.  The ``saturation`` points keep every member busy and kept their
event counts within 0.04 % (the heartbeats a loaded member no longer
sends); their simulated msgs/s rose 0.4-1.4 % (the single-group baselines
3.6-6.5 %, so the headline ratio reads 119.9x for 123.8x).
``BENCH_shards.json`` was
re-recorded at that commit; the same rule applies -- a baseline from one
side must not gate ``clients`` or ``migration`` on a tree from the other.

**Nor across cast-opened ordering** (CHANGES PR 20: a cast that finds its
member's ordering tick dormant opens the instance itself).  Only the
``migration`` point runs a total-order stack, and its migrating phase is
time-bounded -- it issues as many ops as fit -- so with most ops done in
0.3 ms instead of a 2 ms tick it issues 600 instead of 223 while the
migration itself finishes in 0.54 s instead of 0.75: 90 151 -> 97 633
events, none of them idle timers any more, events / wall 109k -> 70k back
to back (wall 0.83 -> 1.39 s for 696 ops instead of 319).  That point alone
was re-recorded, anchored to the committed one by the back-to-back ratio of
calibration-normalized events/s (x0.687; the sha256 calibration loop
wanders 0.026-0.044 s on the recording box, so a ratio measured minutes
apart is firmer than a fresh absolute); the same rule applies to it.  The
``saturation`` and ``clients`` points kept their exact event counts and
their committed rows.

**Nor across the light-member tick sleep** (CHANGES, "light members order
at arrival": a member whose last cast came a tick or more after the one
before puts its ordering tick to sleep at the decide that empties it).  The ``migration`` point's
shards see one op at a time, so their members sleep instead of firing a
no-op tick after each op: 20 996 -> 19 911 events (-5.2 %), steady p99
2.001 -> 1.63 ms, and the calibration-normalized events/s read x0.79 /
x0.92 / x0.89 of the parent's in three back-to-back pairs (wall about
equal, fewer of the cheapest events).  That row alone was re-recorded,
anchored to the committed one by the median ratio (x0.888); the same
rule applies to it.  ``saturation`` and ``clients`` kept their exact
event counts and their committed rows.

Usage::

    python benchmarks/bench_shards.py [--quick] [--out BENCH_shards.json]
        [--check-against BASELINE.json [--tolerance 0.30]] [--tag NAME]
        [--require-speedup 8.0]

``--quick`` (the CI shard-smoke shape) runs the 16x5 plane against a
20-node monolith; its point keys are a subset of the full run's, so a
full-run baseline file gates quick runs too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_wallclock import calibrate, check_against
from repro import Cluster, StackConfig
from repro.apps.ring import RingDemo
from repro.obs.metrics import percentile

#: (shards, nodes_per_shard) saturation points; quick is a prefix of full
#: so a full-run baseline file also gates --quick runs
SAT_FULL = ((16, 5), (64, 5), (64, 7), (128, 5))
SAT_QUICK = ((16, 5),)
#: monolithic single-group baselines (same runtime type, same topology)
SINGLE_FULL = (20, 50)
SINGLE_QUICK = (20,)
#: (shards, nodes_per_shard, clients) swarm points
CLIENTS_FULL = ((16, 5, 2560), (64, 5, 10240))
CLIENTS_QUICK = ((16, 5, 2560),)
#: (shards, nodes_per_shard) live-migration latency points; the ISSUE's
#: acceptance names the 16x5 plane, so quick == full here
MIG_FULL = ((16, 5),)
MIG_QUICK = ((16, 5),)
#: headline speedup pair: (plane shape, single-group n)
HEADLINE_FULL = ((64, 5), 50)
HEADLINE_QUICK = ((16, 5), 20)

#: fixed measurement windows (simulated seconds) for the saturation
#: workload; aggregating over >=16 shards smooths per-shard noise, so
#: the plane gets by with a shorter window than a lone fig5 point
PLANE_WARM_S = 0.05
PLANE_MEASURE_S = 0.15


# ----------------------------------------------------------------------
# saturation: aggregate ring throughput of the plane
# ----------------------------------------------------------------------
def plane_saturation(shards, nodes_per_shard, seed=7, burst=16):
    """Run the ring workload on every shard at once; aggregate msgs/s."""
    cluster = Cluster.create(shards=shards, nodes_per_shard=nodes_per_shard,
                             config=StackConfig.byz(), seed=seed)
    rings = [RingDemo(cluster.shard_group(s), burst=burst, msg_size=16)
             for s in range(shards)]
    for ring in rings:
        ring.start()
    cluster.run(PLANE_WARM_S)
    for ring in rings:
        ring.start_measurement()
    cluster.run(PLANE_MEASURE_S)
    for ring in rings:
        ring.stop_measurement()
    aggregate = sum(ring.throughput for ring in rings)
    samples = [s for ring in rings for s in ring.latency.samples]
    result = {
        "msgs_per_s": aggregate,
        "p99_ms": percentile(samples, 99) * 1000.0 if samples else None,
        "rounds": min(ring.min_rounds_completed() for ring in rings),
        "events": cluster.sim.events_processed,
    }
    cluster.stop()
    return result


def single_group_saturation(n, seed=7, burst=16):
    """The monolith: one n-node group, same runtime type and topology."""
    cluster = Cluster.create(shards=1, nodes_per_shard=n,
                             config=StackConfig.byz(), seed=seed)
    ring = RingDemo(cluster.group, burst=burst, msg_size=16)
    ring.start()
    cluster.run(max(PLANE_WARM_S, 0.4 / n))
    ring.start_measurement()
    cluster.run(max(PLANE_MEASURE_S, 1.6 / n))
    ring.stop_measurement()
    result = {
        "msgs_per_s": ring.throughput,
        "p99_ms": (percentile(ring.latency.samples, 99) * 1000.0
                   if ring.latency.samples else None),
        "rounds": ring.min_rounds_completed(),
        "events": cluster.sim.events_processed,
    }
    cluster.stop()
    return result


# ----------------------------------------------------------------------
# clients: directory-routed request swarm with end-to-end latency
# ----------------------------------------------------------------------
def client_swarm(shards, nodes_per_shard, clients, seed=7,
                 window=0.5, grace=2.0):
    """``clients`` keys routed through the directory; one cast each.

    Submissions are spread uniformly over ``window`` simulated seconds
    (an open-loop arrival process); a request is complete when every
    member of its owning shard delivers the cast.  Returns completed
    count, completions per simulated second, and the p99 of
    (submit -> last delivery) latency.
    """
    cluster = Cluster.create(shards=shards, nodes_per_shard=nodes_per_shard,
                             config=StackConfig.byz(), seed=seed)
    sim = cluster.sim
    members = {s: sorted(cluster.shard_group(s).endpoints)
               for s in range(shards)}
    pending = {}          # key -> submit time
    counts = {}           # key -> deliveries so far
    latencies = []

    def make_on_cast():
        def on_cast(event):
            payload = event.payload
            if not (isinstance(payload, tuple) and payload
                    and payload[0] == "req"):
                return
            key = payload[1]
            counts[key] = counts.get(key, 0) + 1
            if counts[key] == nodes_per_shard:
                latencies.append(sim.now - pending[key])
        return on_cast

    for s in range(shards):
        for endpoint in cluster.shard_group(s).endpoints.values():
            endpoint.record_events = False
            endpoint.on_cast = make_on_cast()

    def submit(key, endpoint):
        if not endpoint.process.stopped:
            pending[key] = sim.now
            endpoint.cast(("req", key), size=16)

    warm = PLANE_WARM_S
    for c in range(clients):
        key = "client:%d" % c
        shard = cluster.route(key)
        node = members[shard][c % nodes_per_shard]
        endpoint = cluster.shard_group(shard).endpoints[node]
        sim.schedule(warm + window * c / clients, submit, key, endpoint)

    start = sim.now + warm
    deadline = start + window + grace
    while sim.now < deadline and len(latencies) < clients:
        cluster.run(0.05)
    elapsed = sim.now - start
    result = {
        "clients": clients,
        "completed": len(latencies),
        "requests_per_s": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "p99_ms": (percentile(latencies, 99) * 1000.0 if latencies
                   else None),
        "events": sim.events_processed,
    }
    cluster.stop()
    return result


# ----------------------------------------------------------------------
# migration: fenced-request latency across a live reshard
# ----------------------------------------------------------------------
def migration_latency(shards, nodes_per_shard, seed=7, keys=48,
                      steady_ops=96, max_migration_ops=600):
    """p99 request latency during a live reshard vs steady state.

    The plane boots with 3/4 of its groups on the ring; the benchmark
    runs an exactly-once increment workload through the epoch-stamping
    client (``ShardClient``), first against the quiet plane, then WHILE
    a scale-out migration streams key ranges onto the spare groups.
    The in-migration sample includes everything a real client pays at
    the seam: stale/early/wait fencing verdicts, re-route retries, and
    ops parked behind in-flight arcs.
    """
    ring_shards = max(1, (3 * shards) // 4)
    cluster = Cluster.create(shards=shards, nodes_per_shard=nodes_per_shard,
                             config=StackConfig.byz(total_order=True),
                             seed=seed, ring_shards=ring_shards)
    cluster.run_until_stable_views(10.0)
    sim = cluster.sim
    rsm = cluster.sharded_rsm()
    client = rsm.client("bench", timeout=1.5, attempts=40)
    key_names = ["mig:%d" % i for i in range(keys)]
    for key in key_names:
        client.set(key, 0)

    def run_ops(tag, count, alive=lambda: True):
        latencies = []
        issued = 0
        while issued < count and alive():
            key = key_names[issued % keys]
            t0 = sim.now
            status, _res = client.op(key, ("incr", key, 1),
                                     op_id=(tag, issued))
            if status == "ok":
                latencies.append(sim.now - t0)
            issued += 1
        return latencies

    steady = run_ops("steady", steady_ops)

    coordinator = cluster.resharder()   # advances itself as the ops run
    coordinator.start(shards=shards)
    migrating = run_ops("mig", max_migration_ops,
                        alive=lambda: coordinator.state == "migrating")
    coordinator.run(timeout=60.0)
    metrics = coordinator.migration_metrics()
    p99_steady = percentile(steady, 99) if steady else None
    # a migration now lasts a handful of ops: a p99 over fewer than ten
    # would be the max under another name (max_migrating_ms reports that)
    p99_mig = percentile(migrating, 99) if len(migrating) >= 10 else None
    result = {
        "ring_shards": ring_shards,
        "steady_ops": len(steady),
        "migration_ops": len(migrating),
        "p99_steady_ms": (round(p99_steady * 1000.0, 3)
                          if p99_steady is not None else None),
        "p99_migrating_ms": (round(p99_mig * 1000.0, 3)
                             if p99_mig is not None else None),
        "migration_slowdown": (round(p99_mig / p99_steady, 2)
                               if p99_steady and p99_mig else None),
        # fencing punishes ~1% of ops by orders of magnitude, so the
        # seam cost lives in the extreme tail; max makes it visible
        # even when p99 sits below the fenced fraction
        "max_steady_ms": (round(max(steady) * 1000.0, 3)
                          if steady else None),
        "max_migrating_ms": (round(max(migrating) * 1000.0, 3)
                             if migrating else None),
        "migration_s": (round(metrics["finished_at"]
                              - metrics["started_at"], 4)
                        if metrics["finished_at"] is not None else None),
        "keys_moved": metrics["keys_moved"],
        "fencing": metrics["fencing"],
        "migration_state": metrics["state"],
        "events": sim.events_processed,
    }
    cluster.stop()
    return result


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------
def _point(workload, label, n, wall, result, **extra):
    events = result["events"]
    point = {
        "workload": workload,
        "label": label,
        "n": n,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": round(events / wall, 1),
    }
    point.update(extra)
    return point


def run_suite(quick=False, seed=7):
    sat = SAT_QUICK if quick else SAT_FULL
    singles = SINGLE_QUICK if quick else SINGLE_FULL
    swarms = CLIENTS_QUICK if quick else CLIENTS_FULL
    headline_plane, headline_n = HEADLINE_QUICK if quick else HEADLINE_FULL

    calib = calibrate()
    print("calibration loop: %.3fs" % calib, flush=True)
    points = []
    sat_rate = {}           # (shards, k) -> aggregate msgs/s
    single_rate = {}        # n -> msgs/s

    for shards, k in sat:
        start = time.perf_counter()
        result = plane_saturation(shards, k, seed=seed)
        wall = time.perf_counter() - start
        sat_rate[(shards, k)] = result["msgs_per_s"]
        points.append(_point(
            "saturation", "plane", shards * k, wall, result,
            shards=shards, nodes_per_shard=k,
            msgs_per_s=round(result["msgs_per_s"], 1),
            p99_ms=(round(result["p99_ms"], 3)
                    if result["p99_ms"] is not None else None)))
        print("saturation plane   %3dx%d %7.2fs wall  %9d events  "
              "%9.0f msgs/s" % (shards, k, wall, result["events"],
                                result["msgs_per_s"]), flush=True)

    for n in singles:
        start = time.perf_counter()
        result = single_group_saturation(n, seed=seed)
        wall = time.perf_counter() - start
        single_rate[n] = result["msgs_per_s"]
        points.append(_point(
            "saturation", "single", n, wall, result,
            msgs_per_s=round(result["msgs_per_s"], 1),
            p99_ms=(round(result["p99_ms"], 3)
                    if result["p99_ms"] is not None else None)))
        print("saturation single  n=%-3d %7.2fs wall  %9d events  "
              "%9.0f msgs/s" % (n, wall, result["events"],
                                result["msgs_per_s"]), flush=True)

    for shards, k, clients in swarms:
        start = time.perf_counter()
        result = client_swarm(shards, k, clients, seed=seed)
        wall = time.perf_counter() - start
        points.append(_point(
            "clients", "plane", shards * k, wall, result,
            shards=shards, nodes_per_shard=k, clients=clients,
            completed=result["completed"],
            requests_per_s=round(result["requests_per_s"], 1),
            p99_ms=(round(result["p99_ms"], 3)
                    if result["p99_ms"] is not None else None)))
        print("clients    plane   %3dx%d %7.2fs wall  %9d events  "
              "%6d/%d done  %8.0f req/s  p99 %.1f ms"
              % (shards, k, wall, result["events"], result["completed"],
                 clients, result["requests_per_s"],
                 result["p99_ms"] or float("nan")), flush=True)

    for shards, k in (MIG_QUICK if quick else MIG_FULL):
        start = time.perf_counter()
        result = migration_latency(shards, k, seed=seed)
        wall = time.perf_counter() - start
        points.append(_point(
            "migration", "plane", shards * k, wall, result,
            shards=shards, nodes_per_shard=k,
            ring_shards=result["ring_shards"],
            steady_ops=result["steady_ops"],
            migration_ops=result["migration_ops"],
            p99_steady_ms=result["p99_steady_ms"],
            p99_migrating_ms=result["p99_migrating_ms"],
            migration_slowdown=result["migration_slowdown"],
            max_steady_ms=result["max_steady_ms"],
            max_migrating_ms=result["max_migrating_ms"],
            migration_s=result["migration_s"],
            keys_moved=result["keys_moved"],
            fencing=result["fencing"],
            migration_state=result["migration_state"]))
        print("migration  plane   %3dx%d %7.2fs wall  %9d events  "
              "p99 %.1f ms steady -> %.1f ms migrating (%.1fx)  "
              "max %.1f -> %.1f ms  (%d keys moved, %s)"
              % (shards, k, wall, result["events"],
                 result["p99_steady_ms"] or float("nan"),
                 result["p99_migrating_ms"] or float("nan"),
                 result["migration_slowdown"] or float("nan"),
                 result["max_steady_ms"] or float("nan"),
                 result["max_migrating_ms"] or float("nan"),
                 result["keys_moved"], result["migration_state"]),
              flush=True)

    speedup = (sat_rate[headline_plane] / single_rate[headline_n]
               if single_rate.get(headline_n) else None)
    if speedup is not None:
        print("speedup: %dx%d plane vs single n=%d group: %.1fx aggregate "
              "msgs/s" % (headline_plane[0], headline_plane[1], headline_n,
                          speedup), flush=True)
    return {
        # schema 2: the "migration" workload family (p99 during a live
        # reshard vs steady state) joined "saturation"/"clients"
        "schema": 2,
        "quick": quick,
        "seed": seed,
        "calib_s": round(calib, 4),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "speedup_vs_single_group": (round(speedup, 2)
                                    if speedup is not None else None),
        "headline": {"plane": list(headline_plane), "single_n": headline_n},
        "workloads": points,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="16x5 plane vs 20-node monolith (CI "
                             "shard-smoke)")
    parser.add_argument("--out", default="BENCH_shards.json")
    parser.add_argument("--tag", default=None,
                        help="store the run under runs[TAG], merging with "
                             "an existing file instead of overwriting it")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="fail if normalized events/sec regressed vs "
                             "this baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail unless the headline plane beats the "
                             "single group by at least this factor")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    current = run_suite(quick=args.quick, seed=args.seed)

    if args.tag:
        doc = {"schema": 1, "runs": {}}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                doc = json.load(handle)
            doc.setdefault("runs", {})
        doc["runs"][args.tag] = current
    else:
        doc = current
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.out)

    status = 0
    if args.require_speedup is not None:
        speedup = current["speedup_vs_single_group"]
        if speedup is None or speedup < args.require_speedup:
            print("SPEEDUP REGRESSION: %.1fx < required %.1fx"
                  % (speedup or 0.0, args.require_speedup), file=sys.stderr)
            status = 1
        else:
            print("speedup check ok: %.1fx >= %.1fx"
                  % (speedup, args.require_speedup))
    if args.check_against:
        with open(args.check_against) as handle:
            baseline_doc = json.load(handle)
        regressions = check_against(current, baseline_doc, args.tolerance)
        if regressions:
            for line in regressions:
                print("PERF REGRESSION: %s" % line, file=sys.stderr)
            status = 1
        else:
            print("perf check ok: no point regressed more than %.0f%% "
                  "(normalized)" % (args.tolerance * 100))
    return status


if __name__ == "__main__":
    sys.exit(main())
