"""Localhost UDP cluster benchmark: wall-clock numbers vs sim predictions.

Usage::

    python benchmarks/bench_net_localhost.py [--nodes 5] [--casts 40]
        [--seed 1] [--repeat 3] [--quick] [--out BENCH_net.json]
        [--saturate] [--no-before]
        [--check-against BENCH_net.json [--tolerance 0.30]]

Two workload families:

**Rate-limited** (the default): the same
:class:`~repro.runtime.workload.NetWorkload` runs twice --

* on the **asyncio-UDP backend** -- every node a real OS process on
  127.0.0.1, the wire codec and monotonic clocks in the loop -- measuring
  wall-clock seconds;
* on the **deterministic simulator** -- the backend every other benchmark
  in this directory uses -- measuring simulated seconds on the
  BladeCenter topology model.

Reported per backend: ``throughput_msgs_per_s`` (unique workload
deliveries per second at each node between its first full view and
script completion; median across nodes, then repeats), ``formation_s``
(boot to first full view) and ``leave_change_s`` (the leave
reconfiguration).  The two backends are NOT expected to agree in
absolute terms; the point of committing BENCH_net.json is the *shape*.

**Saturation** (``--saturate``): ``cast_gap=0`` -- every node fires its
whole cast burst the moment the view forms, so the wire path, not the
workload timer, is the bottleneck.  A grid over cluster size and payload
size measures the net backend only and reports the wire-path figures of
merit: ``msgs_per_s``, ``datagrams_per_s``, ``frames_per_datagram`` (the
coalescer's amortization factor) and ``bytes_per_msg`` (wire overhead).
The headline point also runs with ``wire_coalesce`` off -- the
pre-coalescer wire path -- and the before/after improvement is recorded
alongside (see docs/PERFORMANCE.md, "The wire path").

A saturating burst can overload the failure detector (real scheduling
stalls read as muteness), churning a view mid-burst; the workload then
re-casts and the history checker reads the resulting duplicates as
violations.  That is overload behaviour, not a wire-path defect -- the
saturation family therefore *reports* violation counts but gates only
on node success; correctness under load is the conformance tests' and
the rate-limited family's job.

``--check-against`` (CI net-smoke gate): compares this run's throughput
numbers against a committed baseline, normalized by the same pure-Python
calibration loop the perf-smoke gate uses (``events_per_s * calib_s``
style), so the check is host-speed-independent.  Points whose measure
window is under 0.1 wall seconds are reported but not gated -- they flap
on shared CI runners (the perf-smoke tolerance rules, mirrored).

``BENCH_net.json`` was re-recorded with the quiescent control plane
(CHANGES PR 17: acks on demand, one beacon): the same workloads put fewer
datagrams on the wire (rate-limited net 1412 -> 1077, sim 2667 -> 1728;
saturation 543 -> 289 at the n=5 / 16 B headline, 2128 -> 1073 at n=7),
so ``datagrams_per_s``, ``frames_per_datagram`` and ``bytes_per_msg`` are
not comparable across that commit; msgs/s is the same workload on both
sides and rose on every saturation point.  ``formation_s`` of the net
backend depends on which singleton merges race (0.17-0.58 s over six
alternating runs of parent and change); the file holds a median of three.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_wallclock import MIN_GATED_WALL_S, calibrate
from repro.runtime.driver import run_net_workload
from repro.runtime.workload import NetWorkload, run_sim_workload

#: saturation grid: (nodes, payload_bytes, casts_per_node)
SATURATION_GRID = (
    (3, 16, 150),
    (5, 16, 120),
    (5, 512, 100),
    (5, 2048, 60),
    (7, 16, 80),
)
#: quick mode runs only the headline point, with the SAME burst size as
#: the full grid so the --check-against comparison is like-for-like
QUICK_SATURATION_GRID = ((5, 16, 120),)

#: the before/after comparison point: 5-node loopback, small casts
HEADLINE = (5, 16)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _result_stats(result, workload):
    """Backend-independent numbers out of one WorkloadResult."""
    rates = []
    formations = []
    changes = []
    windows = []
    for node, report in sorted(result.reports.items()):
        wall = report.wall
        formed, done = wall.get("formed_at"), wall.get("done_at")
        if formed is not None:
            formations.append(formed)
        if (formed is not None and done is not None and done > formed
                and wall.get("delivered")):
            rates.append(wall["delivered"] / (done - formed))
            windows.append(done - formed)
        if node != workload.leaver:
            changes.append(wall.get("last_change_duration"))
    counters = [r.counters for r in result.reports.values()]
    datagrams = sum(c.get("datagrams_sent", 0) for c in counters)
    if result.backend == "sim":
        # the sim network counter is global, not per-node
        datagrams = max(c.get("datagrams_sent", 0) for c in counters)
    stats = {
        "ok": result.ok,
        "elapsed_s": result.elapsed,
        "violations": len(result.violations()),
        "throughput_msgs_per_s": _median(rates),
        "formation_s": _median(formations),
        "leave_change_s": _median(changes),
        "datagrams_sent": datagrams,
        "total_delivered": result.total_delivered(),
        "measure_s": _median(windows),
    }
    if result.backend == "net":
        stats["frames_sent"] = sum(c.get("frames_sent", 0) for c in counters)
        stats["bytes_out"] = sum(c.get("bytes_out", 0) for c in counters)
        stats["encode_cache_hits"] = sum(c.get("encode_cache_hits", 0)
                                         for c in counters)
        stats["oversize_drops"] = sum(c.get("oversize_drops", 0)
                                      for c in counters)
    return stats


def _fold(samples):
    """Median-combine repeated runs of _result_stats."""
    out = dict(samples[0])
    for key in ("elapsed_s", "throughput_msgs_per_s", "formation_s",
                "leave_change_s", "measure_s"):
        if key in out:
            out[key] = _median([s.get(key) for s in samples])
    for key in ("datagrams_sent", "frames_sent", "bytes_out",
                "encode_cache_hits", "total_delivered"):
        if key in out:
            out[key] = int(_median([s.get(key) for s in samples]))
    out["ok"] = all(s["ok"] for s in samples)
    out["violations"] = max(s["violations"] for s in samples)
    return out


# ----------------------------------------------------------------------
# rate-limited family (net vs sim)
# ----------------------------------------------------------------------
def run_bench(nodes=5, casts=40, seed=1, repeat=3, cast_gap=0.01):
    workload = NetWorkload(n=nodes, casts_per_node=casts, cast_gap=cast_gap,
                           leaver=nodes - 1, deadline=12.0)
    net_samples, sim_samples = [], []
    for k in range(repeat):
        net = run_net_workload(workload, seed=seed + k,
                               config={"byzantine": True, "crypto": "sym"},
                               keep_artifacts="never")
        net_samples.append(_result_stats(net, workload))
        print("net run %d: ok=%s %.2f s wall, %s msg/s" %
              (k, net_samples[-1]["ok"], net_samples[-1]["elapsed_s"],
               "%.0f" % net_samples[-1]["throughput_msgs_per_s"]
               if net_samples[-1]["throughput_msgs_per_s"] else "?"),
              flush=True)
        sim = run_sim_workload(workload, seed=seed + k)
        sim_samples.append(_result_stats(sim, workload))
        print("sim run %d: ok=%s %.2f s simulated" %
              (k, sim_samples[-1]["ok"], sim_samples[-1]["elapsed_s"]),
              flush=True)
    net_stats, sim_stats = _fold(net_samples), _fold(sim_samples)
    ratio = {}
    for key in ("throughput_msgs_per_s", "formation_s", "leave_change_s"):
        a, b = net_stats.get(key), sim_stats.get(key)
        ratio[key] = (a / b) if a and b else None
    return {
        "workload": workload.to_jsonable(),
        "repeat": repeat,
        "seed": seed,
        "net": net_stats,
        "sim": sim_stats,
        "net_over_sim": ratio,
    }


# ----------------------------------------------------------------------
# saturation family (net only, cast_gap=0)
# ----------------------------------------------------------------------
def run_saturation_point(nodes, payload, casts, seed=1, repeat=2,
                         coalesce=True):
    """One saturation point: the whole burst at view formation."""
    workload = NetWorkload(n=nodes, casts_per_node=casts, cast_gap=0.0,
                           payload_bytes=payload, leaver=None,
                           deadline=25.0, linger=0.3)
    config = {"byzantine": True, "crypto": "sym", "wire_coalesce": coalesce}
    samples = []
    for k in range(repeat):
        net = run_net_workload(workload, seed=seed + k, config=config,
                               keep_artifacts="never")
        samples.append(_result_stats(net, workload))
    stats = _fold(samples)
    point = {
        "nodes": nodes,
        "payload_bytes": payload,
        "casts_per_node": casts,
        "coalesce": coalesce,
        "ok": stats["ok"],
        "violations": stats["violations"],
        "msgs_per_s": stats["throughput_msgs_per_s"],
        "measure_s": stats["measure_s"],
        "datagrams_sent": stats["datagrams_sent"],
        "frames_sent": stats["frames_sent"],
        "bytes_out": stats["bytes_out"],
        "encode_cache_hits": stats["encode_cache_hits"],
        "total_delivered": stats["total_delivered"],
    }
    if stats["measure_s"]:
        point["datagrams_per_s"] = stats["datagrams_sent"] / stats["measure_s"]
    if stats["total_delivered"]:
        point["bytes_per_msg"] = stats["bytes_out"] / stats["total_delivered"]
    if stats["datagrams_sent"]:
        point["frames_per_datagram"] = (stats["frames_sent"]
                                        / stats["datagrams_sent"])
    print("saturate n=%d payload=%d coalesce=%s: ok=%s %s msg/s, "
          "%d datagrams (%.1f frames/datagram)" %
          (nodes, payload, coalesce, point["ok"],
           "%.0f" % point["msgs_per_s"] if point["msgs_per_s"] else "?",
           point["datagrams_sent"], point.get("frames_per_datagram", 0.0)),
          flush=True)
    return point


def run_saturation(grid, seed=1, repeat=2, before=True):
    """The saturation suite, with the headline before/after comparison."""
    points = [run_saturation_point(n, payload, casts, seed=seed,
                                   repeat=repeat)
              for n, payload, casts in grid]
    suite = {"grid": [list(g) for g in grid], "repeat": repeat,
             "points": points}
    headline = next((p for p in points
                     if (p["nodes"], p["payload_bytes"]) == HEADLINE), None)
    if before and headline is not None:
        casts = headline["casts_per_node"]
        off = run_saturation_point(HEADLINE[0], HEADLINE[1], casts,
                                   seed=seed, repeat=repeat, coalesce=False)
        suite["before_headline"] = off
        if off["msgs_per_s"] and headline["msgs_per_s"]:
            suite["improvement"] = {
                "msgs_per_s_x": headline["msgs_per_s"] / off["msgs_per_s"],
                "datagram_reduction": 1.0 - (headline["datagrams_sent"]
                                             / off["datagrams_sent"]),
            }
    return suite


# ----------------------------------------------------------------------
# baseline comparison (CI net-smoke gate; perf-smoke rules mirrored)
# ----------------------------------------------------------------------
def _gatable_points(doc):
    """``{key: (rate, measure_s)}`` throughput points of one result doc."""
    points = {}
    rate_limited = doc.get("rate_limited")
    if rate_limited:
        net = rate_limited["net"]
        if net.get("throughput_msgs_per_s"):
            points["rate_limited"] = (net["throughput_msgs_per_s"],
                                      net.get("measure_s") or 0.0)
    saturation = doc.get("saturation")
    if saturation:
        for p in saturation["points"]:
            if p.get("msgs_per_s"):
                key = "saturate:n=%d:payload=%d" % (p["nodes"],
                                                    p["payload_bytes"])
                points[key] = (p["msgs_per_s"], p.get("measure_s") or 0.0)
    return points


def check_against(current, baseline_doc, tolerance):
    """Compare normalized msgs/s; returns a list of regression strings.

    Normalization: ``rate * calib_s`` on each side, the same
    host-speed-independent comparison the perf-smoke gate uses.  Points
    with a sub-``MIN_GATED_WALL_S`` measure window on either side are
    skipped (too noisy to gate).  Baseline points absent from the
    current run (or vice versa) are ignored, so grid changes do not
    break CI -- refresh the baseline alongside.
    """
    if baseline_doc.get("schema", 1) < 2:
        print("net check: baseline has no schema-2 sections; nothing gated")
        return []
    base_calib = baseline_doc.get("calib_s") or 1.0
    cur_calib = current.get("calib_s") or 1.0
    base_points = _gatable_points(baseline_doc)
    regressions = []
    for key, (rate, measure_s) in sorted(_gatable_points(current).items()):
        ref = base_points.get(key)
        if ref is None:
            continue
        base_rate, base_measure_s = ref
        if measure_s < MIN_GATED_WALL_S or base_measure_s < MIN_GATED_WALL_S:
            print("net check: skipping %s (sub-%.1fs measure window, too "
                  "noisy to gate)" % (key, MIN_GATED_WALL_S))
            continue
        cur_norm = rate * cur_calib
        base_norm = base_rate * base_calib
        if cur_norm < base_norm * (1.0 - tolerance):
            regressions.append(
                "%s: %.0f msg/s (norm %.1f) vs baseline %.0f msg/s "
                "(norm %.1f): regressed more than %.0f%%"
                % (key, rate, cur_norm, base_rate, base_norm,
                   tolerance * 100))
        else:
            print("net check: %s ok (%.0f msg/s, norm %.1f vs %.1f)"
                  % (key, rate, cur_norm, base_norm))
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, default=5)
    parser.add_argument("--casts", type=int, default=40,
                        help="multicasts per node once the view forms")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="one repeat, fewer casts / headline-only "
                             "saturation grid (CI smoke)")
    parser.add_argument("--saturate", action="store_true",
                        help="run the cast_gap=0 saturation suite instead "
                             "of the rate-limited net-vs-sim comparison")
    parser.add_argument("--no-before", action="store_true",
                        help="skip the coalescing-off before run of the "
                             "saturation headline point")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON result here")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="fail if normalized msgs/s regressed vs this "
                             "baseline JSON (schema 2)")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args(argv)
    repeat = 1 if args.quick else args.repeat

    calib = calibrate()
    print("calibration loop: %.3fs" % calib, flush=True)
    result = {"schema": 2, "seed": args.seed,
              "python": "%d.%d.%d" % sys.version_info[:3],
              "calib_s": round(calib, 4)}
    ok = True
    if args.saturate:
        grid = QUICK_SATURATION_GRID if args.quick else SATURATION_GRID
        suite = run_saturation(grid, seed=args.seed,
                               repeat=1 if args.quick else 2,
                               before=not args.no_before)
        result["saturation"] = suite
        print("\n%-28s %10s %12s %10s %10s %6s"
              % ("point", "msg/s", "datagrams/s", "frames/dg", "B/msg",
                 "viol"))
        rows = list(suite["points"])
        if "before_headline" in suite:
            rows.append(suite["before_headline"])
        for p in rows:
            name = "n=%d payload=%dB%s" % (
                p["nodes"], p["payload_bytes"],
                "" if p["coalesce"] else " (no coalesce)")
            print("%-28s %10s %12s %10s %10s %6d"
                  % (name,
                     "%.0f" % p["msgs_per_s"] if p["msgs_per_s"] else "-",
                     "%.0f" % p["datagrams_per_s"]
                     if p.get("datagrams_per_s") else "-",
                     "%.1f" % p.get("frames_per_datagram", 0.0),
                     "%.0f" % p.get("bytes_per_msg", 0.0),
                     p["violations"]))
            # gate on node success only: overload churn makes the
            # violation count flaky by design (see module docstring)
            ok = ok and p["ok"]
        if "improvement" in suite:
            imp = suite["improvement"]
            print("\nheadline n=%d payload=%dB vs coalescing off: "
                  "%.2fx msg/s, %.0f%% fewer datagrams"
                  % (HEADLINE[0], HEADLINE[1], imp["msgs_per_s_x"],
                     imp["datagram_reduction"] * 100))
    else:
        casts = min(args.casts, 10) if args.quick else args.casts
        rate_limited = run_bench(nodes=args.nodes, casts=casts,
                                 seed=args.seed, repeat=repeat)
        result["rate_limited"] = rate_limited
        net, sim = rate_limited["net"], rate_limited["sim"]
        print("\n%-24s %12s %12s" % ("", "net (wall)", "sim (model)"))
        for key in ("throughput_msgs_per_s", "formation_s", "leave_change_s"):
            print("%-24s %12s %12s"
                  % (key,
                     "%.3f" % net[key] if net[key] is not None else "-",
                     "%.3f" % sim[key] if sim[key] is not None else "-"))
        print("%-24s %12s %12s" % ("ok / violations",
                                   "%s/%d" % (net["ok"], net["violations"]),
                                   "%s/%d" % (sim["ok"], sim["violations"])))
        ok = (net["ok"] and sim["ok"]
              and net["violations"] == 0 and sim["violations"] == 0)

    if args.check_against:
        with open(args.check_against) as handle:
            baseline = json.load(handle)
        regressions = check_against(result, baseline, args.tolerance)
        for line in regressions:
            print("NET PERF REGRESSION: %s" % line)
        if regressions:
            ok = False
        elif not _gatable_points(result):
            print("net check: no gatable points in this run")

    if args.out:
        # merge: a saturation-only or rate-limited-only run refreshes its
        # own section of an existing schema-2 baseline
        doc = result
        if os.path.exists(args.out):
            with open(args.out) as handle:
                try:
                    existing = json.load(handle)
                except ValueError:
                    existing = {}
            if existing.get("schema") == 2:
                existing.update(result)
                doc = existing
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
        print("\nwrote %s" % args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
