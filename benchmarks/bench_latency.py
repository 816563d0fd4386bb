"""Failure-free ordering latency: the optimistic fast path vs classic.

Measures cast->deliver latency (p50/p99, *simulated* milliseconds) and
ordering decides/s for the totally-ordered SymCrypto stack with the
2-step fast path on vs off, at n = 8/16/32, under the open-loop
moderate-load workload of ``harness.ordering_latency`` -- the regime the
fast path targets: enough concurrent casts that the classic (tick-gated,
one-instance-at-a-time) path queues, few enough that the pipelined fast
path absorbs the rate.  A fig6-style closed-loop ring sweep rides along
so the classic latency ladder stays tracked by the same artifact.

Simulated latencies are deterministic per (seed, n, interval) and
host-independent; wall-clock events/s is also recorded per point and
compared with the same calibration-normalized ``--check-against``
machinery as ``bench_wallclock.py`` (sub-0.1 s wall points ungated).

The gate divides events by wall, so it is only meaningful between two
trees that fire the same events.  The demand-armed ordering tick (CHANGES
PR 15) removed the no-op ``_tick`` of *idle* members; every member of
these workloads is busy for the whole window, so the ``+Total`` points
kept their event counts (identical at n=8 and n=16, 169 and 8 events of
~400k fewer at n=32) and events/s stays comparable across that commit
here -- unlike ``bench_shards.py``'s ``migration`` point.
``BENCH_latency.json`` was re-recorded at that commit for the exact
counts.

The quiescent control plane (CHANGES PR 17) is different: a loaded member
sends no heartbeat any more, so every point lost events (``+Total`` -3.7 /
-3.9 / -5.9 % at n=8/16/32, ``+Total+Fast`` -1.3 / -5.1 / -4.8 %, the fig6
ring points -0.3 to -3.7 %) and the simulated latencies moved with them
(classic p50 1.34 / 2.25 / 4.77 -> 1.37 / 2.10 / 4.57 ms, fast 1.13 / 2.11
/ 6.24 -> 1.12 / 2.02 / 6.04).  **events/s is not comparable across that
commit**; ``BENCH_latency.json`` was re-recorded there, and a baseline
from one side must not gate a tree from the other.

Cast-opened ordering (CHANGES PR 20) moves only the three classic
``SymCrypto+Total`` rows, and only a little, because every member of this
load is busy and a busy member's cast still waits for the tick: events
+2.1 / -0.3 / +0.1 % at n=8/16/32, simulated p50 1.365 / 2.098 / 4.569 ->
1.339 / 2.049 / 4.477 ms (p99 at n=32 7.96 -> 8.59).  The ``+Fast`` rows and
every fig6 row, ``ByzEns+NoCrypto+Total`` at 2.000 ms included, kept their
simulated results and event counts exactly.  Calibration-normalized
events/s on the three rows read 0.97 / 1.01 / 1.00 x the parent's back to
back, so **events/s stays comparable across that commit**: their
``events_per_s`` baseline was kept, ``wall_s`` restated as events over it,
and only the simulated fields and ``events`` re-recorded.

The light-member tick sleep (CHANGES, "light members order at arrival": a
member whose last cast came a tick or more after the one before puts its
ordering tick to sleep at the decide that empties it) moves the classic rows where this load leaves
a member a gap of a tick or more between casts (four casters 1.1 ms
apart, then the rest of the interval: 2.0 ms at n=16, 6.0 ms at n=32):
p50 2.049 / 4.477 -> 2.040 / 4.339 ms, events +1.1 / +5.6 % at n=16/32;
at n=8 only ``mean_ms`` moved (1.3721 -> 1.3714).  The ``+Fast`` rows
lost 8 and 65 no-op ticks at n=16/32 and kept every latency; every fig6
row, ``ByzEns+NoCrypto+Total`` at 2.000 ms included, kept its simulated
results and event count exactly (a round's casts reach a member 14.9 us
apart: always busy).  Calibration-normalized events/s on the moved rows
read 1.01-1.10 x the parent's back to back, so **events/s stays
comparable across that commit**; those rows kept their ``events_per_s``
baseline, as under cast-opened ordering.  The fast-vs-classic margin at n=16 is now
1.007x (2.040 vs 2.025 ms).

Usage::

    python benchmarks/bench_latency.py [--quick] [--out PATH]
        [--repeat N] [--speedup-check RATIO]
        [--check-against BASELINE.json [--tolerance 0.30]] [--tag NAME]

``--speedup-check RATIO`` exits non-zero unless fast-path-on p50 beats
fast-path-off by at least RATIO at every measured n >= 16 (CI uses 1.0 on
the quick grid: since the classic engine announces ``dec`` on demand the
margin at n=16 is thin -- 1.07x then, 1.04x since the quiescent control
plane, 1.01x since cast-opened ordering -- and at n=32 classic is ahead).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_wallclock import _best_of, calibrate, check_against
from benchmarks.harness import FIG6_CONFIGS, ordering_latency, ring_latency
from repro import StackConfig

FULL_NS = (8, 16, 32)
QUICK_NS = (8, 16)
#: the ring sweep reuses the fig6 lines at a reduced size grid
RING_NS = (8, 16)

FASTPATH_CONFIGS = {
    "SymCrypto+Total": lambda: StackConfig.byz(crypto="sym",
                                               total_order=True),
    "SymCrypto+Total+Fast": lambda: StackConfig.byz(
        crypto="sym", total_order=True, ordering_fast_path=True),
}


def run_fastpath(sizes, seed=7, repeat=1):
    points = []
    for label, build in FASTPATH_CONFIGS.items():
        for n in sizes:
            def one_run():
                start = time.perf_counter()
                result = ordering_latency(build(), n, seed=seed)
                return time.perf_counter() - start, result
            wall, result = _best_of(repeat, one_run)
            point = {
                "workload": "fastpath",
                "label": label,
                "n": n,
                "wall_s": round(wall, 4),
                "events": result["events"],
                "events_per_s": round(result["events"] / wall, 1),
                "p50_ms": round(result["p50_ms"], 4),
                "p99_ms": round(result["p99_ms"], 4),
                "mean_ms": round(result["mean_ms"], 4),
                "delivered": result["delivered"],
                "decides_per_s": round(result["decides_per_s"], 1),
                "fast_decides": result["fast_decides"],
                "fast_fallbacks": result["fast_fallbacks"],
            }
            points.append(point)
            print("fastpath %-22s n=%-3d p50 %7.3f ms  p99 %7.3f ms  "
                  "%6.0f decides/s  %4d delivered  (%.2fs wall)"
                  % (label, n, point["p50_ms"], point["p99_ms"],
                     point["decides_per_s"], point["delivered"], wall),
                  flush=True)
    return points


def run_ring(sizes, seed=7, repeat=1):
    points = []
    for label in sorted(FIG6_CONFIGS):
        for n in sizes:
            def one_run():
                start = time.perf_counter()
                result = ring_latency(FIG6_CONFIGS[label](), n, seed=seed)
                return time.perf_counter() - start, result
            wall, result = _best_of(repeat, one_run)
            point = {
                "workload": "fig6",
                "label": label,
                "n": n,
                "wall_s": round(wall, 4),
                "events": result["events"],
                "events_per_s": round(result["events"] / wall, 1),
                "latency_ms": round(result["latency_ms"], 4),
                "p99_ms": round(result["p99_ms"], 4),
            }
            points.append(point)
            print("fig6     %-22s n=%-3d mean %6.3f ms  p99 %7.3f ms"
                  % (label, n, point["latency_ms"], point["p99_ms"]),
                  flush=True)
    return points


def run_suite(quick=False, seed=7, repeat=1):
    sizes = QUICK_NS if quick else FULL_NS
    calib = min(calibrate() for _ in range(repeat))
    print("calibration loop: %.3fs" % calib, flush=True)
    points = run_fastpath(sizes, seed=seed, repeat=repeat)
    points += run_ring(tuple(n for n in RING_NS if n in sizes) or RING_NS,
                       seed=seed, repeat=repeat)
    return {
        "quick": quick,
        "seed": seed,
        "repeat": repeat,
        "calib_s": round(calib, 4),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "workloads": points,
    }


def check_speedup(current, ratio, min_n=16):
    """The headline gate: fast-on p50 must beat fast-off by ``ratio``
    at every measured n >= ``min_n``.  Returns failure strings."""
    p50 = {(p["label"], p["n"]): p["p50_ms"]
           for p in current["workloads"] if p["workload"] == "fastpath"}
    failures = []
    checked = 0
    for (label, n), off_ms in sorted(p50.items()):
        if label != "SymCrypto+Total" or n < min_n:
            continue
        on_ms = p50.get(("SymCrypto+Total+Fast", n))
        if on_ms is None:
            continue
        checked += 1
        speedup = off_ms / on_ms if on_ms else float("inf")
        print("speedup n=%-3d off %7.3f ms / on %7.3f ms = %.2fx "
              "(need %.2fx)" % (n, off_ms, on_ms, speedup, ratio),
              flush=True)
        if speedup < ratio:
            failures.append("n=%d: %.2fx < required %.2fx"
                            % (n, speedup, ratio))
    if not checked:
        failures.append("no fastpath point pairs at n >= %d" % min_n)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="n=8,16 only (CI latency-smoke)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each point N times, keep the fastest "
                             "wall time (simulated results are identical)")
    parser.add_argument("--speedup-check", type=float, default=None,
                        metavar="RATIO",
                        help="fail unless fast-on p50 beats fast-off by "
                             "RATIO at every measured n >= 16")
    parser.add_argument("--out", default="BENCH_latency.json")
    parser.add_argument("--tag", default=None,
                        help="store the run under runs[TAG], merging with "
                             "an existing file instead of overwriting it")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="fail if normalized events/sec regressed vs "
                             "this baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    current = run_suite(quick=args.quick, seed=args.seed, repeat=args.repeat)

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

    if args.check_against:
        with open(args.check_against) as handle:
            baseline_doc = json.load(handle)
        regressions = check_against(current, baseline_doc, args.tolerance)
        if regressions:
            for line in regressions:
                print("PERF REGRESSION: %s" % line, file=sys.stderr)
            return 1
        print("perf check ok: no point regressed more than %.0f%% "
              "(normalized)" % (args.tolerance * 100))

    if args.speedup_check is not None:
        failures = check_speedup(current, args.speedup_check)
        if failures:
            for line in failures:
                print("FAST-PATH SPEEDUP FAILURE: %s" % line,
                      file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
