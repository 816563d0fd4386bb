"""Command lines: the driver's ``bench.py`` and ``python -m
benchmarks.ledger {run,compare}``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from benchmarks.ledger import SCHEMA, spec
from benchmarks.ledger.compare import compare_files
from benchmarks.ledger.measure import quartiles

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench.py")
#: a child that has not finished by then is killed (the driver's own cap)
CHILD_TIMEOUT_S = 180


# ----------------------------------------------------------------------
# bench.py: one workload, one run, the driver's output contract
# ----------------------------------------------------------------------
def bench_main(argv):
    parser = argparse.ArgumentParser(prog="bench.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", default=None, metavar="PATH",
                        help="also write the full result document here")
    args = parser.parse_args(argv)
    try:
        from benchmarks.ledger import ledger, runner
    except ImportError as err:
        print("benchmarks.ledger: the program under test is not importable "
              "(%s); run from a checkout that has src/" % err,
              file=sys.stderr)
        return 2
    result = runner.run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    spans = result.pop("spans", None)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(result, handle, indent=1, default=repr)
        if spans:
            with open(args.detail + ".spans", "w") as handle:
                json.dump({"columns": ["row", "start_ns", "end_ns", "parent"],
                           "spans": spans}, handle)
    if not result["correct"]:
        print("benchmarks.ledger: %s seed %d FAILED its output oracle "
              "(%d violations, %d of %d operations undelivered); first:"
              % (args.workload, args.seed, result["violation_count"],
                 result["failed"], result["attempted"]), file=sys.stderr)
        for violation in result["violations"]:
            print("  " + str(violation), file=sys.stderr)
    if args.trace:
        values = ledger.complete(result["per_layer"]["rows"])
        units = spec.LAYER_UNITS
    else:
        values = result["end_to_end"]
        units = spec.E2E_UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# run: every workload untraced, then traced, in fresh interpreters
# ----------------------------------------------------------------------
def run_child(workload, seed, seconds, trace, detail):
    """One ``bench.py`` run in its own interpreter, so its peak RSS and
    CPU time are its own.  Returns the result document the child wrote
    -- this child, this request: an earlier run's file of the same name
    is removed first, and a child that crashed is an error."""
    cmd = [sys.executable, BENCH, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--detail", detail]
    if os.path.exists(detail):
        os.remove(detail)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    # 0: result; 1: result whose output oracle failed; anything else died
    if proc.returncode not in (0, 1) or not os.path.exists(detail):
        raise RuntimeError("%s exited %d without a result"
                           % (" ".join(cmd), proc.returncode))
    with open(detail) as handle:
        document = json.load(handle)
    asked = (workload, seed, bool(trace))
    got = (document.get("workload"), document.get("seed"),
           document.get("traced"))
    if got != asked:
        raise RuntimeError("%s holds the result of %r, not of %r"
                           % (detail, got, asked))
    return document


def exact_rows(workload, rows):
    """Per-layer rows that repeat exactly: counts from a simulated run.
    Only those may ever back a count-based claim."""
    if spec.backend(workload) != "sim":
        return []
    return sorted(name for name in rows
                  if name in spec.LAYER_UNITS
                  and name not in spec.HOST_TIMED
                  and not name.startswith("loadgen."))


def print_workload(name, runs, traced):
    print("\n== %s (%s) ==" % (name, spec.backend(name)))
    first = runs[0]
    print("  oracle %s   attempted %d   failed %d   latency samples %d "
          "(supports p%g)   episodes/run %d   runs %d"
          % ("ok" if all(r["correct"] for r in runs) else "VIOLATED",
             first["attempted"], first["failed"], first["samples"],
             first["supported_percentile"], first["episodes"], len(runs)))
    for metric, unit, better, bound in spec.END_TO_END:
        q1, q2, q3 = quartiles([r["end_to_end"][metric] for r in runs])
        print("  %-28s %14.6g %-12s [q1 %.6g  q3 %.6g]  %s is better, "
              "bound %g" % (metric, q2, unit, q1, q3, better, bound))
    print("  -- diagnostics (untraced, first run) --")
    for metric, value in sorted(first["diagnostics"].items()):
        print("  %-45s %14.6g %s" % (metric, value,
                                     spec.LAYER_UNITS[metric]))
    rows = traced["per_layer"]["rows"]
    exact = set(exact_rows(name, rows))
    print("  -- per-layer ledger (traced run: %d casts over %.4g s; rows "
          "at zero omitted) --" % (traced["per_layer"]["delivered"],
                                   traced["per_layer"]["window_s"]))
    for metric in sorted(rows):
        if (metric in first["diagnostics"] or not rows[metric]
                or metric not in spec.LAYER_UNITS):
            continue
        print("  %-45s %14.6g %-6s%s" % (
            metric, rows[metric], spec.LAYER_UNITS[metric],
            "  exact" if metric in exact else ""))
    shares = sorted(traced["per_layer"]["shares"].items(),
                    key=lambda item: -item[1])
    print("  self-time shares: " + "  ".join(
        "%s %.1f%%" % (row, 100 * share) for row, share in shares[:8]))


def cmd_run(args):
    names = args.workload or spec.WORKLOADS
    os.makedirs(args.out, exist_ok=True)
    document = {
        "schema": SCHEMA, "claim": None, "seed": args.seed,
        "seconds": args.seconds, "repeats": args.repeats,
        "seed_step": args.seed_step,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "note": "udp_* traffic crossed this host's loopback interface, "
                "not a link",
        "workloads": {},
    }
    failed = False
    started = time.perf_counter()
    for name in names:
        runs = []
        for repeat in range(args.repeats):
            seed = args.seed + repeat * args.seed_step
            detail = os.path.join(args.out, "%s.seed%d.r%d.json"
                                  % (name, seed, repeat))
            runs.append(run_child(name, seed, args.seconds, 0, detail))
        if args.seed_step == 0 and spec.backend(name) == "sim":
            # same seed, same simulated execution -- bit for bit
            digests = {tuple(run["digests"]) for run in runs}
            if len(digests) != 1:
                raise AssertionError("%s: simulated results differ between "
                                     "repeats of seed %d" % (name, args.seed))
        traced = run_child(name, args.seed, args.seconds, 1,
                           os.path.join(args.out, name + ".traced.json"))
        traced["per_layer"]["exact"] = exact_rows(
            name, traced["per_layer"]["rows"])
        print_workload(name, runs, traced)
        failed = (failed or not traced["correct"]
                  or not all(run["correct"] for run in runs))
        document["workloads"][name] = {"runs": runs, "traced": traced}
    document["elapsed_s"] = time.perf_counter() - started
    path = os.path.join(args.out, "ledger.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print("\nwrote %s (%.0f s)" % (path, document["elapsed_s"]))
    if failed:
        print("an output oracle FAILED; see above", file=sys.stderr)
    return 1 if failed else 0


def cmd_probe(args):
    """Run a recorded-not-gated scenario in this process and print its
    verdict and plan as JSON."""
    from benchmarks.ledger import runner
    result = runner.run_probe(args.probe, args.seed)
    print(json.dumps({key: result[key] for key in (
        "workload", "seed", "correct", "attempted", "failed",
        "violation_count", "violations", "end_to_end", "diagnostics",
        "plan")}, indent=1, default=repr))
    return 0


# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="The repo's benchmark front door (see README.md).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads untraced, then traced; "
                         "print every metric; write one JSON")
    run.add_argument("--workload", action="append",
                     choices=spec.WORKLOADS,
                     help="only this workload (repeatable; default all)")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    run.add_argument("--repeats", type=int, default=1,
                     help="untraced runs per workload")
    run.add_argument("--seed-step", type=int, default=0,
                     help="repeat r uses seed + r*STEP (0: same seed, "
                     "simulated results asserted identical)")
    run.add_argument("--out", default="ledger_out", metavar="DIR")
    run.add_argument("--probe", default=None, choices=("churn_order_n12",),
                     help="instead: run this known-bad scenario once, "
                     "print verdict + plan (recorded, never gated)")

    compare = sub.add_parser("compare", help="A.json B.json: per workload "
                             "and end-to-end metric, worse / unchanged / "
                             "unresolved against the bounds")
    compare.add_argument("a")
    compare.add_argument("b")

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.a, args.b)
    if args.probe:
        return cmd_probe(args)
    return cmd_run(args)
