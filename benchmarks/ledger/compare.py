"""``compare A.json B.json``: did anything get worse?

For every workload row and end-to-end metric: each side's median and
quartiles over its runs, the ratio B/A with its base, and a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- it is not, but a side's own run-to-run spread
  (interquartile distance over median) is wider than the bound, so
  "no regression" cannot be told from noise;
* ``unchanged``  -- neither.

``failed_share`` (operations not delivered, or all of them on an oracle
violation, over operations attempted) has a bound of 0 absolute: the row
is ``worse`` whenever B's median exceeds A's -- a change that drops casts
must not pass because the casts it kept got cheaper.

There is no ``better``: a gain is claimed under the rules in README.md,
never read off this table.  Simulated digests and the traced run's exact
counts are compared for identity when both files used the same seed and
run length.  Exit status is non-zero when any cell is ``worse``.
"""

from __future__ import annotations

import json

from benchmarks.ledger import SCHEMA, spec
from benchmarks.ledger.measure import median, quartiles

#: tails demoted from end-to-end (README): exact on sim, noisy on UDP
DIAGNOSTICS = ("loadgen.cast_deliver_p95_ms", "loadgen.cast_deliver_p99_ms",
               "loadgen.service_gap_ms")


def load(path):
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise SystemExit("%s: schema %r, this tool reads schema %d"
                         % (path, document.get("schema"), SCHEMA))
    return document


def verdict(metric, a_values, b_values):
    """``(verdict, ratio, (q1, med, q3) of A, (q1, med, q3) of B)``."""
    better, bound = spec.E2E_BOUNDS[metric]
    a, b = quartiles(a_values), quartiles(b_values)
    base = a[1]
    ratio = b[1] / base if base else float("nan")
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if worsening > bound:
        return "worse", ratio, a, b
    spreads = [(q3 - q1) / med if med else 0.0 for q1, med, q3 in (a, b)]
    if max(spreads) > bound:
        return "unresolved", ratio, a, b
    return "unchanged", ratio, a, b


def failed_verdict(a_runs, b_runs):
    """``(verdict, A's median failed share, B's)``; the bound is 0."""
    def share(runs):
        return median([run["failed"] / run["attempted"]
                       if run["attempted"] else 1.0 for run in runs])

    a, b = share(a_runs), share(b_runs)
    return ("worse" if b > a else "unchanged"), a, b


def compare_files(path_a, path_b):
    doc_a, doc_b = load(path_a), load(path_b)
    same_inputs = all(doc_a.get(key) == doc_b.get(key)
                      for key in ("seed", "seconds", "seed_step"))
    tally = {"worse": 0, "unchanged": 0, "unresolved": 0}
    for name in spec.WORKLOADS:
        side_a = doc_a["workloads"].get(name)
        side_b = doc_b["workloads"].get(name)
        if side_a is None or side_b is None:
            continue
        print("\n== %s ==" % name)
        for metric, unit, _better, bound in spec.END_TO_END:
            outcome, ratio, a, b = verdict(
                metric,
                [run["end_to_end"][metric] for run in side_a["runs"]],
                [run["end_to_end"][metric] for run in side_b["runs"]])
            tally[outcome] += 1
            print("  %-22s A %.6g [%.6g..%.6g]  B %.6g [%.6g..%.6g] %s  "
                  "B/A %.4f (base %.6g)  bound %g  %s"
                  % (metric, a[1], a[0], a[2], b[1], b[0], b[2], unit,
                     ratio, a[1], bound, outcome.upper()
                     if outcome == "worse" else outcome))
        outcome, a, b = failed_verdict(side_a["runs"], side_b["runs"])
        tally[outcome] += 1
        print("  %-22s A %.6g  B %.6g ratio  bound 0 absolute  %s"
              % ("failed_share", a, b,
                 outcome.upper() if outcome == "worse" else outcome))
        for metric in DIAGNOSTICS:     # shown, never judged
            print("  %-30s A %.6g  B %.6g %s  (diagnostic)" % (
                metric,
                median([r["diagnostics"][metric] for r in side_a["runs"]]),
                median([r["diagnostics"][metric] for r in side_b["runs"]]),
                spec.LAYER_UNITS[metric]))
        if same_inputs and spec.backend(name) == "sim":
            print("  simulated results: %s" % (
                "identical" if [run["digests"] for run in side_a["runs"]]
                == [run["digests"] for run in side_b["runs"]]
                else "DIFFER"))
            traced_a, traced_b = side_a.get("traced"), side_b.get("traced")
            if traced_a and traced_b:
                rows_a = traced_a["per_layer"]["rows"]
                rows_b = traced_b["per_layer"]["rows"]
                exact = traced_a["per_layer"].get("exact", [])
                moved = [row for row in exact
                         if rows_a.get(row) != rows_b.get(row)]
                print("  exact counts: %d of %d identical%s" % (
                    len(exact) - len(moved), len(exact),
                    "".join("\n    %s: %r -> %r"
                            % (row, rows_a.get(row), rows_b.get(row))
                            for row in moved)))
    print("\n%(worse)d worse, %(unchanged)d unchanged, "
          "%(unresolved)d unresolved" % tally)
    return 1 if tally["worse"] else 0
