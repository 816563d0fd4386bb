"""What the benchmark measures, read from the one place that defines it.

``BENCHMARK.json`` at the root of the checkout is the single source of
workload names, metric names, units, directions and bounds; this module
only indexes it.  Why each workload exists is in that file's ``why``;
which end-to-end metric each per-layer row should move, and where, cannot
live in its fixed keys and is the interaction table of README.md.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

#: seconds one driver run measures (``--seconds``)
RUN_SECONDS = CONTRACT["run_seconds"]

WORKLOADS = tuple(w["name"] for w in CONTRACT["workloads"])

#: (name, unit, better, bound)
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"])
                   for m in CONTRACT["end_to_end"])
E2E_BOUNDS = {name: (better, bound) for name, _u, better, bound in END_TO_END}
E2E_UNITS = {name: unit for name, unit, _b, _bd in END_TO_END}
LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}

#: the stack layers that have a self-time row, bottom to top
STACK_LAYERS = tuple(name.split(".")[1] for name in LAYER_UNITS
                     if name.startswith("layers.")
                     and name.endswith(".self_us_per_cast"))

#: per-layer metrics that are host timings; every other per-layer value
#: measured on a simulator workload repeats exactly (``exact: true``)
HOST_TIMED = frozenset(
    name for name in LAYER_UNITS
    if "_us_" in name or name.startswith(("host.", "trace.")))


def backend(workload):
    """``"udp"`` for the real-socket workloads, ``"sim"`` for the rest."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    return "udp" if workload.startswith("udp_") else "sim"
