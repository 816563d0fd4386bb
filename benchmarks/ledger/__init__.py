"""benchmarks.ledger -- the repo's one benchmark front door.

Eight seeded workloads, end-to-end metrics measured from endpoint
callbacks and clocks the benchmark reads itself, and a per-layer cost
ledger recorded from benchmark files around the calls into each layer.
See README.md in this directory; the contract with the driver is
``BENCHMARK.json`` at the repo root.

The package imports only ``repro.*`` and the standard library.
"""

#: version of the JSON documents ``run`` writes and ``compare`` reads
SCHEMA = 1
