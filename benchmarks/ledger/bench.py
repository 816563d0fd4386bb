"""Driver entry point (the ``command`` of BENCHMARK.json).

    python3 benchmarks/ledger/bench.py --workload W --seed N \
        --seconds S --trace 0|1

Runs one workload once and prints, as the last line of standard output,
one JSON object with exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  Exits non-zero without a
result when the program under test is not importable or an output
oracle fails.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)


if __name__ == "__main__":
    from benchmarks.ledger.cli import bench_main
    sys.exit(bench_main(sys.argv[1:]))
