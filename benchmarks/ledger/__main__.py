"""``PYTHONPATH=src python -m benchmarks.ledger {run,compare}``."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:      # PYTHONPATH=src is the documented way; a
    sys.path.insert(0, SRC)  # bare checkout works too

if __name__ == "__main__":
    from benchmarks.ledger.cli import main
    sys.exit(main())
