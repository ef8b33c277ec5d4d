"""Entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run it from the root of a checkout; see README.md beside this file.
"""

import os
import sys

# Import the benchmark as the ``perfbench`` package, not its files as
# top-level modules.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench.main import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
