"""One set-up sample, run in a fresh interpreter: import qpspec (which loads
numpy, scipy and BLAS) and write one workload's configs, then print the
seconds that took.

    python3 bench/setup_sample.py WORKLOAD SEED DIR
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qpspec.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - START)
