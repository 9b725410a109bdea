"""perfbench — the repo's two-clock, layer-attributed benchmark.

Six workloads drive the public entry points of ``src/repro`` and report
host-clock end-to-end metrics (what a user of the reproduction pays)
beside simulated-clock metrics (what the paper's claims rest on); a
second, traced run attributes the host time to layers by wrapping the
layers' public calls from this package only.  See ``README.md`` here.

    python3 -m perfbench --workload job_sweep --seed 7 --seconds 12 --trace 0
    python3 -m perfbench all --out perfbench/results/x.json
    python3 -m perfbench compare A.json B.json
"""

import os
import sys

# numpy sizes its BLAS/OpenMP pools when it is first imported, so the pin
# to one thread has to happen before anything below imports ``repro``:
# the box has two cores and the load generator must be one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ``BENCHMARK.json`` may not name ``src`` in its command, so the package
# makes the program importable itself (a no-op under ``PYTHONPATH=src``).
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
