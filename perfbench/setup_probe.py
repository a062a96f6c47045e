"""Set-up probe: run in a fresh process by ``run.py``.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Makes the workload's first-cycle model configs (benchmark code) and
imports numpy before the clock starts, then times importing ``ncfisher``
with its CLI and building every model.  Numpy's own import is a fixed
cost of the dependency whose loader and disk noise would swamp the
package's share.  After the clock stops it runs the calibration kernel
three times in the same process and prints the set-up seconds and the
median kernel seconds, so the caller can scale the set-up time to the
reference host speed.
"""
import gc
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import numpy  # noqa: E402,F401

configs = inputs.model_configs(sys.argv[1], int(sys.argv[2]))
start = time.perf_counter()
import ncfisher  # noqa: E402
import ncfisher.cli  # noqa: E402,F401

models = [ncfisher.build_model(c) for c in configs]
setup = time.perf_counter() - start

import ops  # noqa: E402

gc.collect()
gc.disable()
kernels = []
for _ in range(3):
    t0 = time.perf_counter()
    ops.calibration_kernel()
    kernels.append(time.perf_counter() - t0)
print(setup, sorted(kernels)[1])
