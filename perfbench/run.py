"""The ncfisher benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload galerkin|words|cli --seed N \\
        --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the package under
``src/`` of that checkout and nothing installed elsewhere.  One client
issues ops back to back (a closed loop) from this process.  BLAS is
capped at one thread.

``--trace 0`` measures the end-to-end metrics.  It first times the
set-up (import the package and build the workload's models) in several
fresh processes (see ``setup_probe.py``), then runs whole cycles of the workload's op mix until
``--seconds`` have passed, within the cycle bounds that keep the tail
percentile fixed (see ``TAIL_PERCENTILE``).  A short fixed calibration
kernel runs between ops, after every 50 ms of op time.  Set-up time,
throughput and latencies are reported at a reference host speed: each op's time is
divided by the mean of the two kernel runs around it and multiplied by
``KERNEL_REF_S``.  The host this was built on switches between a fast
and a slow state (about 1.7x apart) for seconds at a time, which moves
raw latencies by 15-27% between runs; the raw figures are in the detail
line.

``--trace 1`` ignores ``--seconds`` and runs a fixed number of cycles
three times: untraced, with every layer wrapped (see ``tracing.py``),
and untraced again.  It reports the per-layer metrics of the traced pass
plus the tracing overhead.  Its counts repeat exactly for a seed.  Spans
are saved under ``.perfbench/`` in the checkout.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds details: the tail
percentile and its sample count, the error rate, per-kind medians,
counters and machine information.  Exit code 2 means the benchmark
could not run at all.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# the highest percentile with at least ten samples beyond it is reported;
# each workload runs enough whole cycles for its percentile and too few
# for the next one up, so the same percentile is reported on every run
LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_PERCENTILE = {"galerkin": 75, "words": 99, "cli": 75}
TRACE_CYCLES = {"galerkin": 1, "words": 50, "cli": 1}
SETUP_REPEATS = 11
CALIBRATE_EVERY_S = 0.05
# the calibration kernel's time on the reference host state; latencies
# in kernel units times this give the *_ref_* metrics
KERNEL_REF_S = 0.004


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail_percentile(n: int) -> float:
    best = None
    for p in LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def nearest_rank(sorted_values: list, p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def cycle_bounds(workload: str, cycle_len: int) -> tuple:
    """Fewest and most whole cycles that keep the tail percentile."""
    p = TAIL_PERCENTILE[workload]
    higher = LADDER[LADDER.index(p) + 1]
    min_ops = math.ceil(10 / (1 - p / 100))
    max_ops = math.ceil(10 / (1 - higher / 100)) - 1
    return math.ceil(min_ops / cycle_len), max_ops // cycle_len


def machine_info() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes (one warm-up first), each
    scaled to the reference host speed by a kernel run in that process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, kernel = map(float, proc.stdout.split())
        times.append(setup * KERNEL_REF_S / kernel)
    return statistics.median(times[1:])


class Runner:
    """Runs ops of one workload, times them and checks their outputs."""

    def __init__(self, workload: str, seed: int, tracer=None,
                 calibrate: bool = False):
        import inputs
        import ops

        self.inputs = inputs
        self.ops = ops
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.latencies: list = []
        self.by_kind: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.workdir = WORK / f"run-{os.getpid()}"
        # op latencies in calibration-kernel units: each stretch of ops
        # between two kernel runs is divided by the mean of those two runs,
        # which tracks the host's speed as it drifts during the run
        self.calibrate = calibrate
        self.calibration: list = []
        self.in_kernels: list = []
        self._stretch = 0.0
        if calibrate:
            self._calibrate()

    def _calibrate(self) -> None:
        # a clean heap and no collector passes inside the kernel, so its
        # time does not depend on what the previous ops left behind
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            self.ops.calibration_kernel()
            kernel = time.perf_counter() - start
        finally:
            gc.enable()
        if self.calibration:
            unit = 0.5 * (self.calibration[-1] + kernel)
            done = len(self.in_kernels)
            self.in_kernels.extend(t / unit for t in self.latencies[done:])
        self.calibration.append(kernel)
        self._stretch = 0.0

    def cycle(self, index: int) -> list:
        return self.inputs.CYCLES[self.workload](self.seed, index)

    def prepare(self, op: dict, model_paths: dict):
        if self.workload == "galerkin":
            return self.ops.prepare_galerkin(op)
        if self.workload == "words":
            return self.ops.prepare_words(op)
        return self.ops.prepare_cli(op, model_paths)

    def run_cycle(self, index: int) -> float:
        """Run one cycle; return its total op time in seconds."""
        ops = self.cycle(index)
        model_paths = {}
        if self.workload == "cli":
            self.workdir.mkdir(parents=True, exist_ok=True)
            model_paths = self.ops.write_models(
                ops[0]["models"], str(self.workdir), f"c{index}")
        total = 0.0
        tracer = self.tracer
        for op in ops:
            prepared = self.prepare(op, model_paths)
            error = None
            if tracer is not None:
                tracer.begin_op(self.attempted)
                tracer.enabled = True
            start = time.perf_counter()
            try:
                result = prepared.call()
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
                tracer.end_op(prepared.model)
            if error is None:
                try:
                    prepared.check(result)
                except Exception as exc:
                    error = exc
            self.attempted += 1
            total += elapsed
            self.latencies.append(elapsed)
            self.by_kind.setdefault(op["label"], []).append(elapsed)
            self._stretch += elapsed
            prepared = result = None
            if self.calibrate and self._stretch >= CALIBRATE_EVERY_S:
                self._calibrate()
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{op['label']}: {error!r}")
                    traceback.print_exception(error, file=sys.stderr)
        gc.collect()
        return total

    def finish(self) -> None:
        if self.calibrate and self._stretch:
            self._calibrate()
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_untraced(workload: str, seed: int, seconds: float) -> tuple:
    setup_s = measure_setup(workload, seed)
    runner = Runner(workload, seed, calibrate=True)
    cycle_len = len(runner.cycle(0))
    min_cycles, max_cycles = cycle_bounds(workload, cycle_len)
    cycles = 0
    op_time = 0.0
    started = time.perf_counter()
    try:
        while True:
            op_time += runner.run_cycle(cycles)
            cycles += 1
            elapsed = time.perf_counter() - started
            if cycles >= max_cycles or (cycles >= min_cycles
                                        and elapsed >= seconds):
                break
    finally:
        runner.finish()

    completed = runner.attempted - runner.failed
    raw = sorted(runner.latencies)
    ref = sorted(KERNEL_REF_S * k for k in runner.in_kernels)
    n = len(raw)
    tail_p = tail_percentile(n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_ref_s": (completed / math.fsum(ref), "1/s"),
        "op_p50_ref_ms": (1e3 * statistics.median(ref), "ms"),
        "op_tail_ref_ms": (1e3 * nearest_rank(ref, tail_p), "ms"),
        "run_norm": (math.fsum(runner.in_kernels) / cycles, "ratio"),
        "pass_rate": (completed / runner.attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "mode": "untraced",
        "cycles": cycles,
        "cycle_len": cycle_len,
        "tail": {"percentile": tail_p, "samples": n,
                 "beyond": n - math.ceil(tail_p * n / 100)},
        "error_rate": runner.failed / runner.attempted,
        "errors": runner.errors,
        "calibration_runs": len(runner.calibration),
        "calibration_ms": 1e3 * statistics.median(runner.calibration),
        "op_time_s": op_time,
        "ops_per_s": completed / op_time,
        "op_p50_ms": 1e3 * statistics.median(raw),
        "op_tail_ms": 1e3 * nearest_rank(raw, tail_p),
        "p50_ms_by_kind": {k: 1e3 * statistics.median(v)
                           for k, v in runner.by_kind.items()},
    }
    return runner, metrics, detail


def run_traced(workload: str, seed: int) -> tuple:
    """Untraced pass, traced pass, untraced pass over the same cycles; the
    overhead is the traced time minus the mean of the untraced ones."""
    import tracing

    cycles = TRACE_CYCLES[workload]
    tracer = tracing.Tracer()
    runners = [Runner(workload, seed), Runner(workload, seed, tracer),
               Runner(workload, seed)]
    times = []
    try:
        for runner in runners:
            if runner.tracer is not None:
                tracer.install()
            try:
                times.append(sum(runner.run_cycle(i) for i in range(cycles)))
            finally:
                tracer.uninstall()
    finally:
        for runner in runners:
            runner.finish()
    traced_s = times[1]
    plain_s = (times[0] + times[2]) / 2
    overhead = traced_s - plain_s
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    values = tracer.metrics({
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain_s,
    })
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}-{seed}.jsonl.gz"
    tracer.write(str(spans_path))
    detail = {
        "mode": "traced",
        "cycles": cycles,
        "pass_s": times,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "error_rate": failed / attempted,
        "errors": [e for r in runners for e in r.errors],
        "counters": {k: values[k]["value"] for k in tracing.COUNTERS},
    }
    metrics = {k: (v["value"], v["unit"]) for k, v in values.items()}
    return attempted, failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("galerkin", "words", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ncfisher" / "__init__.py").is_file():
        return fail(f"no ncfisher package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ncfisher

    if Path(ncfisher.__file__).resolve().parent != (SRC / "ncfisher").resolve():
        return fail(f"imported ncfisher from {ncfisher.__file__}, not {SRC}")

    if args.trace:
        attempted, failed, metrics, detail = run_traced(
            args.workload, args.seed)
    else:
        runner, metrics, detail = run_untraced(
            args.workload, args.seed, args.seconds)
        attempted, failed = runner.attempted, runner.failed
    detail = {"workload": args.workload, "seed": args.seed, **detail,
              "machine": machine_info()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
