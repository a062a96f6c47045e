"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all three by default) it checks that

* two traced runs with the same seed report identical counts (every
  per-layer metric whose unit is ``count``, the deterministic counters
  among them);
* an untraced run on a second seed completes with error rate 0;
* the metrics both modes print are exactly those ``BENCHMARK.json``
  declares, with the same units.

It also checks that ``run.py`` fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits 1 if any check fails.  Takes a few minutes.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED, SECOND_SEED = 1, 2


def run(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc.returncode, result, proc.stderr


def declared(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*",
                        default=["galerkin", "words", "cli"])
    args = parser.parse_args()
    problems = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            problems.append(message)

    per_layer = declared("per_layer")
    end_to_end = declared("end_to_end")
    for workload in args.workloads:
        results = []
        for _ in range(2):
            code, result, err = run(workload, SEED, 1)
            expect(code == 0 and result is not None and result["correct"],
                   f"{workload}: traced run on seed {SEED} is correct"
                   + ("" if code == 0 else f" (exit {code}: {err[-500:]})"))
            results.append(result)
        if None in results:
            continue
        units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
        expect(units == per_layer,
               f"{workload}: traced metrics match BENCHMARK.json per_layer")
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in results]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        expect(not diff and counts[0]["bench.ops"] > 0,
               f"{workload}: counts repeat exactly on seed {SEED}"
               + (f" (differ: {diff})" if diff else ""))

        code, result, err = run(workload, SECOND_SEED, 0)
        ok = code == 0 and result is not None
        expect(ok and result["failed"] == 0 and result["correct"],
               f"{workload}: untraced run on seed {SECOND_SEED} has "
               "error rate 0" + ("" if ok else f" (exit {code}: {err[-500:]})"))
        if ok:
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == end_to_end,
                   f"{workload}: untraced metrics match BENCHMARK.json "
                   "end_to_end")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "words", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, check=False)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py fails without a result when src/ is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
