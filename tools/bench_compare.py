"""Run the benchmark on two checkouts and write a before/after record.

    python tools/bench_compare.py PARENT CHANGE --out BENCH_<n>.json \\
        [--change "what the change does"]

PARENT and CHANGE are two checkouts of the repository, each with its own
``perfbench/``.  The run length and the workloads are those of the
parent's ``BENCHMARK.json``.  For every workload the tool runs
``perfbench/run.py --trace 0`` of both checkouts as subprocesses, in
``PAIRS`` alternated pairs (the parent first on even pairs), each run at
seed ``SEED``.  Then it runs ``--trace 1`` once per side at seed
``TRACE_SEED`` for the per-layer counts.  The record holds, per workload
and end-to-end metric, each side's q1, median and q3
(``statistics.quantiles``, inclusive), ``change_wins`` (pairs where the
change is better; ties count for neither), the ratio of the medians, and
two verdicts: ``gain`` (the change wins at least nine pairs in ten and
its median is better by more than the parent's q3 - q1) and
``within_bound`` (its median is not worse than the parent's by more than
the bound in ``BENCHMARK.json``; ``"unresolved"`` when the parent's own
q3 - q1 is wider than the bound and the change's runs do not all beat
all of the parent's).  Each workload also gets the raw (unscaled)
throughput and latencies from the runs' detail lines, next to the
reference-scaled metrics, and each side's median over its runs of every
op kind's p50 (``p50_ms_by_kind``), which shows which kinds moved, and
each side's median ``cycles`` and ``op_time_s`` (``run_length``), the
length of run every figure of the workload rests on, and each side's
median ``calibration_ms`` (``calibration_ms``), the calibration kernel's
time that scales the ``_ref`` figures: a ref-scaled move with raw figures
that did not move came from the kernel, not from the ops.

Before the first pair the tool refuses, with exit 2, two checkouts of
which only one holds a bytecode cache (``CACHE``): its runs would import
warm against the other's cold, and ``setup_s`` would compare the two
imports rather than the code.

The runs take wall time on a shared host, so no test runs them; the
tests check the summary functions on fixed numbers and the refusal on
temporary trees.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: unscaled figures of a run's detail line, with the side that is better
RAW = {"ops_per_s": "higher", "op_p50_ms": "lower", "op_tail_ms": "lower"}

#: figures of a run's detail line that say how long it ran
RUN_LENGTH = ("cycles", "op_time_s")

#: share of pairs the change must win before a gain is claimed
GAIN_WINS = 0.9

#: alternated pairs per workload, the seed of their runs and that of the
#: traced run
PAIRS = 10
SEED = 11
TRACE_SEED = 1

#: the package's bytecode cache, relative to a checkout
CACHE = Path("src/ncfisher/__pycache__")


def cache_mismatch(checkouts: dict) -> str | None:
    """The refusal when only some of ``checkouts`` (side -> path) hold
    ``CACHE``, naming each directory that holds it; None otherwise."""
    held = [str(path / CACHE) for path in checkouts.values()
            if (path / CACHE).is_dir()]
    if not held or len(held) == len(checkouts):
        return None
    return (f"only {', '.join(held)} exists, so one side would import "
            "warm and the other cold; remove it, or run the package once "
            "in every checkout")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple:
    """One ``perfbench/run.py`` run in ``checkout``: (result, detail), the
    last two lines of its stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result_line), json.loads(detail_line)["detail"]


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize_metric(parent: list, change: list, better: str,
                     bound: float | None = None) -> dict:
    """Summary of one metric over alternated pairs: ``parent[i]`` and
    ``change[i]`` are the two runs of pair i; ``better`` is "higher" or
    "lower"; ``bound`` is the share by which the change's median may be
    worse than the parent's (no ``within_bound`` without one; see the
    module docstring for ``"unresolved"``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = (wins >= GAIN_WINS * len(parent)
            and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"])
    out = {
        "better": better,
        "parent": p,
        "change": c,
        "change_wins": wins,
        "median_ratio": (c["median"] / p["median"] if p["median"]
                         else None),
        "gain": gain,
    }
    if bound is not None:
        allowed = bound * abs(p["median"])
        beats_all = (min(sign * b for b in change)
                     > max(sign * a for a in parent))
        if p["q3"] - p["q1"] > allowed and not beats_all:
            out["within_bound"] = "unresolved"
        else:
            worse = -sign * (c["median"] - p["median"])
            out["within_bound"] = worse <= allowed
    return out


def kind_medians(details: list) -> dict:
    """Median over runs of each op kind's p50 (ms), from the detail lines'
    ``p50_ms_by_kind``; a kind counts only the runs that have it."""
    kinds = sorted({k for d in details for k in d.get("p50_ms_by_kind", {})})
    return {k: statistics.median(d["p50_ms_by_kind"][k] for d in details
                                 if k in d.get("p50_ms_by_kind", {}))
            for k in kinds}


def run_length(details: list) -> dict:
    """Median over runs of each ``RUN_LENGTH`` figure: the whole cycles a
    run completed and the op time (s) its metrics rest on."""
    return {name: statistics.median(d[name] for d in details)
            for name in RUN_LENGTH}


def calibration_ms(details: list) -> float:
    """Median over runs of ``calibration_ms``, the median time (ms) of a
    run's calibration kernel."""
    return statistics.median(d["calibration_ms"] for d in details)


def summarize_workload(runs: list, specs: dict) -> dict:
    """``runs`` holds one ``(parent, change)`` pair of ``(result,
    detail)`` per alternated pair; ``specs`` maps each end-to-end metric
    to its ``BENCHMARK.json`` entry."""
    def side(i):
        return [pair[i] for pair in runs]

    def values(results, name):
        return [r["metrics"][name]["value"] for r, _ in results]

    parent, change = side(0), side(1)
    return {
        "pairs": len(runs),
        "attempted_ops": {"parent": sum(r["attempted"] for r, _ in parent),
                          "change": sum(r["attempted"] for r, _ in change)},
        "failed_ops": {"parent": sum(r["failed"] for r, _ in parent),
                       "change": sum(r["failed"] for r, _ in change)},
        "metrics": {
            name: summarize_metric(values(parent, name),
                                   values(change, name),
                                   spec["better"], spec.get("bound"))
            for name, spec in specs.items()
        },
        "raw": {
            name: summarize_metric([d[name] for _, d in parent],
                                   [d[name] for _, d in change], better)
            for name, better in RAW.items()
        },
        "p50_ms_by_kind": {"parent": kind_medians([d for _, d in parent]),
                           "change": kind_medians([d for _, d in change])},
        "run_length": {"parent": run_length([d for _, d in parent]),
                       "change": run_length([d for _, d in change])},
        "calibration_ms": {"parent": calibration_ms([d for _, d in parent]),
                           "change": calibration_ms([d for _, d in change])},
    }


def traced_counts(parent: dict, change: dict) -> dict:
    """Per-layer values of one traced run per side, metric by metric."""
    names = sorted(set(parent["metrics"]) | set(change["metrics"]))
    return {n: {side: r["metrics"].get(n, {}).get("value")
                for side, r in (("parent", parent), ("change", change))}
            for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--change", dest="note", default="",
                    help="one line on what the change does")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    refusal = cache_mismatch(checkouts)
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {
        "change": args.note,
        "protocol": (
            f"perfbench/run.py --workload W --seed {SEED} --seconds "
            f"{seconds:g} --trace 0 in each checkout, {PAIRS} "
            "alternated pairs per workload (the parent first on even "
            f"pairs); traced_seed_{TRACE_SEED} from --seed "
            f"{TRACE_SEED} --trace 1, one run per side; written by "
            "tools/bench_compare.py"
        ),
        "seed": SEED,
        "workloads": {},
        f"traced_seed_{TRACE_SEED}": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            got = {s: run_bench(checkouts[s], workload, SEED, seconds, 0)
                   for s in order}
            runs.append((got["parent"], got["change"]))
            print(f"{workload} pair {i}: " + ", ".join(
                f"{s} {got[s][0]['metrics']['ops_per_ref_s']['value']:.1f}"
                for s in order), file=sys.stderr)
        record["workloads"][workload] = summarize_workload(runs, specs)
        record["machine"] = runs[0][1][1]["machine"]
        traced = {s: run_bench(checkouts[s], workload, TRACE_SEED, seconds,
                               1)[0] for s in checkouts}
        record[f"traced_seed_{TRACE_SEED}"][workload] = traced_counts(
            traced["parent"], traced["change"])
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
