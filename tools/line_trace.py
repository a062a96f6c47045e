"""List the lines of a checkout's ``src/`` that tier-1 and the product
paths never run.

    python tools/line_trace.py CHECKOUT

Each run is traced by a ``sys.settrace`` hook in one fresh ``python``
subprocess with CHECKOUT's ``src/`` first on ``sys.path``:

- ``tier-1``: pytest on CHECKOUT's ``tests/``, in process, so the lines
  that only a test's own subprocess runs (the entry points) are missed;
- ``product paths``: every golden argv (``replay`` of CHECKOUT's
  ``tests/golden_reports.py``), then the first 3 ``galerkin``, 20
  ``words`` and 3 ``cli`` benchmark cycles at seed 5, each op prepared,
  called and checked through CHECKOUT's ``perfbench/ops.py``.

The lines counted are those of the line tables of the code objects
compiled from each module.  For each run the tool prints how many of them
the run misses and, per module, which: spans of lines in the line table,
so a span may hold blank and comment lines.  The subprocesses run in a
temporary directory with bytecode writing and pytest's cache off, so
nothing is written inside CHECKOUT, and this process never imports
``ncfisher``.  The tool exits 0, or 1 when tier-1 or a checked op fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent

#: benchmark cycles of the product-path run, per workload, at ``SEED``
CYCLES = {"galerkin": 3, "words": 20, "cli": 3}
SEED = 5

RUNS = ("tier-1", "product paths")

#: runs in each subprocess with the run, the checkout and the output file
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import line_trace; "
         "sys.exit(line_trace.child(*sys.argv[2:]))")


def line_table(path: Path) -> set:
    """The lines in the line tables of the code objects of ``path``."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def spans(missed: list, table: list) -> str:
    """``missed`` as spans of consecutive lines of ``table``, both
    sorted: "12-15, 40"."""
    index = {line: i for i, line in enumerate(table)}
    runs: list = []
    for line in missed:
        if runs and index[line] == index[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def _tier1(root: Path) -> int:
    import pytest

    return int(pytest.main([str(root / "tests"), "-q", "-p",
                            "no:cacheprovider",
                            "--continue-on-collection-errors"]))


def _product_paths(root: Path) -> int:
    sys.path[1:1] = [str(root / "tests"), str(root / "perfbench")]
    from golden_reports import replay
    import inputs
    import ops

    replay()
    with tempfile.TemporaryDirectory() as tmp:
        for workload, count in CYCLES.items():
            for index in range(count):
                cycle = inputs.CYCLES[workload](SEED, index)
                if workload == "cli":
                    paths = ops.write_models(cycle[0]["models"], tmp,
                                             f"c{index}")
                    prepare = lambda op: ops.prepare_cli(op, paths)
                else:
                    prepare = getattr(ops, f"prepare_{workload}")
                for op in cycle:
                    prepared = prepare(op)
                    prepared.check(prepared.call())
    return 0


def child(run: str, checkout: str, out: str) -> int:
    """Trace ``run`` on ``checkout`` and write the lines it executed in
    each module of its ``src/`` to ``out``, as JSON, also when the run
    raises; the run's exit status."""
    root = Path(checkout)
    src = str(root / "src")
    sys.path.insert(0, src)
    executed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(src):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(trace)
    try:
        return _tier1(root) if run == RUNS[0] else _product_paths(root)
    finally:
        sys.settrace(None)
        Path(out).write_text(json.dumps({
            str(Path(name).relative_to(src)): sorted(lines)
            for name, lines in executed.items()}), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    src = root / "src"
    tables = {str(p.relative_to(src)): sorted(line_table(p))
              for p in sorted(src.rglob("*.py"))}
    print(f"{sum(map(len, tables.values()))} line-table lines in "
          f"{len(tables)} modules of {src}")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            out = Path(tmp) / "executed.json"
            proc = subprocess.run(
                [sys.executable, "-B", "-c", CHILD, str(TOOLS), run,
                 str(root), str(out)], cwd=tmp, stdout=sys.stderr)
            executed = {module: set(lines) for module, lines in json.loads(
                out.read_text(encoding="utf-8")).items()}
            missed = {module: [line for line in table
                               if line not in executed.get(module, ())]
                      for module, table in tables.items()}
            failed = failed or proc.returncode != 0
            print(f"{run}: exit {proc.returncode}, misses "
                  f"{sum(map(len, missed.values()))} lines")
            for module, lines in missed.items():
                if lines:
                    print(f"  {module}: {spans(lines, tables[module])}")
            out.unlink()
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
