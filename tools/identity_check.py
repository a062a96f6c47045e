"""Check that two checkouts print the same CLI reports, bit for bit.

    python tools/identity_check.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  Each runs, in a
fresh ``python`` subprocess with that checkout's ``src/`` first on
``sys.path``, the same argvs through ``ncfisher.cli.run``: those of
``tests/golden_reports.py`` (of the repository that holds this tool, with
its model configs), then ``suite``, ``verify-core --x-degree 6`` and
``verify-lemma2 --degree 6`` at seeds 0-3.  This process never imports
``ncfisher``.

Each argv's exit code, report and stderr line are compared as JSON, with
the report's ``wall_time_s``, ``timings`` and ``inputs.model`` masked:
the first two measure the host, the last is the path of a temporary file
(that directory's name is also replaced in every output text).  A float
that differs in one bit prints differently, so it differs here.  The
tool prints one sha256 per argv and side, and exits 0 when every argv
matches, or 1 naming the first argv that differs and its differing keys.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden_reports.py"

#: the sampled checks, at the seeds the suite's tests run
SAMPLED = [argv + ["--seed", str(seed)]
           for seed in range(4)
           for argv in (["suite"], ["verify-core", "--x-degree", "6"],
                        ["verify-lemma2", "--degree", "6"])]

#: report keys that measure the host
MASKED = ("wall_time_s", "timings")

#: runs in each checkout: reads the job from stdin and prints one JSON
#: list of (exit code, stdout, stderr) per argv
RUNNER = r"""
import contextlib, io, json, os, sys, tempfile
job = json.load(sys.stdin)
sys.path.insert(0, job["src"])
from ncfisher import cli
with tempfile.TemporaryDirectory() as tmp:
    paths = {}
    for stem, config in job["models"].items():
        paths[stem] = os.path.join(tmp, stem + ".json")
        with open(paths[stem], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    runs = []
    for argv in job["argvs"]:
        argv = [paths[a[len("{model:"):-1]] if a.startswith("{model:")
                else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
        runs.append([code, out.getvalue().replace(tmp, "{tmp}"),
                     err.getvalue().replace(tmp, "{tmp}")])
json.dump(runs, sys.stdout)
"""


def load_golden():
    """(argvs, model configs) of ``tests/golden_reports.py``, loaded as a
    file: the module imports ``ncfisher`` only when it runs an argv."""
    spec = importlib.util.spec_from_file_location("golden_reports", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ARGVS, module.MODELS


def run_checkout(checkout: Path, argvs: list, models: dict) -> list:
    """The (exit code, stdout, stderr) of each argv, run in one fresh
    subprocess on ``checkout``'s ``src/``."""
    job = {"src": str((checkout / "src").resolve()), "argvs": argvs,
           "models": models}
    proc = subprocess.run([sys.executable, "-c", RUNNER], cwd=checkout,
                          input=json.dumps(job), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def comparable(code, stdout: str, stderr: str) -> dict:
    """One run as compared: its report parsed and masked (its text when
    it prints no JSON)."""
    try:
        report = json.loads(stdout) if stdout else None
    except ValueError:
        report = stdout
    if isinstance(report, dict):
        for key in MASKED:
            report.pop(key, None)
        if isinstance(report.get("inputs"), dict):
            report["inputs"].pop("model", None)
    return {"exit": code, "report": report, "stderr": stderr}


def digest(run: dict) -> str:
    text = json.dumps(run, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def differing_keys(a, b, path: str = "") -> list:
    """Dotted paths of the leaves where ``a`` and ``b`` differ, leaves
    compared by their JSON text, so 0.0 differs from -0.0 and 1 from
    1.0."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(set(a) | set(b))
        return [k for key in keys
                for k in (differing_keys(a[key], b[key], f"{path}.{key}")
                          if key in a and key in b else [f"{path}.{key}"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [k for i, (x, y) in enumerate(zip(a, b))
                for k in differing_keys(x, y, f"{path}[{i}]")]
    return [] if json.dumps(a) == json.dumps(b) else [path.lstrip(".")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    golden, models = load_golden()
    argvs = [list(a) for a in golden] + SAMPLED
    sides = {side: [comparable(*run) for run in run_checkout(path, argvs,
                                                             models)]
             for side, path in (("parent", args.parent),
                                ("change", args.change))}
    first = None
    for argv, parent, change in zip(argvs, sides["parent"],
                                    sides["change"]):
        digests = digest(parent), digest(change)
        print(f"{digests[0]} {digests[1]} {' '.join(argv)}")
        if first is None and digests[0] != digests[1]:
            first = argv, differing_keys(parent, change)
    if first is not None:
        argv, keys = first
        print(f"differs: {' '.join(argv)}: {', '.join(keys)}",
              file=sys.stderr)
        return 1
    print(f"identical: {len(argvs)} argvs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
