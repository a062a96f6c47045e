"""Golden CLI reports: the argvs, their model configs and the runner.

Run ``python tests/golden_reports.py`` from the repository root to rerun
every argv in-process through ``ncfisher.cli.run`` and rewrite
``tests/golden_reports.json``.  ``test_golden_reports.py`` reruns the
same argvs and compares each exit code and report with the file exactly.
A change that alters a report on purpose regenerates the file, so the
diff of the file shows what changed.

The argvs are the README examples and the eighteen commands of two
benchmark ``cli`` cycles, copied as literals; an argument
``{model:<stem>}`` stands for the file of ``MODELS[<stem>]``.  A report
is compared without ``wall_time_s`` and ``timings``, which measure the
host, and without ``inputs.model``, the path of a temporary file.
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_reports.json")

MODELS = {
    "two-0": {"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0.31, "w": 0.536637}]},
    ]},
    "three-0": {"generators": [
        {"name": "g", "mode": "half",
         "atoms": [{"x": 0, "w": 0.360584}, {"x": 0.28, "w": 0.477612}]},
    ]},
    "pair-0": {"generators": [
        {"name": "a", "mode": "half",
         "atoms": [{"x": 0.18, "w": 0.7560184836313838}]},
        {"name": "b", "mode": "half",
         "atoms": [{"x": 0.28, "w": 0.8531209517401582}]},
    ]},
    "two-1": {"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0.3, "w": 0.514081}]},
    ]},
    "three-1": {"generators": [
        {"name": "g", "mode": "half",
         "atoms": [{"x": 0, "w": 0.367254}, {"x": 0.29, "w": 0.742362}]},
    ]},
    "pair-1": {"generators": [
        {"name": "a", "mode": "half",
         "atoms": [{"x": 0.27, "w": 0.8450718291397447}]},
        {"name": "b", "mode": "half",
         "atoms": [{"x": 0.33, "w": 0.8882958656701435}]},
    ]},
}

ARGVS = [
    # README examples
    ["suite"],
    ["bound", "--alpha", "0.5", "--delta", "0.1"],
    ["moment", "--word", "X:0 X:1 X:0 X:1"],
    ["conjugate", "--grid", "-1,0,1", "--degree", "3"],
    ["chi-star", "--tail-cutoff", "10"],
    # benchmark cli cycle 0 at seed 1
    ["check-kms", "--model", "{model:three-0}"],
    ["moment", "--model", "{model:two-0}", "--word",
     "Xg:-4 Yg:3 Xg:-5 Xg:8/3"],
    ["moment", "--model", "{model:three-0}", "--word",
     "Xg:2 Xg:8 Xg:-3 Xg:1 Xg:0 Xg:-2"],
    ["moment", "--model", "{model:two-0}", "--word",
     "Yg:-7/3 Xg:-8/3 Xg:7 Yg:-1/3 Xg:-4/3 Xg:3 Xg:-8/3 Xg:1"],
    ["moment", "--model", "{model:three-0}", "--word",
     "Xg:7/3 Yg:-1 Xg:-2 Xg:-2 Xg:-5/4 Xg:7/4 Xg:-4/3 Xg:6 Xg:-2 Yg:-2/3"],
    ["moment", "--model", "{model:two-0}", "--word",
     "Yg:5/2 Yg:1 Xg:2/3 Xg:-3 Yg:-1/4 Yg:2/3 Xg:4 Xg:8 Yg:0 Xg:5 Yg:-2 "
     "Yg:3/4"],
    ["cramer-rao", "--model", "{model:pair-0}", "--grid", "-3/4,0,3/4"],
    ["chi-star", "--model", "{model:two-0}", "--grid", "-3/4,0,3/4"],
    ["covariance", "--model", "{model:two-0}", "--grid", "-3/4,0,3/4",
     "--shift", "-1/4"],
    ["verify-lemma2", "--model", "{model:two-0}", "--degree", "6",
     "--seed", "489401"],
    ["verify-core", "--model", "{model:two-0}", "--x-degree", "6",
     "--seed", "489401"],
    ["verify-core", "--model", "{model:three-0}", "--x-degree", "6",
     "--seed", "489401"],
    ["brownian", "--model", "{model:two-0}", "--word",
     "Xg:1/2 Xg:-1 Xg:5/3 Xg:5/3 Xg:-2 Xg:-3/4 Xg:-1/2 Xg:-3 Xg:1/2 "
     "Xg:3/4 Xg:1/4 Xg:-3/2"],
    ["brownian", "--model", "{model:three-0}", "--word",
     "Xg:-8 Xg:3 Xg:-1/2 Xg:-5/2 Xg:-7 Xg:3 Xg:-4/3 Xg:1 Xg:3/2 Xg:-3/2 "
     "Xg:-4 Xg:-1/4"],
    ["conjugate", "--model", "{model:three-0}", "--grid", "-3/4,0,3/4,3/2",
     "--degree", "3"],
    ["conjugate", "--model", "{model:two-0}", "--grid",
     "-3/2,-3/4,0,3/4,3/2", "--degree", "3"],
    ["fisher", "--model", "{model:two-0}", "--grid", "-3/2,-3/4,0,3/4,3/2",
     "--degree", "3"],
    ["suite", "--seed", "489401"],
    # benchmark cli cycle 1 at seed 1
    ["check-kms", "--model", "{model:three-1}"],
    ["moment", "--model", "{model:two-1}", "--word",
     "Xg:-8/3 Yg:-3/2 Yg:-3/2 Yg:-3/2"],
    ["moment", "--model", "{model:three-1}", "--word",
     "Yg:-1/2 Xg:-3/2 Yg:3 Yg:-1/3 Xg:7/4 Yg:-1"],
    ["moment", "--model", "{model:two-1}", "--word",
     "Xg:1 Xg:1/2 Yg:4/3 Xg:3 Xg:-4/3 Xg:2 Yg:-3/4 Yg:7/2"],
    ["moment", "--model", "{model:three-1}", "--word",
     "Xg:5/3 Xg:5/3 Xg:7/3 Xg:-8 Yg:-1/2 Yg:-2 Yg:1/2 Yg:-1 Xg:2 Xg:1/4"],
    ["moment", "--model", "{model:two-1}", "--word",
     "Yg:-7/2 Yg:2 Xg:0 Xg:7/3 Yg:-3/4 Yg:1 Yg:5/4 Yg:-3 Xg:-5/2 Xg:3 "
     "Xg:-8/3 Xg:-1"],
    ["cramer-rao", "--model", "{model:pair-1}", "--grid", "-1,0,1"],
    ["chi-star", "--model", "{model:two-1}", "--grid", "-1,0,1"],
    ["covariance", "--model", "{model:two-1}", "--grid", "-1,0,1",
     "--shift", "-3/4"],
    ["verify-lemma2", "--model", "{model:two-1}", "--degree", "6",
     "--seed", "592026"],
    ["verify-core", "--model", "{model:two-1}", "--x-degree", "6",
     "--seed", "592026"],
    ["verify-core", "--model", "{model:three-1}", "--x-degree", "6",
     "--seed", "592026"],
    ["brownian", "--model", "{model:two-1}", "--word",
     "Xg:1 Xg:7 Xg:4 Xg:6 Xg:-2 Xg:8 Xg:-7/3 Xg:-2 Xg:-1/2 Xg:0 Xg:-3/4 "
     "Xg:2"],
    ["brownian", "--model", "{model:three-1}", "--word",
     "Xg:3 Xg:3 Xg:4 Xg:-4/3 Xg:-2 Xg:7/4 Xg:1/4 Xg:-7/3 Xg:-1/3 Xg:7/2 "
     "Xg:-2 Xg:2"],
    ["conjugate", "--model", "{model:three-1}", "--grid", "-1,0,1,2",
     "--degree", "3"],
    ["conjugate", "--model", "{model:two-1}", "--grid", "-2,-1,0,1,2",
     "--degree", "3"],
    ["fisher", "--model", "{model:two-1}", "--grid", "-2,-1,0,1,2",
     "--degree", "3"],
    ["suite", "--seed", "592026"],
]


def write_models(directory) -> dict:
    """Write each model config to ``directory``; map stem to file path."""
    paths = {}
    for stem, config in MODELS.items():
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        paths[stem] = path
    return paths


def run_argv(argv: list, model_paths: dict) -> tuple:
    """Exit code and comparable report (None without one) of ``argv``."""
    from ncfisher import cli

    argv = [model_paths[a[len("{model:"):-1]] if a.startswith("{model:")
            else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    if not out.getvalue():
        return code, None
    report = json.loads(out.getvalue())
    report.pop("wall_time_s")
    report.pop("timings", None)
    report["inputs"].pop("model", None)
    return code, report


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_models(tmp)
        cases = []
        for argv in ARGVS:
            code, report = run_argv(argv, paths)
            cases.append({"argv": argv, "exit": code, "report": report})
    GOLDEN.write_text(json.dumps(cases, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
