"""Golden CLI reports: the argvs, their model configs and the runner.

Run ``python tests/golden_reports.py`` from the repository root to rerun
every argv in-process through ``ncfisher.cli.run`` and rewrite
``tests/golden_reports.json``.  ``test_golden_reports.py`` reruns the
same argvs and compares each exit code, report and stderr text with
the file exactly, and ``tools/identity_check.py`` replays them through
:func:`replay` on two checkouts.  A change that alters a report on purpose regenerates the
file, so the diff of the file shows what changed.

The argvs are the README examples and the eighteen commands of two
benchmark ``cli`` cycles, copied as literals, then the sampled checks
at seeds 0-3, then the README ``moment`` example on the built-in model
written as a full-mode config (``full-lit``), then the refusals: each
command judged against ``--tol`` failing at ``--tol 0`` (exit 1), and
one input of each kind the CLI refuses (exit 2).  An argument
``{model:<stem>}`` stands for the file of ``MODELS[<stem>]``.
:func:`run_argv` writes the models' directory as ``{models}`` in stdout
and stderr, pins argparse's line width, and drops the report's
``HOST_KEYS``, which measure the host, and its ``inputs.model``.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).with_name("golden_reports.json")

#: report keys that measure the host
HOST_KEYS = ("wall_time_s", "timings")

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
    # the built-in two-atom model, both atoms listed, as config_dict
    # writes it
    "full-lit": {"generators": [
        {"name": "g", "mode": "full",
         "atoms": [{"x": "ln2/(2pi)", "w": 0.6666666666666666},
                   {"x": "-ln2/(2pi)", "w": 0.3333333333333333}]},
    ]},
    # one tracial atom of mass 1e6, at which long words may overflow
    "heavy": {"generators": [
        {"name": "g", "mode": "half", "atoms": [{"x": 0, "w": 1e6}]},
    ]},
    # nested past what json reads, so written as text: json.dump cannot
    # write it either
    "nested": '{"generators": ' + "[" * 1000 + "]" * 1000 + "}",
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
] + [
    # the sampled checks at seeds 0-3, but ``suite --seed 0``, which
    # prints the README's ``suite`` report
    argv + ["--seed", str(seed)]
    for seed in range(4)
    for argv in (["suite"], ["verify-core", "--x-degree", "6"],
                 ["verify-lemma2", "--degree", "6"])
][1:] + [
    ["moment", "--model", "{model:full-lit}", "--word", "X:0 X:1 X:0 X:1"],
    # every judged command fails at --tol 0: exit 1
    ["check-kms", "--tol", "0"],
    ["moment", "--word", "X:0 X:1 X:0 X:1", "--tol", "0"],
    ["conjugate", "--tol", "0"],
    ["cramer-rao", "--tol", "0"],
    ["verify-lemma2", "--count", "10", "--tol", "0"],
    ["verify-core", "--count", "10", "--tol", "0"],
    ["covariance", "--tol", "0"],
    # one refused input of each kind: exit 2
    ["conjugate", "--grid"],
    ["conjugate", "--target", "h"],
    ["moment", "--word", " ".join(["X:0"] * 257)],
    ["verify-core", "--model", "{model:heavy}", "--x-degree", "250",
     "--count", "1"],
    ["moment", "--word", "X:0 X:0", "--tol", "nan"],
    ["moment", "--model", "{model:nested}", "--word", "X:0 X:0"],
]


def write_models(directory) -> None:
    """Write each model config to ``directory`` as ``<stem>.json``, a
    text config as it is."""
    for stem, config in MODELS.items():
        with open(os.path.join(directory, f"{stem}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(config if isinstance(config, str)
                     else json.dumps(config))


def run_argv(argv: list, models: str) -> dict:
    """Exit code, comparable report (None without one) and stderr of
    ``argv``, run in-process on the model configs written to ``models``;
    an exception that escapes ``cli.run`` is exit 1."""
    from ncfisher import cli

    argv = [os.path.join(models, a[len("{model:"):-1] + ".json")
            if a.startswith("{model:") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the terminal's width, pinned here
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            # as an uncaught exception ends a process: exit 1, and the
            # exception on stderr (here without its traceback)
            code = 1
            err.write("".join(traceback.format_exception_only(exc)))
    stdout, stderr = (buf.getvalue().replace(models, "{models}")
                      for buf in (out, err))
    report = json.loads(stdout) if stdout else None
    if report is not None:
        for key in HOST_KEYS:
            report.pop(key, None)
        report["inputs"].pop("model", None)
    return {"exit": code, "report": report, "stderr": stderr}


def replay() -> list:
    """Each argv of ``ARGVS`` with its run, on freshly written models."""
    with tempfile.TemporaryDirectory() as tmp:
        write_models(tmp)
        return [{"argv": argv, **run_argv(argv, tmp)} for argv in ARGVS]


def main() -> None:
    cases = [{key: case[key] for key in ("argv", "exit", "report", "stderr")}
             for case in replay()]
    GOLDEN.write_text(json.dumps(cases, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
