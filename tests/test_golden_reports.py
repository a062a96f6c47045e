"""The CLI's reports stay byte-identical: each golden argv, rerun
in-process, exits as recorded and prints the recorded report and stderr
text, apart from host timings and the model file path (see
``golden_reports.py``)."""
import json

import pytest

from golden_reports import ARGVS, GOLDEN, run_argv, write_models

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-models")
    write_models(directory)
    return str(directory)


def test_golden_file_holds_every_argv_in_order():
    assert [case["argv"] for case in CASES] == ARGVS


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)]
)
def test_golden_report(case, models):
    run = run_argv(case["argv"], models)
    assert run["exit"] == case["exit"]
    assert (json.dumps(run["report"], sort_keys=True, indent=1)
            == json.dumps(case["report"], sort_keys=True, indent=1))
    assert run["stderr"] == case["stderr"]


def test_a_full_mode_config_prints_the_built_in_models_report():
    # config_dict writes the built-in model in full mode; that config,
    # with its frequency literal, loads back to the same model and digest
    word = ["--word", "X:0 X:1 X:0 X:1"]
    built_in = CASES[ARGVS.index(["moment", *word])]
    full = CASES[ARGVS.index(["moment", "--model", "{model:full-lit}",
                              *word])]
    assert full["exit"] == built_in["exit"] == 0
    assert full["report"] == built_in["report"]
