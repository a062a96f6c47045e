"""Planted defects, and what catches each.

For each row of ``planted.ROWS``, the plant is applied and the suite runs,
through ``cli.run``, at seeds 0-3, and so do the seven ``--tol`` commands
of ``COMMANDS`` at their defaults.  The row's ``fails``, ``exits``,
``error`` and ``margins`` must be the whole outcome; a run that exits 2
must print nothing on stdout and an ``error:`` line holding the row's
``error``.

Where an outcome differs from its row, the failure prints the observed
``fails=`` and ``exits=`` lines in the table's syntax: after an intended
change, copy them over the row's.
"""

import json

import pytest

from ncfisher import cli
from planted import ROWS, plant

SEEDS = range(4)

COMMANDS = {
    "check-kms": ["check-kms"],
    "moment": ["moment", "--word", "X:0 X:1 X:0 X:1"],
    "conjugate": ["conjugate"],
    "cramer-rao": ["cramer-rao"],
    "covariance": ["covariance"],
    "verify-lemma2": ["verify-lemma2"],
    "verify-core": ["verify-core"],
}


def run_command(capsys, argv, error):
    """(exit code, report or None) of ``cli.run(argv)``; a run that exits
    2 must print only an ``error:`` line holding ``error``."""
    code = cli.run(argv)
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("error:") and error in err, (
            argv, err)
        return code, None
    return code, json.loads(out)


def same_at_every_seed(values: dict):
    """The one value of a per-seed dict, or the dict where seeds differ."""
    first = values[SEEDS[0]]
    return first if all(v == first for v in values.values()) else values


def observe(monkeypatch, capsys, error="nan"):
    """``fails`` and ``exits`` as they are, and the details of each suite
    run and the outputs of each command; every verdict the suite builds
    is a Python bool."""
    run_suite = cli.run_suite
    verdicts = []

    def spied(seed):
        results = run_suite(seed)
        verdicts.extend(v for r in results for v in (r.passed, r.asserted))
        return results

    monkeypatch.setattr(cli, "run_suite", spied)
    fails, codes, reports = {}, {}, {}
    for seed in SEEDS:
        codes[seed], report = run_command(
            capsys, ["suite", "--seed", str(seed)], error)
        checks = report["outputs"]["checks"] if report else []
        # a strict JSON false: a numpy bool used to print as "False"
        fails[seed] = " ".join(sorted(
            c["id"] for c in checks if c["passed"] is False))
        reports[seed] = {c["id"]: c["details"] for c in checks}
    assert all(type(v) is bool for v in verdicts)
    exits = {}
    if same_at_every_seed(codes) not in (0, 1):
        exits["suite"] = same_at_every_seed(codes)
    for command, argv in COMMANDS.items():
        code, report = run_command(capsys, argv, error)
        if code:
            exits[command] = code
        reports[command] = report and report["outputs"]
    return same_at_every_seed(fails), exits, reports


def test_without_a_plant_every_check_passes(monkeypatch, capsys):
    fails, exits, _ = observe(monkeypatch, capsys)
    assert (fails, exits) == ("", {})


@pytest.mark.parametrize("name", ROWS)
def test_planted_defect(monkeypatch, capsys, name):
    row = ROWS[name]
    plant(monkeypatch, name)
    fails, exits, reports = observe(monkeypatch, capsys, row.error)
    assert (fails, exits) == (row.fails, row.exits), (
        f"observed:\n        fails={fails!r},\n        exits={exits!r},")
    for key, holds in row.margins.items():
        seen = ([reports[key]] if key in COMMANDS
                else [reports[seed][key] for seed in SEEDS])
        assert all(holds(d) for d in seen), (key, seen)
