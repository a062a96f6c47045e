"""Planted defects, and what catches each.

For each row of ``planted.ROWS``, the plant is applied and the suite runs,
through ``cli.run``, at seeds 0-3, and so do the seven ``--tol`` commands
of ``COMMANDS`` at their defaults.  The row's ``fails``, ``exits``,
``error`` and ``margins`` must be the whole outcome; a run that exits 2
must print nothing on stdout and an ``error:`` line holding the row's
``error``.

Where an outcome differs from its row, the failure prints the observed
``fails=`` and ``exits=`` lines in the table's syntax: after an intended
change, copy them over the row's.  The README's census of the rows is
checked against ``ROWS`` cell by cell.
"""

import json
from itertools import takewhile
from pathlib import Path

import pytest

from ncfisher import cli, suite
from ncfisher.suite import ALL_CHECK_IDS
from planted import ROWS, plant

README = Path(__file__).resolve().parent.parent / "README.md"

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
    run_suite = suite.run_suite
    verdicts = []

    def spied(seed):
        results = run_suite(seed)
        verdicts.extend(v for r in results for v in (r.passed, r.asserted))
        return results

    monkeypatch.setattr(suite, "run_suite", spied)
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


def census() -> tuple:
    """The header and the body rows of the README's census table, each a
    list of its stripped cells."""
    def cells(line):
        return [c.strip() for c in line.strip().strip("|").split("|")]
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("| row |"))
    body = takewhile(lambda l: l.startswith("|"), lines[start + 2:])
    return cells(lines[start]), [cells(l) for l in body]


def test_the_readme_census_is_the_rows_outcome():
    # a check column per suite check, in suite order, then a command
    # column per command of COMMANDS; F a failing check, 1 or 2 an exit
    # code, 2 in a check column the check at which the suite refuses
    header, body = census()
    assert len(header) == 1 + len(ALL_CHECK_IDS) + len(COMMANDS)
    assert [cells[0] for cells in body] == [f"`{name}`" for name in ROWS]
    for name, *cells in body:
        row = ROWS[name.strip("`")]
        checks = dict(zip(ALL_CHECK_IDS, cells))
        commands = dict(zip(COMMANDS, cells[len(ALL_CHECK_IDS):]))
        assert set(checks.values()) <= {"F", "2", "·"}, name
        assert ({c for c, v in checks.items() if v == "F"}
                == set(row.fails.split())), name
        assert ({c: int(v) for c, v in commands.items() if v != "·"}
                == {c: v for c, v in row.exits.items() if c != "suite"}), name
        refusals = [c for c, v in checks.items() if v == "2"]
        assert len(refusals) == (1 if row.exits.get("suite") == 2 else 0), (
            name)
