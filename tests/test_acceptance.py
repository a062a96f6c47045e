"""Acceptance battery: one test per exit criterion, shared with the CLI
``suite`` subcommand.  Each test prints its own pass/fail line."""

import pytest

from ncfisher.suite import ALL_CHECK_IDS, run_suite


@pytest.fixture(scope="module")
def results():
    return {r.cid: r for r in run_suite(seed=0)}


@pytest.mark.parametrize("cid", ALL_CHECK_IDS)
def test_criterion(results, cid):
    r = results[cid]
    print(f"{'PASS' if r.passed else 'FAIL'} {cid}: {r.description}")
    if r.asserted:
        assert r.passed, r.details


def test_every_criterion_has_a_check(results):
    assert set(results) == set(ALL_CHECK_IDS)
    assert len(ALL_CHECK_IDS) == 11


def test_suite_deterministic_across_workers():
    first = run_suite(seed=0)
    second = run_suite(seed=0)
    assert [r.cid for r in first] == ALL_CHECK_IDS
    for a, b in zip(first, second):
        assert a.cid == b.cid
        assert a.passed == b.passed
        assert a.details == b.details
