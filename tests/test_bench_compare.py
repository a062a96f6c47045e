"""The summary of ``tools/bench_compare.py`` on fixed numbers, and its
refusal of checkouts that differ in holding a bytecode cache, on
temporary trees.  Nothing here runs the benchmark: wall time is never
asserted."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)

PARENT = [97.0, 100.0, 103.0, 99.0, 101.0, 98.0, 102.0, 100.0, 96.0, 104.0]


def test_quartiles_are_inclusive():
    assert bench_compare.quartiles([5, 1, 4, 2, 3]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_compare.quartiles([7.5]) == {
        "q1": 7.5, "median": 7.5, "q3": 7.5}


def test_a_clear_throughput_gain():
    change = [v * 1.25 for v in PARENT]
    s = bench_compare.summarize_metric(PARENT, change, "higher", 0.2)
    assert s["change_wins"] == 10 and s["gain"] and s["within_bound"]
    assert s["parent"]["median"] == 100.0
    assert s["median_ratio"] == pytest.approx(1.25)


def test_ties_count_for_neither_side():
    s = bench_compare.summarize_metric(PARENT, list(PARENT), "higher", 0.2)
    assert s["change_wins"] == 0 and not s["gain"] and s["within_bound"]


def test_eight_wins_in_ten_claim_no_gain():
    change = [v * 1.5 for v in PARENT[:8]] + [v * 0.9 for v in PARENT[8:]]
    s = bench_compare.summarize_metric(PARENT, change, "higher")
    assert s["change_wins"] == 8 and not s["gain"]
    assert "within_bound" not in s


def test_a_win_inside_the_parents_spread_is_no_gain():
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]
    change = [v + 5 for v in parent]
    s = bench_compare.summarize_metric(parent, change, "higher", 0.2)
    assert s["change_wins"] == 5 and not s["gain"]


def test_a_latency_worse_than_its_bound():
    parent = [1.0, 1.1, 0.9, 1.0]
    s = bench_compare.summarize_metric(parent, [1.3] * 4, "lower", 0.25)
    assert s["change_wins"] == 0 and not s["gain"]
    assert not s["within_bound"]
    s = bench_compare.summarize_metric(parent, [1.2] * 4, "lower", 0.25)
    assert s["within_bound"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 80.0, 100.0, 120.0, 150.0]
    # q3 - q1 is 40, twice the bound of 20 at the median 100
    s = bench_compare.summarize_metric(parent, [95.0] * 5, "higher", 0.2)
    assert s["within_bound"] == "unresolved"
    s = bench_compare.summarize_metric(parent, [60.0] * 5, "higher", 0.2)
    assert s["within_bound"] == "unresolved"
    # unless every change run beats every parent run
    s = bench_compare.summarize_metric(parent, [151.0] * 5, "higher", 0.2)
    assert s["within_bound"] is True
    s = bench_compare.summarize_metric(parent, [49.0] * 5, "lower", 0.2)
    assert s["within_bound"] is True
    s = bench_compare.summarize_metric(parent, [50.0] * 5, "lower", 0.2)
    assert s["within_bound"] == "unresolved"


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_compare.summarize_metric([1.0, 2.0], [1.0], "higher")


def _run(ops_per_ref_s, attempted, failed, ops_per_s, cycles=11,
         op_time_s=0.1, calibration_ms=20.0):
    result = {"attempted": attempted, "failed": failed,
              "metrics": {"ops_per_ref_s": {"value": ops_per_ref_s,
                                            "unit": "1/s"}}}
    detail = {"ops_per_s": ops_per_s, "op_p50_ms": 1000 / ops_per_s,
              "op_tail_ms": 2000 / ops_per_s, "cycles": cycles,
              "op_time_s": op_time_s, "calibration_ms": calibration_ms}
    return result, detail


def test_workload_summary_sums_ops_and_keeps_the_raw_figures():
    runs = [(_run(100.0, 90, 0, 50.0), _run(130.0, 90, 1, 60.0)),
            (_run(104.0, 90, 0, 52.0), _run(128.0, 90, 0, 70.0))]
    specs = {"ops_per_ref_s": {"name": "ops_per_ref_s", "better": "higher",
                               "bound": 0.2}}
    s = bench_compare.summarize_workload(runs, specs)
    assert s["pairs"] == 2
    assert s["attempted_ops"] == {"parent": 180, "change": 180}
    assert s["failed_ops"] == {"parent": 0, "change": 1}
    assert s["metrics"]["ops_per_ref_s"]["parent"]["median"] == 102.0
    assert s["metrics"]["ops_per_ref_s"]["change_wins"] == 2
    raw = s["raw"]
    assert raw["ops_per_s"]["change"]["median"] == 65.0
    assert raw["op_p50_ms"]["better"] == "lower"
    assert raw["op_p50_ms"]["change_wins"] == 2


def test_kind_medians_take_each_kind_over_the_runs_that_have_it():
    details = [{"p50_ms_by_kind": {"a": 1.0, "b": 4.0}},
               {"p50_ms_by_kind": {"a": 3.0, "b": 2.0}},
               {"p50_ms_by_kind": {"a": 2.0, "c": 7.0}},
               {}]
    assert bench_compare.kind_medians(details) == {"a": 2.0, "b": 3.0,
                                                   "c": 7.0}
    assert bench_compare.kind_medians([]) == {}


def test_workload_summary_holds_each_sides_kind_medians():
    def run(p50s):
        result, detail = _run(100.0, 90, 0, 50.0)
        detail["p50_ms_by_kind"] = p50s
        return result, detail

    runs = [(run({"x": 1.0, "y": 0.5}), run({"x": 0.6, "y": 0.5})),
            (run({"x": 1.2, "y": 0.7}), run({"x": 0.8, "y": 0.4})),
            (run({"x": 1.1, "y": 0.6}), run({"x": 0.7, "y": 0.6}))]
    specs = {"ops_per_ref_s": {"name": "ops_per_ref_s", "better": "higher",
                               "bound": 0.2}}
    kinds = bench_compare.summarize_workload(runs, specs)["p50_ms_by_kind"]
    assert kinds == {"parent": {"x": 1.1, "y": 0.6},
                     "change": {"x": 0.7, "y": 0.5}}


def test_workload_summary_holds_each_sides_run_length():
    # a run that stops at 11 cycles rests on about 0.1 s of op time
    runs = [(_run(100.0, 99, 0, 50.0, 11, 0.082),
             _run(110.0, 99, 0, 55.0, 11, 0.075)),
            (_run(100.0, 99, 0, 50.0, 11, 0.090),
             _run(110.0, 99, 0, 55.0, 11, 0.071)),
            (_run(100.0, 108, 0, 50.0, 12, 0.095),
             _run(110.0, 99, 0, 55.0, 11, 0.080))]
    specs = {"ops_per_ref_s": {"name": "ops_per_ref_s", "better": "higher",
                               "bound": 0.2}}
    length = bench_compare.summarize_workload(runs, specs)["run_length"]
    assert length == {"parent": {"cycles": 11, "op_time_s": 0.090},
                      "change": {"cycles": 11, "op_time_s": 0.075}}


def test_workload_summary_holds_each_sides_calibration_time():
    # the same raw throughput on both sides, the change's kernel slower:
    # its ref-scaled throughput reads higher with no op faster
    runs = [(_run(100.0, 99, 0, 50.0, calibration_ms=20.0),
             _run(110.0, 99, 0, 50.0, calibration_ms=22.0)),
            (_run(100.0, 99, 0, 50.0, calibration_ms=21.0),
             _run(110.0, 99, 0, 50.0, calibration_ms=23.5)),
            (_run(100.0, 99, 0, 50.0, calibration_ms=19.0),
             _run(110.0, 99, 0, 50.0, calibration_ms=22.5))]
    specs = {"ops_per_ref_s": {"name": "ops_per_ref_s", "better": "higher",
                               "bound": 0.2}}
    s = bench_compare.summarize_workload(runs, specs)
    assert s["calibration_ms"] == {"parent": 20.0, "change": 22.5}
    assert s["raw"]["ops_per_s"]["median_ratio"] == 1.0


def test_main_takes_length_and_workloads_from_the_benchmark(tmp_path,
                                                            monkeypatch):
    bench = {"run_seconds": 7, "workloads": [{"name": "a"}, {"name": "b"}],
             "end_to_end": [{"name": "ops_per_ref_s", "better": "higher",
                             "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed, seconds, trace))
        result, detail = _run(100.0, 90, 0, 50.0)
        detail["machine"] = "m"
        return result, detail

    monkeypatch.setattr(bench_compare, "run_bench", fake_run)
    parent, change = tmp_path, tmp_path / "change"
    out = tmp_path / "out.json"
    assert bench_compare.main([str(parent), str(change), "--out",
                               str(out), "--change", "note"]) == 0
    record = json.loads(out.read_text())
    assert sorted(record["workloads"]) == ["a", "b"]
    assert record["change"] == "note" and record["machine"] == "m"
    untraced = [c for c in calls if c[4] == 0]
    assert len(untraced) == 2 * 2 * bench_compare.PAIRS
    assert {c[2:4] for c in untraced} == {(bench_compare.SEED, 7)}
    traced = [c for c in calls if c[4] == 1]
    assert {c[2] for c in traced} == {bench_compare.TRACE_SEED}
    assert len(traced) == 4
    # alternated: the parent first on even pairs
    firsts = [c[0] for c in untraced[::2]]
    assert firsts[:2] == [parent.name, "change"]


def test_a_bytecode_cache_on_one_side_only_is_refused(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / bench_compare.CACHE).mkdir(parents=True)
    change.mkdir()
    checkouts = {"parent": parent, "change": change}
    refusal = bench_compare.cache_mismatch(checkouts)
    assert str(parent / bench_compare.CACHE) in refusal
    assert str(change) not in refusal
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out",
                               str(out)]) == 2
    assert str(parent / bench_compare.CACHE) in capsys.readouterr().err
    assert not out.exists()
    (change / bench_compare.CACHE).mkdir(parents=True)
    assert bench_compare.cache_mismatch(checkouts) is None
    for side in checkouts.values():
        (side / bench_compare.CACHE).rmdir()
    assert bench_compare.cache_mismatch(checkouts) is None
