"""Smoke tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench/smoke.py -q`` from the repository
root.  The file is named so that the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import workloads  # noqa: E402
from run import run_benchmark  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SHM = Path("/dev/shm")


@pytest.fixture
def out_dir(request):
    """A fresh output directory inside the checkout, one per test."""
    path = HERE / "out" / "smoke" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _names(kind):
    return [metric["name"] for metric in BENCHMARK[kind]]


def test_benchmark_json_lists_the_code_metric_names():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.LISTED_WORKLOADS)
    assert _names("end_to_end") == list(workloads.END_TO_END)
    assert _names("per_layer") == list(workloads.PER_LAYER)
    units = {m["name"]: m["unit"]
             for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert units == {**workloads.END_TO_END, **workloads.PER_LAYER}


@pytest.mark.parametrize("workload", workloads.LISTED_WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_exactly_the_listed_metrics(workload, trace,
                                                   out_dir):
    outcome = run_benchmark(workload, seed=3, seconds=0.01, trace=trace,
                            sizes=workloads.TINY, out_dir=out_dir,
                            verbose=False)
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = _names("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == expected
    assert result["attempted"] >= 1
    assert all(isinstance(metric["value"], float)
               for metric in result["metrics"].values())
    stem = f"{workload}-seed3-trace{int(trace)}"
    record = json.loads((out_dir / f"{stem}.json").read_text())
    assert record["provenance"]["seed"] == 3
    assert record["provenance"]["cpus"] >= 1
    if trace:
        assert (out_dir / f"{stem}.spans.jsonl").stat().st_size > 0
        # The layer times and the residuals account for the traced wall
        # time: the spans do not overlap.
        assert result["metrics"]["bench.self_s"]["value"] >= 0.0
        layer_sum = sum(
            metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] == "s"
            and name not in workloads.RUN_LEVEL_TIMES)
        mean_wall = sum(op["wall_s"] for op in record["ops"]) / len(
            record["ops"])
        assert layer_sum == pytest.approx(mean_wall, rel=0.05)
        if workload == "service_shm":
            assert result["metrics"]["serve.jobs"]["value"] > 0
            assert result["metrics"]["serve.start_s"]["value"] > 0
    else:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_raising_operation_is_counted_and_the_loop_goes_on():
    recovered = []

    def operation(index):
        if index == 0:
            raise RuntimeError("boom")
        if index == 1:
            return harness.OpOutcome(errors=["wrong output"])
        return harness.OpOutcome(work=5)

    records = harness.closed_loop(operation, seconds=0.05, deadline_s=5.0,
                                  on_failure=recovered.append)
    assert [r.status for r in records[:3]] == ["raised", "check", "ok"]
    assert "boom" in records[0].detail
    assert recovered == [0, 1]
    assert sum(r.work for r in records if r.ok) == 5 * (len(records) - 2)


@pytest.mark.parametrize("failure", ["raise", "deadline"])
def test_failed_operation_makes_the_run_incorrect(failure, monkeypatch,
                                                  out_dir):
    def operation(self, index):
        if failure == "raise":
            raise RuntimeError("boom")
        time.sleep(30)

    monkeypatch.setattr(workloads.DesignFlow, "operation", operation)
    monkeypatch.setitem(workloads.DEADLINES_S, "design_flow", 0.2)
    result = run_benchmark("design_flow", seed=3, seconds=0.01, trace=False,
                           sizes=workloads.TINY, out_dir=out_dir,
                           verbose=False)["result"]
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] >= 1


def test_operation_past_its_deadline_is_ended_and_counted():
    def operation(index):
        if index == 0:
            time.sleep(30)
        return harness.OpOutcome()

    t0 = time.perf_counter()
    records = harness.closed_loop(operation, seconds=0.0, deadline_s=0.2)
    assert time.perf_counter() - t0 < 5
    assert [r.status for r in records] == ["deadline"]
    assert 0.2 <= records[0].wall_s < 5


def test_deadline_is_not_swallowed_by_except_exception():
    def operation(index):
        try:
            time.sleep(30)
        except Exception:  # noqa: BLE001 - what the program's boundaries do
            pass
        return harness.OpOutcome()

    records = harness.closed_loop(operation, seconds=0.0, deadline_s=0.2)
    assert records[0].status == "deadline"


def _shm_segments():
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_service_stall_recovery_kills_workers_and_unlinks_shm(out_dir):
    before = _shm_segments()
    workload = workloads.make("service_shm", ROOT, 5, workloads.TINY,
                              out_dir)
    workload.setup()
    try:
        pids = workload.service.worker_pids()
        with pytest.raises(harness.OperationDeadline):
            with harness.Deadline(0.3):
                workload.operation(0)
        workload.recover(0)
        for pid in pids:
            deadline = time.monotonic() + 5
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(pid)
        assert set(workload.service.worker_pids()).isdisjoint(pids)
        # The next operation runs to completion on the fresh pool (its
        # attack ranks are not checked: tiny sizes do not make the flat
        # design leak reliably).
        assert workload.operation(1).work > 0
    finally:
        workload.teardown()
    assert _shm_segments() <= before


def test_no_process_outlives_the_run(out_dir):
    import multiprocessing
    from multiprocessing import resource_tracker

    workload = workloads.make("service_shm", ROOT, 5, workloads.TINY,
                              out_dir)
    workload.setup()
    workers = workload.service.worker_pids()
    workload.teardown()
    # The first shared-memory segment started the resource tracker, which
    # would otherwise outlive the benchmark process.
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    harness.stop_helper_processes()
    assert multiprocessing.active_children() == []
    assert not any(_alive(pid) for pid in workers + [tracker])
