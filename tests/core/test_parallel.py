"""Tests for the unit-bag scheduler and the workers knob."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.parallel import (
    WORKERS_ENV,
    UnitBag,
    UnitError,
    UnitReport,
    parallel_map,
    resolve_workers,
    scheduled_map,
)


def _square(x):
    return x * x


def _nap(x):
    time.sleep(float(x))
    return x


def _counted(job):
    """Log one execution of unit *job* to its file, then run it; unit
    3 fails the way a store medium does (an ``OSError`` inside the
    unit, not in the pool)."""
    path, index = job
    with open(path, "a") as log:
        log.write(f"{index}\n")
    if index == 3:
        raise OSError("store medium failed")
    return index * 10


def _take_order(bag):
    order = []
    while True:
        status, index, _item = bag.take("w")
        if status != "unit":
            return order
        order.append(index)
        bag.complete(index, None, 0.0, "w")


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_unset_env_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_unparsable_env_warns_and_runs_serial(self, monkeypatch,
                                                  capsys):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        assert resolve_workers() == 1
        err = capsys.readouterr().err
        assert "warning" in err
        assert "lots" in err
        assert WORKERS_ENV in err

    def test_parsable_env_does_not_warn(self, monkeypatch, capsys):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers() == 2
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", [0, -1, -8])
    def test_zero_and_negative_mean_one_per_cpu(self, value):
        assert resolve_workers(value) == (os.cpu_count() or 1)

    def test_env_zero_means_one_per_cpu(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers() == (os.cpu_count() or 1)


class TestDispatchOrder:
    def test_no_hints_is_input_order(self):
        assert _take_order(UnitBag(range(4))) == [0, 1, 2, 3]

    def test_largest_first(self):
        bag = UnitBag(range(4), [1.0, 9.0, 3.0, 7.0])
        assert _take_order(bag) == [1, 3, 2, 0]

    def test_ties_keep_input_order(self):
        bag = UnitBag(range(4), [2.0, 5.0, 2.0, 5.0])
        assert _take_order(bag) == [1, 3, 0, 2]


class TestScheduledMap:
    def test_results_match_serial_comprehension(self):
        items = list(range(20))
        results, reports = scheduled_map(_square, items, workers=2)
        assert results == [x * x for x in items]
        assert sorted(r.index for r in reports) == items

    def test_hints_reorder_dispatch_not_results(self):
        items = [3, 1, 4, 1, 5]
        hints = [30.0, 10.0, 40.0, 10.0, 50.0]
        results, _ = scheduled_map(_square, items, workers=2,
                                   size_hints=hints)
        assert results == [x * x for x in items]

    def test_reports_carry_hints_and_timing(self):
        items = [0.0, 0.0, 0.0]
        hints = [7.0, 5.0, 3.0]
        _, reports = scheduled_map(_nap, items, workers=1,
                                   size_hints=hints)
        by_index = {r.index: r for r in reports}
        assert by_index[0].size_hint == 7.0
        assert by_index[2].size_hint == 3.0
        assert all(r.elapsed_s >= 0.0 for r in reports)
        assert all(r.worker for r in reports)

    def test_serial_path_reports_serial_worker(self):
        _, reports = scheduled_map(_square, [1, 2, 3], workers=1)
        assert {r.worker for r in reports} == {"inline"}

    def test_serial_dispatch_runs_largest_first(self):
        # With one worker the reports land in dispatch order, which
        # makes the largest-first policy directly observable.
        _, reports = scheduled_map(_square, [1, 2, 3], workers=1,
                                   size_hints=[1.0, 3.0, 2.0])
        assert [r.index for r in reports] == [1, 2, 0]

    def test_pool_path_uses_process_workers(self):
        results, reports = scheduled_map(_square, list(range(8)),
                                         workers=2)
        assert results == [x * x for x in range(8)]
        # Forked workers report the leader's local{i} names; a failed
        # fork degrades to the inline drain, which is equally correct.
        workers = {r.worker for r in reports}
        assert workers <= {"local0", "local1", "inline"}

    def test_unpicklable_fn_degrades_to_serial(self):
        # A lambda has no import path a worker could resolve: it runs
        # inline, binding no socket and forking nothing.
        results, reports = scheduled_map(lambda x: x + 1, [1, 2, 3],
                                         workers=2)
        assert results == [2, 3, 4]
        assert {r.worker for r in reports} == {"inline"}

    def test_empty_items(self):
        assert scheduled_map(_square, [], workers=2) == ([], [])

    def test_exceptions_propagate(self):
        # A raising unit is quarantined, not propagated: None plus an
        # error report.  parallel_map turns that into one UnitError.
        results, reports = scheduled_map(_reciprocal, [1, 0], workers=1)
        assert results == [1.0, None]
        failed = [r for r in reports if r.status == "error"]
        assert [r.index for r in failed] == [1]
        assert "ZeroDivisionError" in failed[0].error
        with pytest.raises(UnitError, match="ZeroDivisionError"):
            parallel_map(_reciprocal, [1, 0], workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unit_exception_reruns_only_that_unit(self, tmp_path,
                                                  workers):
        # Regression: the process pool took an OSError/AttributeError
        # raised *by a unit* for a pool failure and re-ran the whole
        # bag serially (10 executions for 6 items), then raised anyway.
        log = tmp_path / "runs.log"
        results, reports = scheduled_map(
            _counted, [(str(log), i) for i in range(6)],
            workers=workers, max_attempts=3)
        runs = [int(line) for line in log.read_text().split()]
        assert sorted(runs) == [0, 1, 2, 3, 3, 3, 4, 5]
        assert results == [0, 10, 20, None, 40, 50]
        failed = [r for r in reports if r.status == "error"]
        assert [(r.index, r.attempts) for r in failed] == [(3, 3)]
        assert "store medium failed" in failed[0].error

    def test_unit_report_as_dict(self):
        record = UnitReport(index=2, size_hint=4.0, elapsed_s=0.5,
                            worker="pid9").as_dict()
        assert record == {"index": 2, "size_hint": 4.0,
                          "elapsed_s": 0.5, "worker": "pid9",
                          "status": "ok", "attempts": 1, "error": None}


def _reciprocal(x):
    return 1 / x


class TestParallelMap:
    def test_matches_serial(self):
        items = list(range(17))
        assert parallel_map(_square, items, workers=2) == \
            [x * x for x in items]

    def test_serial_fallback(self):
        assert parallel_map(_square, [3], workers=4) == [9]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_unit_raises_unit_error(self, workers):
        with pytest.raises(UnitError, match="unit 1 failed") as info:
            parallel_map(_reciprocal, [1, 0, 2], workers=workers)
        assert "ZeroDivisionError" in str(info.value)
