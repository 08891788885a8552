"""Robustness tests for the unit scheduler: quarantine, deadlines,
worker naming — and the same outcome on every transport."""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager

import pytest

from repro.chaos import FaultPlan, FaultSpec, env_plan
from repro.cluster import ClusterLeader, worker_loop
from repro.cluster.worker import default_worker_name
from repro.core import Constraints, select_iterative
from repro.core.parallel import UnitBag, scheduled_map
from repro.explore import SweepSpec, run_sweep
from repro.ir.synth import random_dag_dfg
from repro.store import ArtifactStore

_FN = "tests.cluster.test_robustness"


def _echo(payload):
    return ("ran", payload)


def _explode(payload):
    if payload == "bad":
        raise RuntimeError("unit is poisoned")
    return ("ran", payload)


def _first_run(marker: str) -> bool:
    """True exactly once per *marker* path, across processes."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _flaky(payload):
    """Raise on the first execution of a ``(name, marker)`` unit."""
    if isinstance(payload, tuple) and _first_run(payload[1]):
        raise RuntimeError("flaky once")
    return ("ran", payload[0] if isinstance(payload, tuple) else payload)


def _hang_once(payload):
    """Hang past the deadline on the first execution of a
    ``(name, marker)`` unit only."""
    if isinstance(payload, tuple):
        if _first_run(payload[1]):
            time.sleep(1.0)
        return ("ran", payload[0])
    return ("ran", payload)


def _hang(payload):
    """Hang past the deadline on every execution of ``"hung"``."""
    if payload == "hung":
        time.sleep(0.6)
    return ("ran", payload)


@contextmanager
def _thread_workers(count):
    """*count* worker threads that serve the listen leader announced
    on the yielded echo sink (the remote ``repro worker`` nodes)."""
    found = threading.Event()
    address: dict = {}

    def _note(line):
        if "repro worker --connect" in line:
            address["addr"] = line.rsplit("--connect ", 1)[1].rstrip(")")
            found.set()

    def _serve(name):
        found.wait(30)
        try:
            worker_loop(address["addr"], name=name)
        except OSError:
            pass                 # the leader finished first

    threads = [threading.Thread(target=_serve, args=(f"t{i}",),
                                daemon=True) for i in range(count)]
    for thread in threads:
        thread.start()
    try:
        yield _note
    finally:
        for thread in threads:
            thread.join(timeout=30)


def _transport_map(transport, fn, items, **kwargs):
    """``scheduled_map`` over one transport: ``inline`` (one worker),
    ``fork`` (two forked local workers) or ``tcp`` (a listen-only
    leader served by two worker threads)."""
    if transport == "tcp":
        with _thread_workers(2) as note:
            return scheduled_map(fn, items, workers=1,
                                 listen="127.0.0.1:0", echo=note,
                                 **kwargs)
    return scheduled_map(fn, items,
                         workers=1 if transport == "inline" else 2,
                         **kwargs)


def _poison_plan():
    return FaultPlan(seed=0, specs=(
        FaultSpec(site="unit", kind="poison", ops=("0",)),))


#: One workload, one port pair: a sweep with a handful of warm units.
_SPEC = SweepSpec(workloads=("fir",), ports=((4, 2),), ninstrs=(2,),
                  algorithms=("iterative",), limit=100_000, n=8)


_TRANSPORTS = ("inline", "fork", "tcp")


def _outcome(reports):
    """``{index: (status, attempts)}`` — the transport-independent
    part of the reports."""
    return {r.index: (r.status, r.attempts) for r in reports}


class TestWorkerNames:
    def test_default_names_are_unique_within_a_process(self):
        # The old scheme derived the name from id(object()), which the
        # allocator can reuse — two workers then alias in telemetry
        # and leader logs.  pid + counter cannot collide.
        names = {default_worker_name() for _ in range(100)}
        assert len(names) == 100

    def test_name_carries_the_pid(self):
        assert str(os.getpid()) in default_worker_name()


class TestPoisonQuarantine:
    def test_inline_poison_unit_is_quarantined(self):
        results, reports = scheduled_map(
            _explode, ["a", "bad", "b"], workers=1, max_attempts=2)
        assert results == [("ran", "a"), None, ("ran", "b")]
        failed = [r for r in reports if r.status == "error"]
        assert len(failed) == 1
        assert failed[0].index == 1
        assert failed[0].attempts == 2
        assert "unit is poisoned" in failed[0].error

    def test_worker_reports_error_and_keeps_serving(self):
        # A thread worker hits the poison unit, reports the failure,
        # and still drains the rest of the queue — the process-level
        # analogue is a worker that survives its own unit exceptions.
        bag = UnitBag(["a", "bad", "b", "c"], max_attempts=2)
        leader = ClusterLeader(bag, f"{_FN}:_explode").start()
        try:
            done = worker_loop(leader.address, name="survivor")
            assert done == 3                  # successes only
            assert bag.wait(timeout=5)
            results, reports = bag.results()
            assert results == [("ran", "a"), None, ("ran", "b"),
                               ("ran", "c")]
            failed = [r for r in reports if r.status == "error"]
            assert [r.index for r in failed] == [1]
            assert "unit is poisoned" in failed[0].error
        finally:
            leader.shutdown()

    def test_env_poison_plan_reaches_inline_units(self):
        # The sweep hands its warm phase the environment's fault plan,
        # also when the warm phase drains inline at one worker.
        clean = run_sweep(_SPEC, workers=1)
        with env_plan(_poison_plan()):
            outcome = run_sweep(_SPEC, workers=1, unit_attempts=2)
        assert [(u["index"], u["worker"], u["attempts"])
                for u in outcome.failed_units] == [(0, "inline", 2)]
        assert _strip(outcome.rows) == _strip(clean.rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poison_plan_leaves_selection_rounds_alone(self, workers):
        # Only the sweep's warm phase hands its bag the fault plan:
        # selection rounds neither fail on it nor draw from it.
        rng = random.Random(7)
        dfgs = [random_dag_dfg(8, rng, edge_prob=0.35, name=f"b{k}")
                for k in range(3)]
        cons = Constraints(nin=3, nout=2, ninstr=4)
        clean = select_iterative(dfgs, cons, workers=workers)
        with env_plan(_poison_plan()):
            poisoned = select_iterative(dfgs, cons, workers=workers)
        assert ([sorted(c.nodes) for c in poisoned.cuts]
                == [sorted(c.nodes) for c in clean.cuts])
        assert poisoned.total_merit == clean.total_merit

    def test_late_success_supersedes_failure(self):
        bag = UnitBag(["x"], max_attempts=1)
        bag.take("w1")
        bag.fail(0, "flaky once", 0.1, "w1")
        assert [r.error for r in bag.results()[1]] == ["flaky once"]
        bag.complete(0, ("ran", "x"), 0.2, "w1")
        results, reports = bag.results()
        assert results == [("ran", "x")]
        assert [r.status for r in reports] == ["ok"]


class TestDeadlines:
    def test_unit_deadline_requeues_a_hung_unit(self):
        bag = UnitBag(["a"], max_attempts=3, unit_deadline=0.05)
        status, index, _payload = bag.take("hung-worker")
        assert status == "unit"
        time.sleep(0.1)
        assert bag.expire_deadlines() == 1
        # The unit is pending again for the next puller, and the hung
        # worker's eventual failure no longer counts against it.
        status, index, _payload = bag.take("rescuer")
        assert (status, index) == ("unit", 0)
        bag.fail(0, "late failure", 0.2, "hung-worker")
        bag.complete(0, ("ran", "a"), 0.0, "rescuer")
        assert bag.wait(timeout=1)
        assert _outcome(bag.results()[1]) == {0: ("ok", 2)}

    def test_unit_deadline_quarantines_at_the_attempts_cap(self):
        bag = UnitBag(["a"], max_attempts=1, unit_deadline=0.05)
        bag.take("hung-worker")
        time.sleep(0.1)
        bag.expire_deadlines()
        assert bag.wait(timeout=1)
        results, reports = bag.results()
        assert results == [None]
        assert reports[0].status == "error"
        assert "deadline" in reports[0].error

    def test_overall_deadline_abandons_unpulled_units(self):
        # A listen-only leader with no workers: nothing ever pulls, so
        # the overall deadline must end the run with structured
        # failures instead of hanging.
        results, reports = scheduled_map(
            _echo, ["a", "b"], workers=1, listen="127.0.0.1:0",
            deadline=0.2)
        assert results == [None, None]
        assert all(r.status == "error" for r in reports)
        assert all("deadline" in r.error for r in reports)


class TestSweepFailedUnits:
    def test_failed_units_reach_the_outcome_and_rows_survive(
            self, tmp_path):
        # A poison plan quarantines one warm unit; the sweep still
        # completes and the evaluation phase recomputes the missing
        # piece inline, so the rows match a fault-free run exactly.
        clean_store = ArtifactStore(
            f"sqlite:{tmp_path / 'clean.sqlite'}")
        clean = run_sweep(_SPEC, store=clean_store, workers=1)
        assert clean.warm_units > 0

        store = ArtifactStore(f"sqlite:{tmp_path / 'chaos.sqlite'}")
        with env_plan(_poison_plan()):
            outcome = run_sweep(_SPEC, store=store, workers=2,
                                unit_attempts=2)
        assert [u["index"] for u in outcome.failed_units] == [0]
        assert outcome.failed_units[0]["status"] == "error"
        assert outcome.failed_units[0]["attempts"] == 2
        assert _strip(outcome.rows) == _strip(clean.rows)
        # Key-set identity too: the recompute wrote through.
        assert sorted(store.backend.keys()) \
            == sorted(clean_store.backend.keys())


def _strip(rows):
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in rows]


@pytest.mark.parametrize("transport", _TRANSPORTS)
class TestSameOutcomeOnEveryTransport:
    """A poison, flaky or hung unit gets the same results, statuses
    and attempt counts inline, on forked workers and over TCP."""

    def test_poison_unit_is_quarantined(self, transport):
        results, reports = _transport_map(
            transport, _explode, ["a", "bad", "b"], max_attempts=2)
        assert results == [("ran", "a"), None, ("ran", "b")]
        assert _outcome(reports) == {0: ("ok", 1), 1: ("error", 2),
                                     2: ("ok", 1)}
        failed = [r for r in reports if r.status == "error"]
        assert "unit is poisoned" in failed[0].error

    def test_later_success_clears_the_failure(self, transport,
                                              tmp_path):
        marker = str(tmp_path / "flaky")
        results, reports = _transport_map(
            transport, _flaky, ["a", ("b", marker)], max_attempts=2)
        assert results == [("ran", "a"), ("ran", "b")]
        assert _outcome(reports) == {0: ("ok", 1), 1: ("ok", 2)}

    def test_hung_unit_is_requeued(self, transport, tmp_path):
        marker = str(tmp_path / "hang")
        results, reports = _transport_map(
            transport, _hang_once, [("a", marker), "b"],
            max_attempts=3, unit_deadline=0.3)
        assert results == [("ran", "a"), ("ran", "b")]
        assert _outcome(reports) == {0: ("ok", 2), 1: ("ok", 1)}

    def test_hung_unit_is_quarantined_at_the_cap(self, transport):
        results, reports = _transport_map(
            transport, _hang, ["hung", "b"], max_attempts=1,
            unit_deadline=0.2)
        assert results == [None, ("ran", "b")]
        assert _outcome(reports) == {0: ("error", 1), 1: ("ok", 1)}
        assert "deadline" in reports[[r.index for r in reports]
                                     .index(0)].error

    def test_failed_units_reach_the_sweep_outcome(self, transport,
                                                  tmp_path):
        clean = run_sweep(_SPEC, workers=1)
        store = ArtifactStore(f"sqlite:{tmp_path / 'store.sqlite'}")
        with env_plan(_poison_plan()):
            if transport == "tcp":
                with _thread_workers(1) as note:
                    outcome = run_sweep(_SPEC, store=store, workers=1,
                                        unit_attempts=2, echo=note,
                                        listen="127.0.0.1:0")
            else:
                outcome = run_sweep(
                    _SPEC, store=store, unit_attempts=2,
                    workers=1 if transport == "inline" else 2)
        assert [(u["index"], u["status"], u["attempts"])
                for u in outcome.failed_units] == [(0, "error", 2)]
        assert _strip(outcome.rows) == _strip(clean.rows)
