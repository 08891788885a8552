"""One scheduler for every bag of independent units.

The identification of the best cut in one basic block is completely
independent of every other block, so the first round of each selection
strategy (one exhaustive search per DFG) and the sweep's warm phase
(one unit per *(block, constraint)*) are bags of independent units.
This module is the one dispatcher all of them share:

* :class:`UnitBag` — the scheduling core.  Units are handed out
  **largest-first** (by a caller-supplied size hint); every hand-out is
  one attempt.  A unit that raises, is lost with its worker or passes
  its unit deadline uses that attempt: below ``max_attempts`` it is
  requeued, at the cap it is quarantined (``None`` result, a
  ``status="error"`` :class:`UnitReport`).  A late success supersedes
  a failure record; duplicate results are ignored.
* :func:`scheduled_map` — drains a bag through one of two transports,
  picked from what it is given (there is no transport option):
  *inline* (one worker, or a callable that cannot be imported by its
  ``module:qualname`` path) runs every unit in the calling process and
  binds no socket, starts no thread and imports no
  ``multiprocessing``; the *TCP leader* (:mod:`repro.cluster.leader`)
  forks ``workers`` local worker processes and, with ``listen``, also
  serves remote ``repro worker --connect`` nodes.  Either way the
  failure semantics are the bag's, so a poison, hung or lost unit
  gets the same structured outcome on every transport.
* :func:`parallel_map` — the ordered-``map`` surface on top, raising
  :class:`UnitError` for a quarantined unit;
  :func:`cached_parallel_map` puts a memo in front of it.

The workers knob is the ``workers=`` argument of the selection
strategies, the sweep and :func:`scheduled_map` (``--workers`` on the
CLI), with the ``REPRO_WORKERS`` environment variable as the default.
The default is one worker: results are bit-identical either way, but
forking has a real cost, so parallelism is opt-in.
"""

from __future__ import annotations

import heapq
import importlib
import os
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from typing import (
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "REPRO_WORKERS"

#: Seconds a drain waits (on the bag, so its completion ends the wait)
#: while every pending unit is outstanding on some other worker — one
#: may yet be requeued; the TCP leader paces a worker's "wait" reply
#: and checks deadlines / worker liveness at the same interval.
POLL_S = 0.05


def resolve_workers(workers: Optional[int] = None) -> int:
    """Number of worker processes to use.

    Precedence: explicit argument, then ``REPRO_WORKERS``, then 1
    (serial).  ``0`` and negative values mean "one per CPU".  An
    unparsable ``REPRO_WORKERS`` value falls back to serial with a
    one-line warning on stderr — silently ignoring a typo'd knob cost
    real debugging time.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            print(f"warning: unparsable {WORKERS_ENV}={env!r} ignored; "
                  f"running serial (use an integer; 0 = one per CPU)",
                  file=sys.stderr)
            return 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


class UnitError(RuntimeError):
    """A unit of :func:`parallel_map` failed on every attempt; the
    message names the unit and carries its last traceback text."""


@dataclass
class UnitReport:
    """Telemetry of one scheduled unit: who ran it, for how long.

    ``status`` is ``"ok"`` for a completed unit or ``"error"`` for one
    the bag quarantined after exhausting its attempts (``error`` then
    carries the last traceback/reason and ``attempts`` how many times
    it was handed out)."""

    index: int
    size_hint: float
    elapsed_s: float
    worker: str
    status: str = "ok"
    attempts: int = 1
    error: Optional[str] = None

    def as_dict(self) -> dict:
        """Flat JSON-ready record (the sweep artifact's telemetry)."""
        return asdict(self)


class UnitBag:
    """The queue, attempt and deadline core every transport drains.

    Thread-safe: the TCP leader's handler threads and the inline drain
    share one bag.  ``take``/``complete``/``fail``/``requeue`` move one
    unit through its life; ``expire_deadlines`` takes back units held
    past *unit_deadline* seconds and abandons everything unresolved
    once the bag is older than *deadline* seconds.  *plan* is an
    optional :class:`~repro.chaos.plan.FaultPlan` whose ``unit``-site
    faults the executing worker applies (chaos soaks only).
    """

    def __init__(self, items: Sequence,
                 size_hints: Optional[Sequence[float]] = None,
                 max_attempts: int = 3,
                 unit_deadline: Optional[float] = None,
                 deadline: Optional[float] = None,
                 plan=None) -> None:
        """Stage *items* for dispatch, largest *size_hints* first."""
        self.items = items
        self.max_attempts = max(1, max_attempts)
        self.unit_deadline = unit_deadline
        self.deadline = deadline
        self.plan = plan
        hints = (size_hints if size_hints is not None
                 else [0.0] * len(items))
        if len(hints) != len(items):
            raise ValueError("size_hints length mismatch")
        self._hints = [float(h) for h in hints]
        # Max-heap on hint, ties broken by unit order.
        self._pending = [(-h, i) for i, h in enumerate(self._hints)]
        heapq.heapify(self._pending)
        #: index -> (worker, monotonic hand-out time)
        self._outstanding: dict = {}
        self._results: dict = {}
        self._failed: dict = {}
        self._attempts: dict = {}
        self._reports: List[UnitReport] = []
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._done = threading.Event()
        if not items:
            self._done.set()

    def take(self, worker: str) -> Tuple[str, Optional[int], object]:
        """Claim the largest pending unit for *worker*.

        Returns ``("unit", index, item)``, or ``("wait", None, None)``
        when nothing is pending but units are outstanding elsewhere
        (one may be requeued yet), or ``("done", None, None)`` once
        every unit is resolved (result or recorded failure).  Every
        hand-out counts one attempt against ``max_attempts``.
        """
        with self._lock:
            while self._pending:
                _neg, index = heapq.heappop(self._pending)
                if index in self._results or index in self._failed:
                    continue      # a late success beat the requeue
                self._attempts[index] = self._attempts.get(index, 0) + 1
                self._outstanding[index] = (worker, time.monotonic())
                return "unit", index, self.items[index]
            if self._done.is_set():
                return "done", None, None
            return "wait", None, None

    def complete(self, index: int, result, elapsed: float,
                 worker: str) -> None:
        """Record *result* for unit *index*.  Duplicates are ignored
        (units are pure, so a re-run after a requeue is identical),
        and a late success supersedes a failure record: a real result
        always beats a quarantine verdict."""
        with self._lock:
            self._outstanding.pop(index, None)
            if index in self._results:
                return
            if self._failed.pop(index, None) is not None:
                self._reports = [r for r in self._reports
                                 if r.index != index]
            self._results[index] = result
            self._reports.append(UnitReport(
                index=index, size_hint=self._hints[index],
                elapsed_s=float(elapsed), worker=worker,
                attempts=self._attempts.get(index, 1)))
            self._check_done_locked()

    def fail(self, index: int, error: str, elapsed: float,
             worker: str) -> None:
        """Record one failed execution of unit *index* by *worker*:
        requeued below ``max_attempts``, quarantined at the cap (a
        ``status="error"`` report carrying *error*).  A failure from a
        worker that no longer holds the unit is ignored — its attempt
        was already accounted when the unit was taken back."""
        with self._lock:
            self._retry_locked(index, worker, str(error), elapsed)

    def requeue(self, index: int, worker: str) -> None:
        """Return unit *index*, lost with *worker* (its process or
        connection died mid-unit), under the same attempts cap as
        :meth:`fail` — a unit that kills every worker that touches it
        is eventually quarantined instead of cycling forever."""
        with self._lock:
            self._retry_locked(
                index, worker, f"unit lost with worker {worker} after "
                f"{self._attempts.get(index, 0)} attempt(s)", 0.0)

    def expire_deadlines(self) -> int:
        """Take back units outstanding past ``unit_deadline`` (each
        uses its attempt, like :meth:`fail`), and abandon every
        unresolved unit once the bag is older than ``deadline``;
        returns how many units were taken back or abandoned."""
        now = time.monotonic()
        if self.deadline is not None \
                and now - self._started >= self.deadline:
            return self.abandon(f"deadline of {self.deadline}s "
                                f"exceeded")
        if self.unit_deadline is None:
            return 0
        expired = 0
        with self._lock:
            for index, (worker, since) in list(self._outstanding.items()):
                if now - since >= self.unit_deadline:
                    expired += 1
                    self._retry_locked(
                        index, worker,
                        f"unit deadline of {self.unit_deadline}s "
                        f"exceeded on {worker}", self.unit_deadline)
        return expired

    def abandon(self, reason: str) -> int:
        """Fail every unresolved unit with *reason* and finish the bag;
        returns the units abandoned."""
        with self._lock:
            self._pending = []
            self._outstanding.clear()
            abandoned = 0
            for index in range(len(self.items)):
                if index not in self._results \
                        and index not in self._failed:
                    self._quarantine_locked(index, reason, 0.0, "leader")
                    abandoned += 1
            self._done.set()
            return abandoned

    def _retry_locked(self, index: int, worker: str, error: str,
                      elapsed: float) -> None:
        holder = self._outstanding.get(index)
        if holder is None or holder[0] != worker:
            return
        del self._outstanding[index]
        if self._attempts.get(index, 0) < self.max_attempts:
            heapq.heappush(self._pending, (-self._hints[index], index))
        else:
            self._quarantine_locked(index, error, elapsed, worker)

    def _quarantine_locked(self, index: int, error: str, elapsed: float,
                           worker: str) -> None:
        self._failed[index] = error
        self._reports.append(UnitReport(
            index=index, size_hint=self._hints[index],
            elapsed_s=float(elapsed), worker=worker, status="error",
            attempts=self._attempts.get(index, 0), error=error))
        self._check_done_locked()

    def _check_done_locked(self) -> None:
        if len(self._results) + len(self._failed) >= len(self.items):
            self._done.set()

    def pending_count(self) -> int:
        """Units waiting for a hand-out (outstanding ones excluded)."""
        with self._lock:
            return len(self._pending)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every unit is resolved (or *timeout*)."""
        return self._done.wait(timeout)

    def results(self) -> Tuple[List, List[UnitReport]]:
        """``(results in unit order, reports in completion order)``;
        quarantined units hold ``None`` and a ``status="error"``
        report."""
        with self._lock:
            return ([self._results.get(i)
                     for i in range(len(self.items))],
                    list(self._reports))


def resolve_callable(path: str) -> Callable:
    """Import the ``module:callable`` path a leader names for units."""
    module_name, sep, attr = path.partition(":")
    if not sep:
        raise ValueError(f"bad callable path {path!r} "
                         f"(expected module:callable)")
    fn = getattr(importlib.import_module(module_name), attr)
    if not callable(fn):
        raise ValueError(f"{path!r} is not callable")
    return fn


def _callable_path(fn: Callable) -> Optional[str]:
    """``module:qualname`` under which a worker process finds *fn*
    again, or ``None`` (lambdas, closures, methods) — such a callable
    runs inline."""
    path = f"{getattr(fn, '__module__', '')}:" \
           f"{getattr(fn, '__qualname__', '')}"
    try:
        return path if resolve_callable(path) is fn else None
    except (ImportError, AttributeError, ValueError):
        return None


def drain(bag: UnitBag, fn: Callable) -> None:
    """Run *bag*'s units in the calling process until it is resolved.

    The inline transport, and the TCP leader's fallback when every
    local worker died.  An exception uses the unit's attempt like a
    remote failure; a unit that ran past ``unit_deadline`` cannot be
    preempted, so its result is discarded and the attempt counted —
    the same outcome as a hung worker whose unit the leader took
    back.  A fault plan's ``kill`` is skipped in-process.
    """
    plan = bag.plan
    worker = "inline"
    while True:
        status, index, item = bag.take(worker)
        if status == "done":
            return
        if status == "wait":
            bag.expire_deadlines()
            bag.wait(timeout=POLL_S)
            continue
        start = time.perf_counter()
        try:
            if plan is not None:
                plan.check_unit(index)
            result = fn(item)
        except Exception:
            bag.fail(index, traceback.format_exc(limit=20),
                     time.perf_counter() - start, worker)
        else:
            elapsed = time.perf_counter() - start
            # Past its deadline the result is dropped: the expiry
            # below takes the unit back, as from a hung worker.
            if bag.unit_deadline is None or elapsed < bag.unit_deadline:
                bag.complete(index, result, elapsed, worker)
        bag.expire_deadlines()


def scheduled_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    size_hints: Optional[Sequence[float]] = None,
    *,
    listen: Optional[str] = None,
    max_attempts: int = 3,
    unit_deadline: Optional[float] = None,
    deadline: Optional[float] = None,
    echo: Optional[Callable[[str], None]] = None,
    plan=None,
) -> Tuple[List[Optional[R]], List[UnitReport]]:
    """Work-stealing ``map``: unordered completion, ordered results.

    Units are dispatched largest-first (by *size_hints*; input order
    without hints) to whichever worker asks next, and results come
    back in input order, bit-identical to ``[fn(x) for x in items]``;
    the second return value reports per-unit wall time, worker,
    status and attempts.  A unit that fails on *max_attempts*
    hand-outs (raised, lost with its worker or held past
    *unit_deadline* seconds) resolves to ``None`` with a
    ``status="error"`` report, on every transport.  An overall
    *deadline* (seconds) abandons whatever is unresolved.

    The transport follows from the arguments: with more than one
    worker (capped by the number of items) or a *listen* address
    ``HOST:PORT``, a TCP leader forks the local workers and accepts
    remote ``repro worker --connect`` nodes on *listen*; otherwise —
    or when *fn* cannot be imported by its ``module:qualname`` path —
    the calling process drains the bag inline.  *plan* is the fault
    plan whose ``unit`` faults the executing workers apply; *echo*
    receives progress lines.
    """
    say = echo or (lambda _line: None)
    bag = UnitBag(items, size_hints, max_attempts=max_attempts,
                  unit_deadline=unit_deadline, deadline=deadline,
                  plan=plan)
    local = min(resolve_workers(workers), len(items))
    fn_path = (_callable_path(fn)
               if items and (local > 1 or listen) else None)
    if fn_path is None:
        drain(bag, fn)
        results, reports = bag.results()
    else:
        from ..cluster.leader import serve
        results, reports = serve(bag, fn, fn_path,
                                 local if local > 1 else 0,
                                 listen=listen, echo=say)
    failed = sorted(r.index for r in reports if r.status != "ok")
    if failed:
        say(f"scheduler: {len(failed)} unit(s) quarantined after "
            f"{max_attempts} attempt(s) or a deadline: {failed}")
    return results, reports


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Ordered ``[fn(x) for x in items]`` over :func:`scheduled_map`.

    A unit that fails on every attempt raises :class:`UnitError`
    naming it, with its last traceback text — on every transport.
    """
    results, reports = scheduled_map(fn, items, workers=workers)
    for report in reports:
        if report.status != "ok":
            raise UnitError(f"unit {report.index} failed after "
                            f"{report.attempts} attempt(s):\n"
                            f"{report.error}")
    return results  # type: ignore[return-value]


def cached_parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    lookup: Optional[Callable[[T], Optional[R]]] = None,
    store: Optional[Callable[[T, R], None]] = None,
) -> List[R]:
    """:func:`parallel_map` with a memo in front of the fan-out.

    Worker processes cannot mutate a parent-process memo, so every
    caller with a cache needs the same dance: resolve hits in-process,
    fan only the misses out, store the computed results afterwards.
    This helper is that dance — *lookup* returns a cached result or
    ``None`` (``lookup=None`` disables the memo entirely), *store*
    records a freshly computed one.  Results are identical to the
    uncached path.
    """
    if lookup is None:
        return parallel_map(fn, items, workers=workers)
    results: List[Optional[R]] = [None] * len(items)
    miss_indices: List[int] = []
    for i, item in enumerate(items):
        hit = lookup(item)
        if hit is not None:
            results[i] = hit
        else:
            miss_indices.append(i)
    computed = parallel_map(fn, [items[i] for i in miss_indices],
                            workers=workers)
    for i, result in zip(miss_indices, computed):
        if store is not None:
            store(items[i], result)
        results[i] = result
    return results
