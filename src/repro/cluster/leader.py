"""The TCP transport of :func:`repro.core.parallel.scheduled_map`.

The leader serves one :class:`~repro.core.parallel.UnitBag` over the
same framed wire protocol the store server speaks.  Scheduling is
pull-based work stealing: whichever worker asks next receives the
largest pending unit — so one oversized Optimal block pins exactly one
worker while every other unit drains through the rest.  The bag makes
every scheduling decision (attempts cap, quarantine, deadlines,
late-success supersession); this module only moves units and results
across sockets:

* a worker whose unit raises reports ``("error", index, traceback,
  elapsed, name)`` and keeps serving; the bag requeues or quarantines;
* a connection that drops while holding a unit hands it back to the
  bag as lost (one attempt used);
* :func:`serve` forks the local workers, polls the bag's deadlines,
  and — if every local worker dies, or none could be forked — drains
  the leftovers inline **on the same bag**, so the transport degrades
  to serial execution, never to a hang or a re-run of the whole bag.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Callable, List, Optional, Tuple

from ..core.parallel import POLL_S, UnitBag, UnitReport, drain
from ..wire import WireError, parse_address, recv_msg, send_msg

__all__ = ["ClusterLeader", "serve"]

#: Default port of ``repro sweep --listen`` (store server uses 9723).
DEFAULT_PORT = 9724

#: Seconds the leader waits for a local worker to exit once the bag is
#: resolved, before terminating it.
JOIN_S = 10.0

#: Seconds a worker connection may stay silent before it is dropped.
IDLE_TIMEOUT_S = 3600.0

#: Failures that mean "cannot fork local workers here" — the leader
#: then runs the units itself instead of giving up.
_SPAWN_ERRORS = (OSError, ImportError, NotImplementedError,
                 PermissionError, ValueError)


class _LeaderServer(socketserver.ThreadingTCPServer):
    """TCP server whose handler threads share one ClusterLeader."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, leader: "ClusterLeader") -> None:
        """Bind on *address* and attach *leader* for the handlers."""
        super().__init__(address, _Handler)
        self.leader = leader


class _Handler(socketserver.BaseRequestHandler):
    """One connected worker: hello → welcome, then get/result rounds."""

    def handle(self) -> None:
        """Serve one worker connection until EOF; requeue on loss."""
        leader: ClusterLeader = self.server.leader
        bag = leader.bag
        sock = self.request
        sock.settimeout(IDLE_TIMEOUT_S)
        claimed: Optional[int] = None
        name = "?"
        try:
            while True:
                message = recv_msg(sock)
                if message is None:
                    break
                op = message[0]
                if op == "hello":
                    name = str(message[1])
                    send_msg(sock, ("welcome", {
                        "fn": leader.fn_path,
                        "units": bag.pending_count(),
                        "plan": (bag.plan.to_json()
                                 if bag.plan is not None else None),
                    }))
                elif op == "get":
                    status, index, payload = bag.take(name)
                    if status == "wait":
                        # Pace the worker here, not in a client-side
                        # sleep, so the bag's completion answers
                        # "done" at once.
                        bag.wait(timeout=POLL_S)
                        status, index, payload = bag.take(name)
                    if status == "unit":
                        claimed = index
                        send_msg(sock, ("unit", index, payload))
                    else:
                        send_msg(sock, (status,))
                elif op in ("result", "error"):
                    _tag, index, value, elapsed, _reporter = message
                    if op == "result":
                        bag.complete(index, value, elapsed, name)
                    else:
                        bag.fail(index, str(value), elapsed, name)
                    claimed = None
                    send_msg(sock, ("ok",))
                elif op == "ping":
                    send_msg(sock, ("pong",))
                else:
                    send_msg(sock, ("error", f"unknown op {op!r}"))
        except (WireError, OSError):
            pass
        finally:
            if claimed is not None:
                bag.requeue(claimed, name)


class ClusterLeader:
    """A :class:`~repro.core.parallel.UnitBag` behind a TCP accept
    loop: connecting workers pull its units and run the module-level
    callable named by *fn_path* (``module:callable``) on them."""

    def __init__(self, bag: UnitBag, fn_path: str,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind *host*:*port* for *bag*; call :meth:`start` to serve.
        ``port=0`` binds an ephemeral port (read it back from
        :attr:`address`)."""
        self.bag = bag
        self.fn_path = fn_path
        self._server = _LeaderServer((host, port), self)
        self._server.timeout = None
        self._closing = False
        self._accepting: Optional[threading.Thread] = None

    def start(self) -> "ClusterLeader":
        """Start accepting workers on a daemon thread; returns self."""
        self._accepting = threading.Thread(
            target=self._accept_loop, name="repro-cluster-leader",
            daemon=True)
        self._accepting.start()
        return self

    def _accept_loop(self) -> None:
        # One blocking accept per round, no poll interval: shutdown()
        # wakes it with a connection of its own, so tearing a leader
        # down costs no idle poll cycle.
        while not self._closing:
            self._server.handle_request()

    @property
    def address(self) -> str:
        """``host:port`` workers connect to (wildcard → loopback)."""
        host, port = self._server.server_address[:2]
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        return f"{host}:{port}"

    def shutdown(self) -> None:
        """Stop accepting workers and release the socket (idempotent).

        Handler threads already serving a connection are daemonic and
        finish (or die with the process) on their own.
        """
        if self._closing:
            return
        self._closing = True
        if self._accepting is not None:
            host, port = self.address.rsplit(":", 1)
            try:
                socket.create_connection((host, int(port)),
                                         timeout=JOIN_S).close()
            except OSError:
                pass
            self._accepting.join(timeout=JOIN_S)
        self._server.server_close()


def serve(bag: UnitBag, fn: Callable, fn_path: str, workers: int = 0,
          listen: Optional[str] = None,
          echo: Optional[Callable[[str], None]] = None,
          ) -> Tuple[List, List[UnitReport]]:
    """Drain *bag* through a leader with *workers* forked local
    workers (plus remote ones on *listen*); returns the bag's
    ``(results, reports)`` as of the moment it resolved.

    *fn* is the in-process twin of *fn_path*, run inline once every
    forked local worker has exited (or, without *listen*, when none
    could be forked).
    """
    say = echo or (lambda _line: None)
    host, port = ("127.0.0.1", 0)
    if listen:
        host, port = parse_address(listen, default_port=DEFAULT_PORT)
    leader = ClusterLeader(bag, fn_path, host=host, port=port).start()
    procs: List = []
    try:
        if workers > 0:
            try:
                import multiprocessing

                from .worker import _local_worker
                for i in range(workers):
                    proc = multiprocessing.Process(
                        target=_local_worker,
                        args=(leader.address, i), daemon=True)
                    proc.start()
                    procs.append(proc)
            except _SPAWN_ERRORS:
                procs = [p for p in procs if p.is_alive()]
        if listen:
            say(f"cluster: leader on {leader.address} "
                f"({len(bag.items)} unit(s), {len(procs)} local "
                f"worker(s); repro worker --connect {leader.address})")
        while not bag.wait(timeout=POLL_S):
            bag.expire_deadlines()
            if (procs or not listen) \
                    and not any(p.is_alive() for p in procs):
                # Every local worker died (crash, OOM-kill) or none
                # could be forked.  Closed sockets requeued whatever
                # they held; finish the leftovers here.
                say("cluster: no local worker left; "
                    "running remaining units inline")
                drain(bag, fn)
        # Snapshot before the teardown: a hung worker's late result
        # must not rewrite a verdict the run already returned on.
        return bag.results()
    finally:
        for proc in procs:
            proc.join(timeout=JOIN_S)
            if proc.is_alive():
                proc.terminate()
        leader.shutdown()
