"""The TCP transport of the one unit scheduler (DESIGN.md §15).

:func:`repro.core.parallel.scheduled_map` drains every bag of
independent units — the sweep's warm phase, the selection strategies'
per-block rounds — either inline or through this package:

* :class:`~repro.cluster.leader.ClusterLeader` — serves a
  :class:`~repro.core.parallel.UnitBag` over TCP, largest unit first
  to whichever worker asks next (work stealing by construction);
  :func:`~repro.cluster.leader.serve` forks the local workers
  (``--workers N``), optionally listens for remote ones
  (``--listen HOST:PORT``) and drains leftovers inline if every local
  worker dies;
* :func:`~repro.cluster.worker.worker_loop` — the worker side:
  connect, pull, execute, report, repeat (``repro worker --connect``).

Results are bit-identical to a serial map regardless of topology:
units are pure functions of their payload, and the bag, not the
transport, decides retries and quarantine.
"""

from .leader import ClusterLeader, serve
from .worker import worker_loop

__all__ = ["ClusterLeader", "serve", "worker_loop"]
