"""Deterministic fault injection + the chaos soak (DESIGN.md §16).

The chaos fabric has two halves: *injection* — a seeded, declarative
:class:`~repro.chaos.plan.FaultPlan` wired into the store medium
(:class:`~repro.chaos.backend.FaultyBackend`), the wire protocol
(:func:`~repro.chaos.wirefault.wire_faults`) and scheduled unit
execution (:meth:`~repro.chaos.plan.FaultPlan.check_unit`) — and the
*soak* (:func:`~repro.chaos.runner.run_chaos`, the ``repro chaos``
verb), which runs a store-backed multi-worker sweep under a seeded fault
schedule and asserts that every surviving result is bit-identical to
the fault-free run.

``runner`` is imported lazily: worker processes import this package
for :class:`FaultPlan` alone and must not pay for (or cycle into)
the sweep machinery.
"""

from .backend import FaultyBackend
from .plan import (
    CHAOS_PLAN_ENV,
    ChaosInjectedError,
    FaultPlan,
    FaultSpec,
    env_plan,
    plan_from_env,
)
from .wirefault import fault_hook, wire_faults

__all__ = [
    "CHAOS_PLAN_ENV", "ChaosInjectedError", "FaultPlan", "FaultSpec",
    "FaultyBackend", "env_plan", "plan_from_env", "fault_hook",
    "wire_faults", "ChaosReport", "build_plan", "run_chaos",
]


def __getattr__(name: str):
    if name in ("ChaosReport", "build_plan", "run_chaos"):
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute "
                         f"{name!r}")
