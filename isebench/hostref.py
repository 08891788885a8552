"""Host-speed reference and the arithmetic of normalised timings.

A vCPU on a shared host changes speed by about a fifth between runs
minutes apart, and the change is real slowness, not descheduling, so
CPU time does not remove it.  Every timed unit is therefore preceded
by :func:`reference_loop`, a fixed pure-Python loop run on the same
CPU, and its wall time is converted into *reference seconds*::

    ref_s = wall_s * R0_S / ref_wall_s

``R0_S`` is a constant close to the loop's time at nominal host speed,
so ``ref_s`` reads like seconds.

The loop walks short slices of a small list of string keys and looks
each one up in a dict.  It was chosen by measurement: over 20-second
windows of alternating reference loops and real units (a cold kernel
compile, a baseline and an ISE lane batch), raw unit time varied with
a coefficient of variation of 12-15%; normalised by this loop, 2-3%.
Loops of method calls (6%), a dict-dispatched toy interpreter (4%),
the same lookups without slicing (3-5%) and lookups over a 64k-key
dict (9%) tracked the program worse.  The slices are the loop's only
allocations; they die at once, and the loop runs with the garbage
collector paused, so GC settings and heap size cannot move it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List

#: Slices of :data:`_KEYS` walked by one reference loop.
REF_SLICES = 5_000

#: Reference-loop wall time (s) defining one reference second.
R0_S = 0.004

_KEYS = [f"k{i}" for i in range(4096)]
_TABLE = {key: i & 255 for i, key in enumerate(_KEYS)}


def reference_loop(slices: int = REF_SLICES) -> int:
    """The fixed reference work: *slices* slices of 8 keys, each key
    looked up in a 4096-entry dict."""
    table, keys, value = _TABLE, _KEYS, 0
    for _ in repeat(None, slices):
        for key in keys[value:value + 8]:
            value = (value + table[key]) & 4095
    return value


def time_reference() -> float:
    """Wall seconds of one :func:`reference_loop` on this CPU, now,
    with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def ref_seconds(wall_s: float, ref_wall_s: float) -> float:
    """*wall_s* expressed in reference seconds, given the reference
    loop's wall time measured next to it."""
    if ref_wall_s <= 0:
        raise ValueError("reference time must be positive")
    return wall_s * R0_S / ref_wall_s


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive *values* (``ValueError`` if empty or
    any value is not positive)."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Unit:
    """One timed unit: *items* of work done in *wall_s* seconds, and
    the reference-loop time measured around it."""

    phase: str
    group: str
    items: int
    wall_s: float
    ref_wall_s: float

    @property
    def ref_s(self) -> float:
        """The unit's cost in reference seconds."""
        return ref_seconds(self.wall_s, self.ref_wall_s)

    @property
    def rate(self) -> float:
        """Items per reference second."""
        return self.items / self.ref_s


@dataclass
class Meter:
    """Timed units of one run and the rates derived from them.

    A phase's rate is the geometric mean over its groups (kernels,
    shapes, passes) of each group's median unit rate: the median keeps
    one unit hit by a host hiccup from moving the figure, and the
    geometric mean gives every group the same weight however long its
    units are, so a run cut mid-rotation is not biased towards the
    groups it happened to reach.
    """

    units: List[Unit] = field(default_factory=list)
    #: Optional :class:`~isebench.tracing.Tracer`: each unit becomes a
    #: root span ``bench.<phase>``.
    tracer: object = None
    #: Reference seconds of the traced units by this meter's own clock
    #: readings, at the tracer's scale: what its self times must sum to.
    traced_ref_s: float = 0.0

    def measure(self, phase: str, group: str, fn):
        """Collect garbage, run the reference loop, time ``items =
        fn()``, run the reference loop again; record the unit with the
        mean of the two reference times and return *items*.

        The collection puts every unit in the same garbage-collector
        state, so the collections inside a unit depend on its own
        allocations only, not on what ran before it.  Bracketing the
        unit with two reference loops follows host drift during long
        units.
        """
        gc.collect()
        before = time_reference()
        if self.tracer is None:
            start = time.perf_counter()
            items = fn()
            wall_s = time.perf_counter() - start
        else:
            with self.tracer.root(f"bench.{phase}", R0_S / before):
                start = time.perf_counter()
                items = fn()
                wall_s = time.perf_counter() - start
            self.traced_ref_s += ref_seconds(wall_s, before)
        ref_wall_s = (before + time_reference()) / 2
        self.units.append(Unit(phase, group, items, wall_s, ref_wall_s))
        return items

    def phase_units(self, phase: str) -> List[Unit]:
        """The units recorded under *phase*, in order."""
        return [u for u in self.units if u.phase == phase]

    def rate(self, phase: str) -> float:
        """Normalised rate of *phase* (class doc); ``ValueError`` when
        the phase has no unit with work in it."""
        groups: Dict[str, List[float]] = {}
        for unit in self.phase_units(phase):
            if unit.items > 0:
                groups.setdefault(unit.group, []).append(unit.rate)
        return geomean(statistics.median(r) for r in groups.values())

    def pooled_rate(self) -> float:
        """All items over all reference seconds (every phase)."""
        return (sum(u.items for u in self.units)
                / sum(u.ref_s for u in self.units))

    def raw_rate(self, phase: str) -> float:
        """Items per *wall* second of *phase* — a diagnostic only."""
        units = self.phase_units(phase)
        return sum(u.items for u in units) / sum(u.wall_s for u in units)

    def ref_ms(self) -> float:
        """Median reference-loop wall time of the run, in ms."""
        return 1e3 * statistics.median(u.ref_wall_s for u in self.units)
