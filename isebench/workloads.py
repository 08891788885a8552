"""The three workloads: set-up, timed units and output checks.

Each workload builds its state in :meth:`setup` (repeatable: the harness
runs it several times and checks every repeat yields the same
fingerprint) and then yields *rotations*, lists of ``(phase, group,
unit)`` where ``unit()`` does one timed piece of work and returns how
many items it completed.  The harness times whole rotations until the
run's seconds are used up, so every group gets the same number of
units.  ``primary`` and ``secondary`` are the two phases every
workload has (README: metric table).

Output checks are counted, never raised: each :meth:`Checks.expect`
is one attempted check, failed when its condition is false, and a unit
that raises counts as one failed check.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.afu import build_datapath, emit_verilog
from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec.cycles import run_with_cycles
from repro.exec.rewrite import rewrite_module
from repro.frontend import analyze, lower_program, parse
from repro.hwmodel import CostModel
from repro.interp import Interpreter, Memory
from repro.interp.batch import driver_lanes, image_verifier, run_batch
from repro.interp.compile import clear_code_memo
from repro.ir.dfg import function_dfgs
from repro.passes import optimize_module
from repro.pipeline import prepare_application
from repro.session import Session
from repro.store.artifacts import ArtifactStore
from repro.workloads.registry import WORKLOADS

from .hostref import geomean
from .inputs import (
    KERNELS,
    NIN,
    NINSTR,
    NOUT,
    fuzz_units,
    lane_rotations,
    lane_sizes,
    sweep_spec,
)

CONSTRAINTS = Constraints(nin=NIN, nout=NOUT, ninstr=NINSTR)

#: Search budget for fuzz programs (the differential oracle's): a
#: generated block can be far larger than any kernel's.
FUZZ_LIMITS = SearchLimits(max_considered=50_000)

#: Fuzz units (six programs each) generated per set-up; a run that
#: needs more cycles through them again, still cold.
FUZZ_POOL = 64

#: Lanes per batch unit, (baseline, ISE) per kernel: about 0.25 s per
#: unit on a 2-vCPU cloud host, so neither phase dominates a run.
LANES: Dict[str, Tuple[int, int]] = {
    "adpcm-decode": (75, 4), "adpcm-encode": (60, 3), "gsm": (24, 2),
    "fir": (36, 9), "crc32": (55, 5), "g721": (10, 2), "sha": (40, 4),
    "mixer": (140, 10),
}

#: Warm sweep passes after each cold pass.
WARM_PASSES = 2

TimedUnit = Tuple[str, str, object]


@dataclass
class Checks:
    """Counted output checks (module doc)."""

    attempted: int = 0
    failed: int = 0

    def expect(self, ok: bool, what: str) -> None:
        """Count one check; report it on stderr when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"isebench: check failed: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        """Count a unit that raised as one failed check."""
        self.attempted += 1
        self.failed += 1
        if self.failed <= 20:
            print(f"isebench: {what} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def _golden_ok(workload, memory, n) -> bool:
    try:
        workload.verify(memory, n)
    except AssertionError:
        return False
    return True


def _profiled_dfgs(module, profile) -> list:
    dfgs = []
    for func in module.functions.values():
        weights = profile.weights_for(func.name)
        if weights:
            dfgs.extend(function_dfgs(func, weights, min_nodes=2))
    return [d for d in dfgs if d.weight > 0]


def _front(source: str, name: str, optimise: bool = True):
    program = parse(source)
    module = lower_program(program, analyze(program), name=name)
    if optimise:
        optimize_module(module, if_convert=True)
    return module


def _run(module, entry, args) -> Tuple:
    """``(value, memory image)`` of one walker run of *entry*."""
    memory = Memory(module)
    value = Interpreter(module, memory=memory, backend="walk").run(
        entry, list(args)).value
    return value, memory.arrays


# ----------------------------------------------------------------------
# compile-corpus
# ----------------------------------------------------------------------
class CompileCorpus:
    """Programs taken cold from source to a checked, measured ISE
    speedup.  primary: the registered kernels; secondary: seeded fuzz
    programs, one of each shape per unit."""

    name = "compile-corpus"
    #: Nominal seconds of one rotation on a 2-vCPU cloud VM.
    rotation_s = 2.5

    def __init__(self, seed: int, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks
        self.model = CostModel()
        #: First (baseline, ISE) cycles seen per kernel in this run.
        self.cycles: Dict[str, Tuple[float, float]] = {}
        self.pool: List[list] = []

    def setup(self):
        """Draw the fuzz pool and run each program's unoptimised
        reference on the walker, for both of its argument sets."""
        stream = fuzz_units(self.seed)
        self.pool = []
        for _ in range(FUZZ_POOL):
            unit = []
            for program in next(stream):
                raw = _front(program.source, "fuzz-raw", optimise=False)
                refs = tuple(_run(raw, program.entry, args)
                             for args in program.arg_sets)
                unit.append((program, refs))
            self.pool.append(unit)
        return [(p.source, refs) for unit in self.pool for p, refs in unit]

    def rotations(self) -> Iterator[List[TimedUnit]]:
        """Kernel and fuzz units interleaved, one unit per kernel."""
        index = 0
        while True:
            rotation: List[TimedUnit] = []
            for name in KERNELS:
                rotation.append(("primary", name,
                                 lambda name=name: self._kernel(name)))
                unit = self.pool[index % len(self.pool)]
                index += 1
                rotation.append(("secondary", "fuzz",
                                 lambda unit=unit: self._fuzz(unit)))
            yield rotation

    def _chain(self, source, name, entry, profile_fill, measure_fill,
               limits):
        """One program cold through the whole chain.  ``*_fill(memory)``
        writes a run's inputs and returns its arguments.  Returns the
        profiling run's ``(value, memory)``, the selection, the Verilog
        texts and the baseline and ISE ``(CycleReport, Memory)``."""
        model = self.model
        clear_code_memo()
        module = _front(source, name)
        memory = Memory(module)
        interp = Interpreter(module, memory=memory)
        value = interp.run(entry, profile_fill(memory)).value
        selection = select_iterative(_profiled_dfgs(module, interp.profile),
                                     CONSTRAINTS, model, limits, workers=1)
        rewritten = rewrite_module(module, selection.cuts, model)
        verilog = [emit_verilog(build_datapath(cut, model, name=f"ise{k}"))
                   for k, cut in enumerate(selection.cuts)]
        runs = []
        for run_module, costs in ((module, None),
                                  (rewritten.module, rewritten.block_costs)):
            run_memory = Memory(run_module)
            runs.append((run_with_cycles(run_module, entry,
                                         measure_fill(run_memory),
                                         memory=run_memory, model=model,
                                         cost_overrides=costs),
                         run_memory))
        expect = self.checks.expect
        expect(all(f"module ise{k}" in text
                   for k, text in enumerate(verilog)),
               f"{name}: Verilog module missing")
        return (value, memory), selection, runs

    def _kernel(self, name: str) -> int:
        workload = WORKLOADS[name]
        n = workload.default_n

        def fill(memory):
            return workload.driver(memory, n)

        (_, profiled_memory), selection, runs = self._chain(
            workload.source, name, workload.entry, fill, fill, None)
        (base, base_memory), (ise, ise_memory) = runs
        expect = self.checks.expect
        expect(_golden_ok(workload, profiled_memory, n),
               f"{name}: profiling run rejected by golden model")
        expect(_golden_ok(workload, ise_memory, n),
               f"{name}: ISE run rejected by golden model")
        expect(base.value == ise.value
               and base_memory.arrays == ise_memory.arrays,
               f"{name}: baseline and ISE memory images differ")
        # Profiling and measurement share n, so the measured cycle
        # saving equals the selection's merit exactly.
        expect(base.cycles - ise.cycles == selection.total_merit,
               f"{name}: saved cycles {base.cycles - ise.cycles} != "
               f"merit {selection.total_merit}")
        cycles = (base.cycles, ise.cycles)
        expect(self.cycles.setdefault(name, cycles) == cycles,
               f"{name}: cycle counts changed between units")
        return 1

    def _fuzz(self, unit) -> int:
        expect = self.checks.expect
        for program, refs in unit:
            label = f"fuzz {program.shape} seed {program.seed}"
            (value, memory), _, runs = self._chain(
                program.source, "fuzz", program.entry,
                lambda memory: list(program.arg_sets[0]),
                lambda memory: list(program.arg_sets[1]), FUZZ_LIMITS)
            expect((value, memory.arrays) == refs[0],
                   f"{label}: optimised run differs from reference")
            for (report, run_memory), which in zip(runs, ("baseline", "ISE")):
                expect((report.value, run_memory.arrays) == refs[1],
                       f"{label}: {which} run differs from reference")
        return len(unit)

    def cycle_speedup_geomean(self) -> float:
        """Geomean over the kernels of baseline / ISE cycles."""
        return geomean(base / ise for base, ise in self.cycles.values())

    def close(self) -> None:
        """Nothing to release."""


# ----------------------------------------------------------------------
# lane-batch
# ----------------------------------------------------------------------
@dataclass
class _Lanes:
    entry: str
    base: object
    ise: object
    lanes: list
    check: object
    steps: Dict[str, int]


class LaneBatch:
    """Steady-state batch execution of prepared kernels.  primary:
    baseline lanes; secondary: lanes of the ISE-rewritten modules."""

    name = "lane-batch"
    #: Nominal seconds of one rotation on a 2-vCPU cloud VM.
    rotation_s = 4.0

    def __init__(self, seed: int, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks
        self.model = CostModel()
        self.state: Dict[str, _Lanes] = {}

    def setup(self):
        """Prepare, select and rewrite every kernel at its seed-drawn n;
        verify one reference lane of each module against the kernel's
        golden model."""
        expect = self.checks.expect
        self.state = {}
        fingerprint = []
        for name, n in lane_sizes(self.seed).items():
            workload = WORKLOADS[name]
            app = prepare_application(name, n=n, store=None)
            selection = select_iterative(app.dfgs, CONSTRAINTS, self.model,
                                         None, workers=1)
            rewritten = rewrite_module(app.module, selection.cuts,
                                       self.model)
            lanes = driver_lanes(app.module, workload.driver, n,
                                 max(LANES[name]))

            def golden(memory, lane, workload=workload, n=n):
                workload.verify(memory, n)

            refs = [run_batch(module, app.entry, lanes[:1], verify=golden,
                              keep_arrays=True).lanes[0]
                    for module in (app.module, rewritten.module)]
            for ref, which in zip(refs, ("baseline", "ISE")):
                expect(ref.ok and ref.verified is True,
                       f"{name}: {which} reference lane not accepted by "
                       f"golden model")
            expect(refs[0].arrays == refs[1].arrays
                   and refs[0].value == refs[1].value,
                   f"{name}: baseline and ISE reference lanes differ")
            self.state[name] = _Lanes(
                app.entry, app.module, rewritten.module, lanes,
                image_verifier(refs[0].value, refs[0].arrays), {})
            fingerprint.append((name, n, selection.total_merit,
                                rewritten.num_instructions, refs[0].value,
                                refs[0].steps, refs[1].steps))
        return fingerprint

    def rotations(self) -> Iterator[List[TimedUnit]]:
        """Every (kernel, phase) batch once, in a seed-drawn order."""
        for rotation in lane_rotations(self.seed):
            yield [("primary" if phase == "base" else "secondary", name,
                    lambda name=name, phase=phase: self._batch(name, phase))
                   for name, phase in rotation]

    def _batch(self, name: str, phase: str) -> int:
        state = self.state[name]
        count = LANES[name][phase == "ise"]
        module = state.base if phase == "base" else state.ise
        batch = run_batch(module, state.entry, state.lanes[:count],
                          verify=state.check)
        verified = batch.verified_count
        self.checks.attempted += count
        self.checks.failed += count - verified
        if verified != count:
            print(f"isebench: {name} {phase}: {count - verified} lane(s) "
                  f"differ from the reference lane", file=sys.stderr)
        steps = batch.total_steps
        self.checks.expect(state.steps.setdefault(phase, steps) == steps,
                           f"{name} {phase}: step count changed")
        return verified

    def cycle_speedup_geomean(self) -> float:
        """Not measured by this workload."""
        return 0.0

    def close(self) -> None:
        """Nothing to release."""


# ----------------------------------------------------------------------
# sweep-store
# ----------------------------------------------------------------------
def _rows(outcome) -> List[dict]:
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in outcome.rows]


class SweepStore:
    """A design-space sweep through a directory store under the run's
    temp dir.  primary: grid points of a cold pass into a fresh store;
    secondary: points of warm passes, each from a new session on it."""

    name = "sweep-store"
    #: Nominal seconds of one rotation on a 2-vCPU cloud VM.
    rotation_s = 2.5

    def __init__(self, seed: int, checks: Checks, tmp_root: str) -> None:
        self.seed = seed
        self.checks = checks
        self.tmp_root = tmp_root
        self.spec = sweep_spec(seed)
        self.reference: List[dict] = []
        self._dirs: List[str] = []

    def setup(self):
        """The store-off reference sweep every pass is checked against."""
        session = Session(store=False, workers=1)
        self.reference = _rows(session.sweep(self.spec))
        return self.reference

    def rotations(self) -> Iterator[List[TimedUnit]]:
        """A cold pass into a fresh store, then the warm passes."""
        while True:
            path = tempfile.mkdtemp(prefix="store-", dir=self.tmp_root)
            self._dirs.append(path)
            yield ([("primary", "cold", lambda: self._pass(path, "cold"))]
                   + [("secondary", "warm",
                       lambda: self._pass(path, "warm"))] * WARM_PASSES)
            shutil.rmtree(path, ignore_errors=True)
            self._dirs.remove(path)

    def _pass(self, path: str, kind: str) -> int:
        store = ArtifactStore(path)
        try:
            rows = _rows(Session(store=store, workers=1).sweep(self.spec))
        finally:
            store.close()
        self.checks.expect(rows == self.reference,
                           f"{kind} sweep rows differ from the store-off "
                           f"reference")
        return len(rows)

    def cycle_speedup_geomean(self) -> float:
        """Not measured by this workload."""
        return 0.0

    def close(self) -> None:
        """Remove the stores this workload created."""
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()


WORKLOAD_TYPES = {cls.name: cls
                  for cls in (CompileCorpus, LaneBatch, SweepStore)}
