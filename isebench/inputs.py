"""Seeded inputs of the three workloads.

The seed is a benchmark argument; the program only ever sees what is
generated here.  Every function is pure: the same seed gives the same
corpus, lane plan and grid, and different seeds give different ones.

Work per run must not depend much on the seed, or the run-to-run
spread measures the draw instead of the program:

* fuzz programs are drawn fresh for every unit, so one run averages
  over hundreds of them;
* a kernel's lane problem size moves at most one step of 1/16 of its
  default size;
* the sweep's port pairs and area budget are fixed (seed-drawn triples
  of the Fig. 11 set differed by 40% in cold-pass cost, and the area
  knapsack's cost grows with the budget: seed-drawn budgets from 1.5 to
  3.0 moved warm-pass throughput by 15%); the seed orders the grid
  axes.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.explore.grid import SweepSpec
from repro.fuzz.generator import SHAPES, GeneratedProgram, generate_program
from repro.workloads.registry import WORKLOADS

#: The 8 registered kernels.
KERNELS: Tuple[str, ...] = tuple(WORKLOADS)

#: Port budget and instruction budget of every compile and lane selection.
NIN, NOUT, NINSTR = 4, 2, 16

#: Port pairs of the sweep grid: narrow, the paper's flagship, wide.
SWEEP_PORTS: Tuple[Tuple[int, int], ...] = ((2, 1), (4, 2), (6, 3))
SWEEP_NINSTRS: Tuple[int, ...] = (4, 16)
SWEEP_ALGORITHMS: Tuple[str, ...] = ("iterative", "clubbing", "maxmiso",
                                     "area")


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"isebench:{stream}:{seed}")


def fuzz_units(seed: int) -> Iterator[List[GeneratedProgram]]:
    """Endless stream of fuzz units, one program of each of the six
    shapes per unit, drawn from *seed*."""
    rng = _rng(seed, "fuzz")
    while True:
        yield [generate_program(rng.randrange(1 << 31), shape)
               for shape in SHAPES]


def lane_sizes(seed: int) -> Dict[str, int]:
    """Problem size n per kernel: its default, moved by at most one
    step of 1/16 of the default (at least 1)."""
    rng = _rng(seed, "lanes")
    sizes = {}
    for name in KERNELS:
        default = WORKLOADS[name].default_n
        sizes[name] = default + rng.choice((-1, 0, 1)) * max(
            1, default // 16)
    return sizes


def lane_rotations(seed: int) -> Iterator[List[Tuple[str, str]]]:
    """Endless stream of rotations: every (kernel, phase) unit once per
    rotation, in a seed-drawn order."""
    rng = _rng(seed, "lane-order")
    units = [(name, phase) for name in KERNELS
             for phase in ("base", "ise")]
    while True:
        rng.shuffle(units)
        yield list(units)


def sweep_spec(seed: int) -> SweepSpec:
    """The sweep grid: kernels x ports x ninstrs x algorithms, axes in
    a seed-drawn order."""
    rng = _rng(seed, "sweep")
    kernels, ports = list(KERNELS), list(SWEEP_PORTS)
    algorithms = list(SWEEP_ALGORITHMS)
    rng.shuffle(kernels)
    rng.shuffle(ports)
    rng.shuffle(algorithms)
    return SweepSpec(workloads=tuple(kernels), ports=tuple(ports),
                     ninstrs=SWEEP_NINSTRS, algorithms=tuple(algorithms),
                     measure=False)
