"""The benchmark's arithmetic, tracing, seeded inputs and a smoke run of
each workload with every output check passing."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from isebench import hostref, inputs, run, tracing  # noqa: E402
from isebench.hostref import Meter, Unit  # noqa: E402

@pytest.fixture
def pinned_env(monkeypatch):
    """The environment a benchmark run pins, applied to this test."""
    for name, value in run.ENV.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)


# ----------------------------------------------------------------------
# Normalisation arithmetic.
# ----------------------------------------------------------------------
def test_ref_seconds_scales_by_reference():
    r0 = hostref.R0_S
    assert hostref.ref_seconds(2.0, r0) == pytest.approx(2.0)
    # A host running the reference twice as slow halves the cost.
    assert hostref.ref_seconds(1.0, 2 * r0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostref.ref_seconds(1.0, 0.0)


def test_geomean():
    assert hostref.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert hostref.geomean([3.0]) == pytest.approx(3.0)
    for bad in ([], [1.0, 0.0], [-1.0]):
        with pytest.raises(ValueError):
            hostref.geomean(bad)


def test_meter_rate_is_geomean_of_group_medians():
    r0 = hostref.R0_S
    meter = Meter(units=[
        Unit("p", "a", 1, 1.0, r0), Unit("p", "a", 1, 0.5, r0),
        Unit("p", "a", 1, 0.25, r0),           # a: rates 1, 2, 4 -> 2
        Unit("p", "b", 4, 1.0, 2 * r0),        # b: 4 / 0.5 ref-s -> 8
        Unit("q", "a", 9, 1.0, r0),
    ])
    assert meter.rate("p") == pytest.approx(math.sqrt(2 * 8))
    assert meter.rate("q") == pytest.approx(9.0)
    assert meter.pooled_rate() == pytest.approx(16 / 3.25)
    assert meter.raw_rate("p") == pytest.approx(7 / 2.75)


def test_reference_loop_is_deterministic():
    assert hostref.reference_loop(100) == hostref.reference_loop(100)
    assert hostref.time_reference() > 0


# ----------------------------------------------------------------------
# Tracing.
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def perf_counter(self):
        return next(self.ticks)


def test_self_time_under_nested_spans(monkeypatch):
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "b")
    outer = tracer.wrap(lambda: inner(), "a")
    leaf = tracer.wrap(lambda: None, "c", record=False)
    tracer.active = True
    # root 0..10 > a 1..4 > b 2..3; then c 5..6 directly under root.
    monkeypatch.setattr(tracing, "time", _Clock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.root("bench.p", scale=2.0):
        outer()
        leaf()
    assert tracer.self_s == pytest.approx(
        {"bench.p": 12.0, "a": 4.0, "b": 2.0, "c": 2.0})
    assert tracer.self_sum_ratio(20.0) == pytest.approx(1.0)
    assert dict(tracer.calls) == {"bench.p": 1, "a": 1, "b": 1, "c": 1}
    assert [e[0] for e in tracer.events] == ["b", "a", "bench.p"]
    assert tracer.misnested == 0


def _traced_self_sum_ratio() -> float:
    """Self-sum ratio of one metered unit spent almost all in a span."""
    tracer = tracing.Tracer()
    work = tracer.wrap(hostref.reference_loop, "a")

    def unit() -> int:
        work(20_000)
        return 1

    meter = Meter(tracer=tracer)
    tracer.active = True
    meter.measure("p", "g", unit)
    return tracer.self_sum_ratio(meter.traced_ref_s)


def test_self_sum_check_catches_an_accounting_error(monkeypatch):
    assert _traced_self_sum_ratio() == pytest.approx(1.0, abs=0.05)
    close = tracing.Tracer._close

    def forgetful_close(self, frame, record):
        """Close a span without crediting its time to the parent, so
        the child's time is counted twice."""
        parent = self._stack[-2] if len(self._stack) > 1 else None
        credited = parent[2] if parent else 0.0
        close(self, frame, record)
        if parent:
            parent[2] = credited

    monkeypatch.setattr(tracing.Tracer, "_close", forgetful_close)
    assert _traced_self_sum_ratio() > 1.5


def test_misnested_span_is_counted():
    tracer = tracing.Tracer()
    outer = tracer._open("a")
    tracer._open("b")
    tracer._close(outer, True)      # closes a while b is still open
    assert tracer.misnested == 1
    assert tracer._stack == []


def test_install_rebinds_and_uninstall_restores():
    import repro.core.single_cut as single_cut
    import repro.exec.rewrite as rewrite

    original = single_cut.run_single_cut
    evaluate = rewrite.FusedAFU.__dict__["evaluate"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert single_cut.run_single_cut is not original
        assert rewrite.FusedAFU.__dict__["evaluate"] is not evaluate
    finally:
        tracer.uninstall()
    assert single_cut.run_single_cut is original
    assert rewrite.FusedAFU.__dict__["evaluate"] is evaluate


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------
def _first_fuzz(seed):
    return [p.source for p in next(inputs.fuzz_units(seed))]


def _first_rotation(seed):
    return next(inputs.lane_rotations(seed))


@pytest.mark.parametrize("draw", [
    _first_fuzz, inputs.lane_sizes, _first_rotation, inputs.sweep_spec])
def test_inputs_repeat_per_seed_and_differ_across_seeds(draw):
    assert draw(3) == draw(3)
    assert draw(3) != draw(4) or draw(3) != draw(5)


def test_fuzz_units_cover_every_shape():
    from repro.fuzz.generator import SHAPES

    assert [p.shape for p in next(inputs.fuzz_units(1))] == list(SHAPES)


def test_sweep_grid_has_192_points():
    assert len(inputs.sweep_spec(1).expand()) == 192


# ----------------------------------------------------------------------
# Smoke runs: one rotation of each workload as the benchmark runs it,
# zero failed checks.
# ----------------------------------------------------------------------
def _one_rotation(workload):
    workload.setup()
    meter = Meter()
    run.timed_rotations(workload, meter, 0.0)
    try:
        assert workload.checks.failed == 0
        assert workload.checks.attempted > 0
        assert meter.rate("primary") > 0
        assert meter.rate("secondary") > 0
    finally:
        workload.close()


def test_smoke_compile_corpus(pinned_env):
    from isebench.workloads import Checks, CompileCorpus

    workload = CompileCorpus(7, Checks())
    _one_rotation(workload)
    assert workload.cycle_speedup_geomean() > 1.0


def test_smoke_lane_batch(pinned_env):
    from isebench.workloads import Checks, LaneBatch

    _one_rotation(LaneBatch(7, Checks()))


def test_smoke_sweep_store(pinned_env, tmp_path):
    from isebench.workloads import Checks, SweepStore

    workload = SweepStore(7, Checks(), str(tmp_path))
    _one_rotation(workload)
    assert list(tmp_path.iterdir()) == []


def test_smoke_traced_run(pinned_env, tmp_path):
    from isebench.workloads import Checks, CompileCorpus

    workload = CompileCorpus(7, Checks())
    metrics = run.traced(workload, 0.0, tmp_path)
    assert workload.checks.failed == 0
    assert metrics["trace.misnested"][0] == 0
    assert metrics["trace.self_sum_ratio"][0] == pytest.approx(1.0,
                                                                abs=0.05)
    for layer in ("frontend", "passes", "core.engine", "exec.rewrite",
                  "interp.codegen", "afu"):
        assert metrics[f"{layer}.calls"][0] > 0
    trace = json.loads(
        (tmp_path / "trace-compile-corpus-seed7.json").read_text())
    assert trace["traceEvents"]


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "isebench", tmp_path / "isebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "isebench/run.py", "--workload", "lane-batch",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
