"""Benchmark entry point.

Usage, from the root of a repository checkout::

    python3 isebench/run.py --workload compile-corpus --seed 1 \\
        --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics of a traced run and writes its spans as Chrome trace JSON under
``.isebench/``.  Outside a checkout (no ``src/repro``) it exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

_ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` is the import of the
#: workloads plus their median.
SETUPS = 5

#: Environment the program would otherwise read; the benchmark pins it.
ENV = {"REPRO_STORE": "off", "REPRO_WORKERS": "1", "REPRO_BACKEND": None,
       "REPRO_VERIFY": None, "REPRO_CHAOS_PLAN": None}

#: String-hash seed of every run.  Python salts string hashes per
#: process, which changes the layout of the program's dicts and sets:
#: with the salt random, the baseline lane rate of one input spanned
#: 16% over five 10-second runs, with it fixed 4%.
HASH_SEED = "0"


def isolate() -> None:
    """Pin this process to one CPU and fix the environment it reads."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    for name, value in ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def timed_rotations(workload, meter, seconds: float = 0.0,
                    count: Optional[int] = None) -> None:
    """Run whole rotations of *workload*'s units, *count* of them or
    else until *seconds* have passed; a unit that raises counts as a
    failed check."""
    deadline = time.perf_counter() + seconds
    for done, rotation in enumerate(workload.rotations(), start=1):
        for phase, group, unit in rotation:
            try:
                meter.measure(phase, group, unit)
            except Exception:  # noqa: BLE001 - counted, run goes on
                workload.checks.crashed(f"{phase} unit {group}")
        if (done >= count if count is not None
                else time.perf_counter() >= deadline):
            return


def timed_setups(workload, meter) -> list:
    """:data:`SETUPS` cold set-ups, each a ``setup`` unit of *meter*;
    returns their fingerprints."""
    from repro.interp.compile import clear_code_memo

    fingerprints = []

    def setup() -> int:
        fingerprints.append(workload.setup())
        return 1

    for _ in range(SETUPS):
        clear_code_memo()
        meter.measure("setup", "setup", setup)
    return fingerprints


def _import_workloads() -> int:
    import isebench.workloads  # noqa: F401 - timed as part of set-up
    return 1


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> dict:
    """One benchmark run; returns the result object."""
    from isebench.hostref import Meter

    setup_meter = Meter()
    setup_meter.measure("import", "import", _import_workloads)
    from isebench.workloads import WORKLOAD_TYPES, Checks

    checks = Checks()
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    kwargs = {"tmp_root": tmp_root} if name == "sweep-store" else {}
    workload = WORKLOAD_TYPES[name](seed, checks, **kwargs)
    try:
        if trace:
            metrics = traced(workload, seconds, out_dir)
        else:
            first, *repeats = timed_setups(workload, setup_meter)
            for fingerprint in repeats:
                checks.expect(fingerprint == first, "set-up repeats differ")
            meter = Meter()
            timed_rotations(workload, meter, seconds)
            (imported,) = setup_meter.phase_units("import")
            setup_s = imported.ref_s + statistics.median(
                u.ref_s for u in setup_meter.phase_units("setup"))
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
                "primary_per_ref_s": (_rate(meter.rate, "primary"),
                                      "1/ref-s"),
                "secondary_per_ref_s": (_rate(meter.rate, "secondary"),
                                        "1/ref-s"),
            }
    finally:
        workload.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
    return {"correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": checks.attempted, "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(workload, seconds: float, out_dir: Path) -> dict:
    """Half the run untraced, half traced; per-layer metrics.

    Each half runs a fixed number of rotations, about ``seconds / 2``
    at nominal host speed, so the per-layer counts of one seed repeat
    exactly whatever the host's speed.
    """
    from repro.interp.compile import clear_code_memo

    from isebench.hostref import Meter
    from isebench.tracing import Tracer

    count = max(1, round(seconds / 2 / workload.rotation_s))
    workload.setup()
    plain = Meter()
    timed_rotations(workload, plain, count=count)

    tracer = Tracer()
    tracer.install()
    try:
        # Codegen binds FusedAFU.evaluate into its closures: rebuild
        # them with the wrappers in place.
        clear_code_memo()
        workload.setup()
        meter = Meter(tracer=tracer)
        tracer.active = True
        timed_rotations(workload, meter, count=count)
        tracer.active = False
    finally:
        tracer.uninstall()
        clear_code_memo()       # drop closures bound to the wrappers

    checks = workload.checks
    misnested = tracer.misnested
    checks.expect(misnested == 0, f"{misnested} misnested span(s)")
    ratio = tracer.self_sum_ratio(meter.traced_ref_s)
    checks.expect(abs(ratio - 1.0) <= 0.05,
                  f"self times sum to {ratio:.4f} of the timed units")
    tracer.write_chrome(out_dir / f"trace-{workload.name}-"
                                  f"seed{workload.seed}.json")

    metrics = {k: (v, _unit(k)) for k, v in tracer.layer_metrics().items()}
    metrics["cycle_speedup_geomean"] = (
        workload.cycle_speedup_geomean(), "ratio")
    metrics["host.ref_ms"] = (meter.ref_ms(), "ms")
    metrics["host.raw_primary_per_s"] = (_rate(meter.raw_rate, "primary"),
                                         "1/s")
    metrics["host.raw_secondary_per_s"] = (
        _rate(meter.raw_rate, "secondary"), "1/s")
    metrics["trace.overhead"] = (
        plain.pooled_rate() / meter.pooled_rate() - 1.0, "ratio")
    metrics["trace.spans"] = (tracer.spans, "count")
    metrics["trace.misnested"] = (misnested, "count")
    metrics["trace.self_sum_ratio"] = (ratio, "ratio")
    return metrics


def _rate(rate, phase: str) -> float:
    """``rate(phase)``, or 0.0 when no unit of the phase completed (every
    one raised, so the run already reports failed checks)."""
    try:
        return rate(phase)
    except (ValueError, ZeroDivisionError):
        return 0.0


def _unit(metric: str) -> str:
    if metric.endswith(".self_ms"):
        return "ref-ms"
    if metric.endswith(("_rate", "_ratio")):
        return "ratio"
    return "count"


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    """Parse arguments, run, print the result as the last line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-corpus", "lane-batch",
                                 "sweep-store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"isebench: no repro sources under {_ROOT / 'src'}; run "
              f"from a repository checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]
    # SIGTERM unwinds like an exception, so temp stores are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    isolate()
    out_dir = _ROOT / ".isebench"
    out_dir.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
