"""Host-normalised benchmark of the repro toolchain.

Run it as ``python3 isebench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``isebench/README.md`` explains
the workloads, the metrics and the host-speed normalisation.
"""
