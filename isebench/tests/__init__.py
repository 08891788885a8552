"""Tests of the benchmark's own arithmetic, inputs and workloads."""
