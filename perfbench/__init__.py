"""Benchmark of the repo: workloads, tracing and the run command (see run.py)."""
