"""Benchmark for qdeq: time to a verified answer on generated job streams.

Run ``python3 perfbench/run.py --workload <name> --seed <n>`` from the
repository root; see perfbench/README.md for the workloads and metrics.
"""
