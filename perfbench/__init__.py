"""Benchmark of the rwcf job API; run with ``python3 perfbench/run.py``."""
