"""Benchmark of the cyclohecke library; run ``python3 perfbench/run.py --help``."""
