"""Benchmark of the detect-and-prune loop; the entry point is bench/run.py."""
