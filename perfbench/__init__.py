"""Benchmark for graphsel; see run.py."""
