"""Benchmark internals; see perfbench/README.md."""
