"""Benchmark harness for rzeta; see NOTE.md."""
