"""Benchmark harness for llcount; see README.md."""
