"""Benchmark harness for ncgp; see perfbench/README.md."""
