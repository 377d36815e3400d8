"""Benchmark harness for casdis: seeded workloads, output checks and tracing."""
