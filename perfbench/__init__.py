"""Benchmark of the ReadDuo reproduction: see README.md."""
