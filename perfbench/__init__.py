"""Seeded-day benchmark of the consolidation controller (see run.py)."""
