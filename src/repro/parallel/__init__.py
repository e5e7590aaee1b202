"""Placeholder package: see :mod:`repro.parallel.executor`."""
