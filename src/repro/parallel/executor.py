"""Placeholder for the end-to-end benchmark's ``parallel.tasks`` tracing row.

Nothing in repro calls it: ``benchmarks/e2e/tracing.py`` patches
``ExecutorPool.map`` when it installs, and this module goes with that row.
"""


class ExecutorPool:
    """An in-process ordered map."""

    def map(self, fn, items):
        return [fn(i) for i in items]
