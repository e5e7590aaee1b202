"""Shared fixtures: every fault test starts and ends with clean global state."""

import pytest

from repro.faults import injector


@pytest.fixture(autouse=True)
def _clean_fault_state():
    injector.clear()
    yield
    injector.clear()
