"""Fixtures shared by the test modules."""

import pytest

from manin_toric import cones


@pytest.fixture
def dd_calls(monkeypatch):
    """(dimension, inequalities) of every exact double description run."""
    calls = []
    real = cones._dd_feasible

    def spy(n, inequalities, *args, **kwargs):
        calls.append((n, tuple(inequalities)))
        return real(n, inequalities, *args, **kwargs)

    monkeypatch.setattr(cones, "_dd_feasible", spy)
    return calls
