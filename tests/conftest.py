import pytest

from mblchain import errors


@pytest.fixture
def memory_budget(monkeypatch):
    """Set the package's one memory budget, in bytes, for this test."""
    return lambda nbytes: monkeypatch.setattr(errors, "MEMORY_BUDGET", nbytes)
