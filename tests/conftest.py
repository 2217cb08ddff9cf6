import pytest

from flowseq import policy


@pytest.fixture
def bulk_rows_one(monkeypatch):
    """Send every tabular lookup, however few its contexts, through Policy's sorted search of context codes."""
    monkeypatch.setattr(policy, "BULK_ROWS", 1)
