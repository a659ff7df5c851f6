import pytest


@pytest.fixture(autouse=True)
def _default_budget(monkeypatch):
    """Run every test at the default byte budget, whatever the shell sets."""
    monkeypatch.delenv("HYPERLAB_BUDGET_MB", raising=False)
