"""A test that leaves a file or another resource open fails, instead of
passing with a warning. This holds only for the tests in this directory.
Every test also starts with no stored decision, so a test that patches the
algebra under `decide` is never served an outcome computed before its patch,
and `smith_calls` counts the Smith forms a test runs."""

from pathlib import Path

import pytest

import xorgames.decider
import xorgames.intlinalg

TESTS = Path(__file__).resolve().parent
LEAKS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS in item.path.resolve().parents:
            for mark in LEAKS:
                item.add_marker(mark)


@pytest.fixture(autouse=True)
def no_stored_decision():
    xorgames.decider._last_decision.clear()


@pytest.fixture
def smith_calls(monkeypatch):
    """The matrices `intlinalg.smith_normal_form` is called on, in order.
    Each call also checks that no stored decision, and so no second
    decomposition, is alive while it runs."""
    calls = []
    real = xorgames.intlinalg.smith_normal_form

    def counted(a):
        assert not xorgames.decider._last_decision, "a stored decision outlived its game"
        calls.append(a)
        return real(a)

    monkeypatch.setattr(xorgames.intlinalg, "smith_normal_form", counted)
    return calls

