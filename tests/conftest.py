"""A test that leaves a file or another resource open fails, instead of
passing with a warning. This holds only for the tests in this directory."""

from pathlib import Path

import pytest

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
