"""Marks every test in ``test_acceptance.py`` with ``acceptance``, so that
``pytest -m "not acceptance"`` runs the module tests alone in seconds."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
